package main

import (
	"sort"
	"time"

	"pace/internal/query"
	"pace/internal/wire"
)

// serveLayers is the per-request breakdown of a traced serving phase.
// Every slice holds one value per request that carried the spans it
// needs.
type serveLayers struct {
	rttUs, forwardUs, routerSelfUs   []float64
	handlerUs, waitUs, unexplainedUs []float64
	decodeUs, encodeUs, bytesPerReq  []float64
	inferUs, retrainMs, execWaitMs   []float64
	reads, readsBehindRetrain        int
}

// analyzeServe splits each request's round trip into layer self times:
//
//	remote.call           client send → reply (the RTT)
//	  router.handler      the router's handler
//	    router.forward    router → backend exchange
//	      targetserver.handler
//	        codec         server decode + response encode, re-timed on the captured frames
//	        ce.*          model time (estimates or a retrain)
//	        tenant wait   handler − model − codec: admission, queue, batch gather
//
// The router's self time is its handler minus the forward. What no layer
// explains — client encode/decode, loopback and HTTP transport — is the
// RTT minus the router's self time minus the backend handler.
func analyzeServe(spans []span, frames []frame, meta *query.Meta) serveLayers {
	type req struct {
		rtt, router, forward, handler time.Duration
		model, retrain                time.Duration
		hasRetrain                    bool
		start, end                    int64
	}
	reqs := map[int64]*req{}
	get := func(id int64) *req {
		if reqs[id] == nil {
			reqs[id] = &req{}
		}
		return reqs[id]
	}
	var l serveLayers
	var retrains [][2]int64
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		r := get(s.Req)
		switch s.Name {
		case "remote.call":
			r.rtt = s.dur()
		case "router.handler":
			r.router = s.dur()
		case "router.forward":
			r.forward = s.dur()
		case "targetserver.handler":
			r.handler = s.dur()
			r.start, r.end = s.Start, s.End
		case "ce.estimate":
			r.model += s.dur()
			l.inferUs = append(l.inferUs, us(s.dur()))
		case "ce.retrain":
			r.retrain += s.dur()
			r.hasRetrain = true
			retrains = append(retrains, [2]int64{s.Start, s.End})
			l.retrainMs = append(l.retrainMs, ms(s.dur()))
		}
	}

	codec := map[int64]time.Duration{}
	for _, fr := range frames {
		if _, seen := reqs[fr.req]; !seen {
			continue
		}
		dec, enc, ok := timeCodec(fr, meta)
		if !ok {
			continue
		}
		codec[fr.req] = dec + enc
		if !fr.exec {
			l.decodeUs = append(l.decodeUs, us(dec))
			l.encodeUs = append(l.encodeUs, us(enc))
			l.bytesPerReq = append(l.bytesPerReq, float64(len(fr.request)+len(fr.out)))
		}
	}

	sort.Slice(retrains, func(i, j int) bool { return retrains[i][0] < retrains[j][0] })
	for id, r := range reqs {
		if r.rtt == 0 || r.router == 0 || r.forward == 0 || r.handler == 0 {
			continue // a request outside the phase, or one that failed early
		}
		l.rttUs = append(l.rttUs, us(r.rtt))
		l.forwardUs = append(l.forwardUs, us(r.forward))
		l.routerSelfUs = append(l.routerSelfUs, us(r.router-r.forward))
		l.unexplainedUs = append(l.unexplainedUs, us(r.rtt-(r.router-r.forward)-r.handler))
		if r.hasRetrain {
			l.execWaitMs = append(l.execWaitMs, ms(r.handler-r.retrain-codec[id]))
			continue
		}
		l.reads++
		l.handlerUs = append(l.handlerUs, us(r.handler))
		l.waitUs = append(l.waitUs, us(r.handler-r.model-codec[id]))
		if overlaps(retrains, r.start, r.end) {
			l.readsBehindRetrain++
		}
	}
	return l
}

// overlaps reports whether [start, end] intersects any interval of the
// start-sorted list.
func overlaps(ivs [][2]int64, start, end int64) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i][0] > end })
	for j := i - 1; j >= 0; j-- {
		if ivs[j][1] >= start {
			return true
		}
	}
	return false
}

// timeCodec re-runs the server's codec work on a captured exchange:
// decoding the request frame into queries and encoding the response.
func timeCodec(fr frame, meta *query.Meta) (dec, enc time.Duration, ok bool) {
	c := wire.Binary
	if fr.exec {
		start := time.Now()
		req, err := c.DecodeExecuteRequest(fr.request)
		if err != nil {
			return 0, 0, false
		}
		if _, err := wire.DecodeQueries(meta, req.Queries); err != nil {
			return 0, 0, false
		}
		dec = time.Since(start)
		resp, err := c.DecodeExecuteResponse(fr.out)
		if err != nil {
			return 0, 0, false
		}
		start = time.Now()
		if _, err := c.EncodeExecuteResponse(resp); err != nil {
			return 0, 0, false
		}
		return dec, time.Since(start), true
	}
	start := time.Now()
	req, err := c.DecodeEstimateRequest(fr.request)
	if err != nil {
		return 0, 0, false
	}
	if _, err := wire.DecodeQueries(meta, req.Queries); err != nil {
		return 0, 0, false
	}
	dec = time.Since(start)
	resp, err := c.DecodeEstimateResponse(fr.out)
	if err != nil {
		return 0, 0, false
	}
	start = time.Now()
	if _, err := c.EncodeEstimateResponse(resp); err != nil {
		return 0, 0, false
	}
	return dec, time.Since(start), true
}

// batchStats is the tenant's micro-batch histogram: batches evaluated
// and queries in them.
type batchStats struct{ batches, queries float64 }

func (f *fleet) batchStats() batchStats {
	if f.reg == nil {
		return batchStats{}
	}
	h := f.reg.Histogram(`paced_batch_queries{tenant="` + tenantID + `"}`)
	return batchStats{batches: float64(h.Count()), queries: h.Sum()}
}

func (b batchStats) minus(o batchStats) batchStats {
	return batchStats{batches: b.batches - o.batches, queries: b.queries - o.queries}
}

func (b batchStats) plus(o batchStats) batchStats {
	return batchStats{batches: b.batches + o.batches, queries: b.queries + o.queries}
}

// set adds the serve per-layer metrics to res. reads is the read
// stream's tally (lag, shed); allocBytes is the heap allocated over the
// phase.
func (l serveLayers) set(res *runResult, reads tally, batches batchStats, allocBytes uint64) {
	res.layer("driver.lag_ms_p99", quantile(reads.lagMs, 0.99), "ms")
	res.layer("remote.rtt_us_p50", quantile(l.rttUs, 0.5), "us")
	res.layer("remote.rtt_us_p99", quantile(l.rttUs, 0.99), "us")
	res.layer("router.forward_us_p50", quantile(l.forwardUs, 0.5), "us")
	res.layer("router.self_us_p50", quantile(l.routerSelfUs, 0.5), "us")
	res.layer("targetserver.handler_us_p50", quantile(l.handlerUs, 0.5), "us")
	res.layer("targetserver.handler_us_p99", quantile(l.handlerUs, 0.99), "us")
	res.layer("wire.decode_us", quantile(l.decodeUs, 0.5), "us")
	res.layer("wire.encode_us", quantile(l.encodeUs, 0.5), "us")
	res.layer("wire.bytes_per_req", mean(l.bytesPerReq), "B")
	res.layer("tenant.wait_us_p50", quantile(l.waitUs, 0.5), "us")
	res.layer("tenant.wait_us_p99", quantile(l.waitUs, 0.99), "us")
	if batches.batches > 0 {
		res.layer("tenant.batch_queries_mean", batches.queries/batches.batches, "queries")
	}
	res.layer("tenant.shed_share", float64(reads.shed)/float64(max(reads.due, 1)), "ratio")
	res.layer("ce.infer_us_p50", quantile(l.inferUs, 0.5), "us")
	res.layer("ce.estimate_calls", float64(len(l.inferUs)), "count")
	res.layer("ce.estimate_s", sum(l.inferUs)/1e6, "s")
	res.layer("serve.unexplained_us_p50", quantile(l.unexplainedUs, 0.5), "us")
	if len(l.retrainMs) > 0 {
		res.layer("ce.retrain_s", sum(l.retrainMs)/1e3, "s")
		res.info["retrain_layers"] = map[string]float64{
			"ce.retrain_ms_p50":                 quantile(l.retrainMs, 0.5),
			"tenant.exec_wait_ms_p50":           quantile(l.execWaitMs, 0.5),
			"tenant.reads_behind_retrain_share": float64(l.readsBehindRetrain) / float64(max(l.reads, 1)),
		}
	}
	res.layer("go.alloc_mb", float64(allocBytes)/(1<<20), "MB")
	res.layer("go.alloc_kb_per_op", float64(allocBytes)/1024/float64(max(len(l.rttUs), 1)), "KB")
}
