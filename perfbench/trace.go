package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
)

// span is one timed interval at a layer boundary. Spans of one served
// request share Req; Parent names the span that caused this one (filled
// in from the fixed layer nesting when the spans are written out).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// frame is one captured data-path exchange, re-encoded and re-decoded
// after the run so codec cost is measured on the very bytes served.
type frame struct {
	req          int64
	exec         bool
	request, out []byte
}

// recorder keeps the traced run's spans in memory; write dumps them
// when the run ends. A nil *recorder is the untraced run: every hook
// checks for it and adds nothing but the nil test.
type recorder struct {
	base   time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	frames []frame
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) id() int64 { return r.nextID.Add(1) }

// add records a finished span and returns its ID; id may be a
// pre-allocated ID (so children could name it) or 0 for a fresh one.
func (r *recorder) add(id int64, name string, req int64, start, end int64) int64 {
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// timeSpan records a span around fn.
func (r *recorder) timeSpan(name string, fn func()) {
	start := r.now()
	fn()
	r.add(0, name, 0, start, r.now())
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// mark is the recorder's clock, or 0 on a nil (untraced) recorder.
func (r *recorder) mark() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// window returns the spans lying wholly inside [from, to].
func (r *recorder) window(from, to int64) []span {
	var out []span
	for _, s := range r.snapshot() {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) frameList() []frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frame(nil), r.frames...)
}

func (r *recorder) addFrame(f frame) {
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
}

// parentLayer is the fixed nesting of the served path: each span's
// parent is the span of the enclosing layer carrying the same request.
var parentLayer = map[string]string{
	"router.handler":       "remote.call",
	"router.forward":       "router.handler",
	"targetserver.handler": "router.forward",
	"ce.estimate":          "targetserver.handler",
	"ce.retrain":           "targetserver.handler",
}

// campaignStage names the campaign spans that enclose others: an
// unattributed span's parent is the shortest stage span containing it.
var campaignStage = map[string]bool{
	"campaign": true, "surrogate.train": true, "detector.train": true,
	"core.train": true, "generator.draw": true,
}

// write links parents and dumps the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	byReq := map[int64]map[string]int64{}
	var stages []span
	for _, s := range spans {
		if s.Req == 0 {
			if campaignStage[s.Name] {
				stages = append(stages, s)
			}
			continue
		}
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]int64{}
		}
		byReq[s.Req][s.Name] = s.ID
	}
	for i, s := range spans {
		if s.Req != 0 {
			spans[i].Parent = byReq[s.Req][parentLayer[s.Name]]
			continue
		}
		var parent *span
		for j, c := range stages {
			if c.ID != s.ID && c.Start <= s.Start && s.End <= c.End && (parent == nil || c.dur() < parent.dur()) {
				parent = &stages[j]
			}
		}
		if parent != nil {
			spans[i].Parent = parent.ID
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// Requests are tagged end to end through the client identity header the
// remote client sends and the router forwards.
const (
	clientHeader = "X-Pace-Client"
	reqPrefix    = "perfbench-r"
)

func reqClientID(req int64) string { return reqPrefix + strconv.FormatInt(req, 10) }

func reqOf(r *http.Request) int64 {
	v, ok := strings.CutPrefix(r.Header.Get(clientHeader), reqPrefix)
	if !ok {
		return 0
	}
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

type reqKey struct{}

func withReq(ctx context.Context, req int64) context.Context {
	return context.WithValue(ctx, reqKey{}, req)
}

func reqFrom(ctx context.Context) int64 {
	n, _ := ctx.Value(reqKey{}).(int64)
	return n
}

// timedTarget wraps a ce.Target, timing each estimate and retrain and
// attributing it to the request its context carries.
type timedTarget struct {
	ce.Target
	rec *recorder
}

func (t timedTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	start := t.rec.now()
	est, err := t.Target.EstimateContext(ctx, q)
	t.rec.add(0, "ce.estimate", reqFrom(ctx), start, t.rec.now())
	return est, err
}

func (t timedTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	start := t.rec.now()
	err := t.Target.ExecuteWorkload(ctx, qs, cards)
	t.rec.add(0, "ce.retrain", reqFrom(ctx), start, t.rec.now())
	return err
}

// isData reports whether a path is an estimate or execute data call.
func isData(path string) (data, exec bool) {
	switch {
	case strings.HasSuffix(path, "/estimate"):
		return true, false
	case strings.HasSuffix(path, "/execute"):
		return true, true
	}
	return false, false
}

// timedHandler wraps a service mux: data-path requests get a span named
// name and a request tag in their context. With capture set, request
// and response bodies are kept for the after-run codec measurement.
func timedHandler(rec *recorder, name string, capture bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, exec := isData(r.URL.Path)
		req := reqOf(r)
		if !data || req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		var fr frame
		if capture {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			fr = frame{req: req, exec: exec, request: body}
			cw := &captureWriter{ResponseWriter: w}
			w = cw
			defer func() {
				fr.out = cw.buf.Bytes()
				rec.addFrame(fr)
			}()
		}
		id := rec.id()
		start := rec.now()
		h.ServeHTTP(w, r.WithContext(withReq(r.Context(), req)))
		rec.add(id, name, req, start, rec.now())
	})
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// timedTransport times the router→backend data exchange from request
// start to the response body's close (the router reads the whole body
// before closing it).
type timedTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	data, _ := isData(r.URL.Path)
	req := reqOf(r)
	if !data || req == 0 {
		return t.base.RoundTrip(r)
	}
	start := t.rec.now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.rec.add(0, "router.forward", req, start, t.rec.now())
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.rec.add(0, "router.forward", req, start, t.rec.now())
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
