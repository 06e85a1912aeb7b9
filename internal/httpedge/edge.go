// Package httpedge is the HTTP edge paced (internal/targetserver) and
// pacerouter (internal/router) share: the data-route table, the trace
// and RED/SLO wrapper, client identity, JSON decoding and writing, the
// drain gate, and listen/serve/stop. The servers keep what differs:
// paced admits requests into tenants, the router proxies them and fails
// over.
package httpedge

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/obs"
	"pace/internal/wire"
)

// DefaultTenant is the id the unrouted /v1/estimate|execute aliases
// serve.
const DefaultTenant = "default"

// ClientHeader names the self-reported (spoofable) client identity
// header trusted when no auth tokens are configured.
const ClientHeader = "X-Pace-Client"

// MaxBody bounds request bodies: wire.MaxBatch queries at ~16B/bound
// leaves ample headroom at 64 MiB.
const MaxBody = 64 << 20

// unknownTenant labels the RED series of requests for tenant ids the
// server does not know; no valid id is empty, so random-id probing adds
// at most one series per route.
const unknownTenant = ""

// Config names one server's edge and carries the settings it shares
// with the server.
type Config struct {
	// Metrics prefixes the edge's metric families: <Metrics>_http_*,
	// <Metrics>_slo_burn_rate_permille and <Metrics>_unauthorized_total.
	Metrics string
	// Realm is the WWW-Authenticate realm of a 401 challenge.
	Realm string
	// SpanPrefix prefixes the data-route span names (route "estimate"
	// spans as SpanPrefix+"estimate").
	SpanPrefix string
	// Speaker names the server in protocol-version and draining errors.
	Speaker string
	// Known reports whether the server knows a tenant id, live or not.
	// It is consulted only with a metrics registry, and only the first
	// time an id reaches a route.
	Known func(id string) bool

	Telemetry    *obs.Telemetry
	AuthTokens   map[string]string
	SLOTarget    time.Duration
	SLOObjective float64
}

// Edge is one server's instance of the shared HTTP edge.
type Edge struct {
	cfg          Config
	unauthorized *obs.Counter // nil-safe without telemetry

	// Per-(route, tenant) RED instruments and per-tenant SLO trackers,
	// created lazily on first request.
	redMu sync.Mutex
	reds  map[redKey]*obs.RED
	slos  map[string]*obs.SLO

	draining atomic.Bool
	httpSrv  *http.Server
}

type redKey struct{ route, tenant string }

// New builds the edge of one server.
func New(cfg Config) *Edge {
	e := &Edge{cfg: cfg, reds: map[redKey]*obs.RED{}, slos: map[string]*obs.SLO{}}
	if reg := cfg.Telemetry.Registry(); reg != nil {
		e.unauthorized = reg.Counter(cfg.Metrics + "_unauthorized_total")
	}
	return e
}

// Handler serves one data-path request for tenant id.
type Handler func(w http.ResponseWriter, r *http.Request, id string)

// Routes are a server's data-path handlers. The execution handlers read
// the {token} path value themselves.
type Routes struct {
	Estimate, Execute                                               Handler
	OpenExecution, ExecutionChunk, ExecutionStatus, ExecutionDelete Handler
	// Legacy, when set, runs before an unrouted alias is served; path is
	// "/v1/estimate" or "/v1/execute".
	Legacy func(w http.ResponseWriter, path string)
}

// Mux returns a mux carrying the data-route table over routes and, with
// a metrics registry, GET /metrics. The server adds its own routes.
func (e *Edge) Mux(routes Routes) *http.ServeMux {
	mux := http.NewServeMux()
	for route, fn := range map[string]Handler{"estimate": routes.Estimate, "execute": routes.Execute} {
		path, span := "/v1/"+route, e.cfg.SpanPrefix+route
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			if routes.Legacy != nil {
				routes.Legacy(w, path)
			}
			e.serveData(w, r, DefaultTenant, route, span, fn)
		})
	}
	for _, d := range []struct {
		pattern, route string
		fn             Handler
	}{
		{"POST /v1/targets/{id}/estimate", "estimate", routes.Estimate},
		{"POST /v1/targets/{id}/execute", "execute", routes.Execute},
		{"POST /v1/targets/{id}/executions", "exec_open", routes.OpenExecution},
		{"POST /v1/targets/{id}/executions/{token}", "exec_chunk", routes.ExecutionChunk},
		{"GET /v1/targets/{id}/executions/{token}", "exec_status", routes.ExecutionStatus},
		{"DELETE /v1/targets/{id}/executions/{token}", "exec_delete", routes.ExecutionDelete},
	} {
		route, fn := d.route, d.fn
		span := e.cfg.SpanPrefix + route
		if route == "exec_status" {
			// Status polls are RED-metered but never spanned: poll counts
			// are timing-dependent, and spans here would break the
			// fixed-seed trace-structure determinism contract.
			span = ""
		}
		mux.HandleFunc(d.pattern, func(w http.ResponseWriter, r *http.Request) {
			e.serveData(w, r, r.PathValue("id"), route, span, fn)
		})
	}
	if reg := e.cfg.Telemetry.Registry(); reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape
		})
	}
	return mux
}

// serveData wraps one data-path handler with the fleet observability
// preamble: trace extraction (an X-Pace-Trace header makes the work
// parent under the remote caller's span; spanName "" means the route is
// metered but never spanned, which keeps trace structure a pure
// function of the instrumented client's behaviour) and per-(route,
// tenant) RED accounting with the tenant's SLO burn and a slow-request
// exemplar carrying the trace ID.
func (e *Edge) serveData(w http.ResponseWriter, r *http.Request, id, route, spanName string, fn Handler) {
	ctx := obs.NewContext(r.Context(), e.cfg.Telemetry)
	var sp *obs.Span
	if tp := r.Header.Get(wire.TraceHeader); tp != "" {
		if trace, span, ok := obs.ParseTraceParent(tp); ok {
			ctx = obs.ContextWithRemoteParent(ctx, trace, span)
			if spanName != "" {
				ctx, sp = obs.StartSpan(ctx, spanName, obs.String("tenant", id))
			}
		}
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	fn(sw, r.WithContext(ctx), id)
	sp.End()
	e.red(route, id).Observe(time.Since(start).Seconds(), sw.status >= 500, obs.TraceIDFrom(ctx))
}

// statusWriter captures the response status for RED error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// red returns the (route, tenant) RED bundle, creating it — and the
// tenant's shared SLO tracker — on first use. An id the server does not
// know shares the unknownTenant bundle. nil (all methods no-op) without
// a metrics registry.
func (e *Edge) red(route, id string) *obs.RED {
	reg := e.cfg.Telemetry.Registry()
	if reg == nil {
		return nil
	}
	key := redKey{route, id}
	e.redMu.Lock()
	m, ok := e.reds[key]
	e.redMu.Unlock()
	if ok {
		return m
	}
	// First sight of id on this route. Known runs outside redMu: it
	// takes the server's own lock.
	if !e.cfg.Known(id) {
		key.tenant = unknownTenant
	}
	e.redMu.Lock()
	defer e.redMu.Unlock()
	if m, ok := e.reds[key]; ok {
		return m
	}
	slo, ok := e.slos[key.tenant]
	if !ok {
		slo = obs.NewSLO(reg, fmt.Sprintf("%s_slo_burn_rate_permille{tenant=%q}", e.cfg.Metrics, key.tenant),
			e.cfg.SLOTarget, e.cfg.SLOObjective)
		e.slos[key.tenant] = slo
	}
	m = obs.NewRED(reg, e.cfg.Metrics+"_http", route, key.tenant, slo)
	e.reds[key] = m
	return m
}

// ClientIdentity resolves who is calling, for rate limiting and quotas.
//
// With auth tokens configured the identity is spoof-proof: it is the
// name mapped from the Authorization bearer token, and requests without
// a known token are refused with 401 — the X-Pace-Client header is
// ignored entirely. Without tokens the header is trusted, falling back
// to the peer host.
func (e *Edge) ClientIdentity(w http.ResponseWriter, r *http.Request) (string, bool) {
	if len(e.cfg.AuthTokens) > 0 {
		tok, ok := bearerToken(r)
		msg := "missing Authorization: Bearer token"
		if ok {
			name, known := e.cfg.AuthTokens[tok]
			if known {
				return name, true
			}
			msg = "unknown bearer token"
		}
		e.unauthorized.Inc()
		w.Header().Set("WWW-Authenticate", fmt.Sprintf("Bearer realm=%q", e.cfg.Realm))
		WriteError(w, http.StatusUnauthorized, wire.CodeUnauthorized, msg)
		return "", false
	}
	if c := r.Header.Get(ClientHeader); c != "" {
		return c, true
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host, true
	}
	return r.RemoteAddr, true
}

func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(auth[len(prefix):]), true
}

// DecodeRequest decodes a JSON control-plane body into dst, refusing
// unknown fields and any protocol version but wire.Version with 400
// bad_request.
func (e *Edge) DecodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "malformed body: "+err.Error())
		return false
	}
	var v int
	switch req := dst.(type) {
	case *wire.CreateTargetRequest:
		v = req.V
	case *wire.OpenExecutionRequest:
		v = req.V
	}
	if v != wire.Version {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("protocol version %d, %s speaks %d", v, e.cfg.Speaker, wire.Version))
		return false
	}
	return true
}

// ReadBody slurps a bounded request body, answering 400 when it cannot.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	return raw, true
}

// WriteError answers a wire.ErrorResponse.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, wire.ErrorResponse{V: wire.Version, Code: code, Error: msg})
}

// WriteJSON answers body as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client hang-ups are its problem
}

// Drain flips the edge into draining for good; it reports whether this
// call did the flip, so shutdown work runs once.
func (e *Edge) Drain() bool { return !e.draining.Swap(true) }

// Draining reports whether Drain was called.
func (e *Edge) Draining() bool { return e.draining.Load() }

// RefuseDraining answers 503 draining once the edge drains, reporting
// whether it did.
func (e *Edge) RefuseDraining(w http.ResponseWriter) bool {
	if !e.Draining() {
		return false
	}
	WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, e.cfg.Speaker+" draining")
	return true
}

// WriteHealthz answers a /healthz probe with resp, or with status
// "draining" and 503 once the edge drains, so load balancers stop
// routing.
func (e *Edge) WriteHealthz(w http.ResponseWriter, resp wire.HealthzResponse) {
	status := http.StatusOK
	if e.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// Start binds addr (host:port; port 0 picks an ephemeral one) and
// serves h in the background. It returns the bound address.
func (e *Edge) Start(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	e.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go e.httpSrv.Serve(ln) //nolint:errcheck // Serve always errors on Shutdown
	return ln.Addr().String(), nil
}

// Shutdown stops the listener Start opened, letting in-flight requests
// finish within ctx. Without a listener it does nothing.
func (e *Edge) Shutdown(ctx context.Context) error {
	if e.httpSrv == nil {
		return nil
	}
	return e.httpSrv.Shutdown(ctx)
}

// Kill closes the listener and tears down in-flight connections with
// no drain.
func (e *Edge) Kill() {
	if e.httpSrv != nil {
		e.httpSrv.Close() //nolint:errcheck // abrupt death: errors are the point
	}
}
