package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pace/internal/obs"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// edgeFront is one HTTP front (paced or pacerouter) under test, with the
// names its telemetry and auth challenge carry.
type edgeFront struct {
	name    string
	handler http.Handler
	reg     *obs.Registry
	realm   string
	metrics string // metric family prefix: "paced" or "router"
}

// edgeFronts builds a paced host and a pacerouter in front of a second
// (token-free) paced backend. Both fronts get the same auth tokens and
// their own metrics registry.
func edgeFronts(t *testing.T, tokens map[string]string) []edgeFront {
	t.Helper()
	pacedReg := obs.NewRegistry()
	cfg := targetserver.Config{Factory: seqFactory, AuthTokens: tokens, Telemetry: &obs.Telemetry{Reg: pacedReg}}
	paced := targetserver.NewMulti(tenant.NewRegistry(cfg.Factory, cfg.TenantConfig()), cfg)
	t.Cleanup(func() { paced.Close() }) //nolint:errcheck

	bcfg := targetserver.Config{Factory: seqFactory}
	backend := targetserver.NewMulti(tenant.NewRegistry(bcfg.Factory, bcfg.TenantConfig()), bcfg)
	hs := httptest.NewServer(backend.Handler())
	t.Cleanup(func() {
		hs.Close()
		backend.Close() //nolint:errcheck
	})
	routerReg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:   []string{hs.URL},
		AuthTokens: tokens,
		Telemetry:  &obs.Telemetry{Reg: routerReg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() }) //nolint:errcheck

	return []edgeFront{
		{name: "paced", handler: paced.Handler(), reg: pacedReg, realm: "paced", metrics: "paced"},
		{name: "pacerouter", handler: rt.Handler(), reg: routerReg, realm: "pacerouter", metrics: "router"},
	}
}

// serve runs one request through h in process.
func serve(h http.Handler, method, path, body, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestEdgeParity runs the same edge cases against paced and pacerouter:
// both fronts must authenticate, decode and answer unknown tenants the
// same way, differing only in their realm and metric names.
func TestEdgeParity(t *testing.T) {
	const token = "s3cret"
	estimate := mustJSON(t, wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}})
	cases := []struct {
		name         string
		method, path string
		body         string
		token        string
		status       int
		code         string
		unauthorized bool
	}{
		{name: "missing token", method: http.MethodPost, path: "/v1/targets/a/estimate", body: estimate,
			status: http.StatusUnauthorized, code: wire.CodeUnauthorized, unauthorized: true},
		{name: "unknown token", method: http.MethodPost, path: "/v1/targets/a/estimate", body: estimate, token: "wrong",
			status: http.StatusUnauthorized, code: wire.CodeUnauthorized, unauthorized: true},
		{name: "admin missing token", method: http.MethodGet, path: "/v1/targets",
			status: http.StatusUnauthorized, code: wire.CodeUnauthorized, unauthorized: true},
		{name: "wrong protocol version", method: http.MethodPost, path: "/v1/targets", token: token,
			body:   mustJSON(t, wire.CreateTargetRequest{V: wire.Version + 98, Target: wire.TargetSpec{ID: "v"}}),
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "malformed body", method: http.MethodPost, path: "/v1/targets", token: token, body: "{not json",
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "unknown tenant", method: http.MethodPost, path: "/v1/targets/nope/estimate", body: estimate, token: token,
			status: http.StatusNotFound, code: wire.CodeUnknownTarget},
	}
	for _, front := range edgeFronts(t, map[string]string{token: "alice"}) {
		for _, tc := range cases {
			t.Run(front.name+"/"+tc.name, func(t *testing.T) {
				unauth := front.metrics + "_unauthorized_total"
				before := front.reg.Snapshot().Counters[unauth]
				rec := serve(front.handler, tc.method, tc.path, tc.body, tc.token)
				if rec.Code != tc.status {
					t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body)
				}
				var er wire.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
					t.Fatalf("error body %q: %v", rec.Body, err)
				}
				if er.Code != tc.code || er.V != wire.Version {
					t.Errorf("error = %+v, want code %q at v%d", er, tc.code, wire.Version)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q", ct)
				}
				challenge := rec.Header().Get("WWW-Authenticate")
				delta := front.reg.Snapshot().Counters[unauth] - before
				if tc.unauthorized {
					if want := fmt.Sprintf("Bearer realm=%q", front.realm); challenge != want {
						t.Errorf("WWW-Authenticate %q, want %q", challenge, want)
					}
					if delta != 1 {
						t.Errorf("%s moved by %d, want 1", unauth, delta)
					}
				} else if challenge != "" || delta != 0 {
					t.Errorf("authorized request challenged (%q) or counted (%d)", challenge, delta)
				}
			})
		}
	}
}

// TestUnknownTenantSeriesBounded: requests for tenant ids the front does
// not know — random ids answered 404, and unauthenticated requests
// rejected before the id is resolved — share one fixed tenant label, so
// probing random ids cannot grow the metrics registry without bound.
func TestUnknownTenantSeriesBounded(t *testing.T) {
	const token = "s3cret"
	estimate := mustJSON(t, wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}})
	rng := rand.New(rand.NewSource(1))
	for _, front := range edgeFronts(t, map[string]string{token: "alice"}) {
		t.Run(front.name, func(t *testing.T) {
			series := func() (reqs, slos int) {
				s := front.reg.Snapshot()
				for name := range s.Counters {
					if strings.HasPrefix(name, front.metrics+"_http_requests_total") {
						reqs++
					}
				}
				for name := range s.Gauges {
					if strings.HasPrefix(name, front.metrics+"_slo_burn_rate_permille") {
						slos++
					}
				}
				return reqs, slos
			}
			reqs0, slos0 := series()
			for i := 0; i < 500; i++ {
				tok := token
				if i%5 == 0 {
					tok = "" // rejected with 401 before resolution
				}
				path := fmt.Sprintf("/v1/targets/r%016x/estimate", rng.Uint64())
				rec := serve(front.handler, http.MethodPost, path, estimate, tok)
				if rec.Code != http.StatusNotFound && rec.Code != http.StatusUnauthorized {
					t.Fatalf("random id: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
				}
			}
			reqs1, slos1 := series()
			if reqs1-reqs0 > 1 {
				t.Errorf("500 random-id estimates added %d request series, want ≤ 1", reqs1-reqs0)
			}
			if slos1-slos0 > 1 {
				t.Errorf("500 random-id estimates added %d SLO gauges, want ≤ 1", slos1-slos0)
			}

			// A tenant that existed keeps its labeled series after deletion.
			create := mustJSON(t, wire.CreateTargetRequest{V: wire.Version, Target: wire.TargetSpec{ID: "kept"}})
			for _, step := range []struct {
				method, path, body string
				status             int
			}{
				{http.MethodPost, "/v1/targets", create, http.StatusOK},
				{http.MethodPost, "/v1/targets/kept/estimate", estimate, http.StatusOK},
				{http.MethodDelete, "/v1/targets/kept", "", http.StatusOK},
				{http.MethodPost, "/v1/targets/kept/estimate", estimate, http.StatusNotFound},
			} {
				if rec := serve(front.handler, step.method, step.path, step.body, token); rec.Code != step.status {
					t.Fatalf("%s %s: status %d, want %d (%s)", step.method, step.path, rec.Code, step.status, rec.Body)
				}
			}
			kept := front.metrics + `_http_requests_total{route="estimate",tenant="kept"}`
			if n := front.reg.Snapshot().Counters[kept]; n != 2 {
				t.Errorf("%s = %d after delete, want 2", kept, n)
			}
		})
	}
}
