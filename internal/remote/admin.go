package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"pace/internal/wire"
)

// Admin drives a paced host's tenant admin surface: provisioning,
// listing and destroying targets at runtime. It shares the error
// taxonomy of RemoteTarget (429 → ErrOverloaded, other 4xx →
// ce.ErrInvalidQuery, 5xx/network → ErrUnavailable) so callers can reuse
// the same retry policies.
type Admin struct {
	t *RemoteTarget // the shared exchange, classification and counters
}

// Close releases pooled connections.
func (a *Admin) Close() { a.t.Close() }

// CreateTarget provisions a tenant and blocks until its world is trained
// (pass a generous ctx — model training can take minutes).
func (a *Admin) CreateTarget(ctx context.Context, spec wire.TargetSpec) (wire.TargetInfo, error) {
	req := wire.CreateTargetRequest{V: wire.Version, Target: spec}
	var resp wire.CreateTargetResponse
	if err := a.do(ctx, http.MethodPost, "/v1/targets", req, &resp); err != nil {
		return wire.TargetInfo{}, err
	}
	return resp.Target, nil
}

// DeleteTarget drains and removes a tenant.
func (a *Admin) DeleteTarget(ctx context.Context, id string) error {
	var resp wire.DeleteTargetResponse
	return a.do(ctx, http.MethodDelete, "/v1/targets/"+url.PathEscape(id), nil, &resp)
}

// ListTargets snapshots the host's tenant directory.
func (a *Admin) ListTargets(ctx context.Context) ([]wire.TargetInfo, error) {
	var resp wire.ListTargetsResponse
	if err := a.do(ctx, http.MethodGet, "/v1/targets", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Targets, nil
}

// Healthz reports the host's overall status and each tenant's state.
func (a *Admin) Healthz(ctx context.Context) (wire.HealthzResponse, error) {
	var resp wire.HealthzResponse
	err := a.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}

// WaitReady polls until the named tenant reports ready, the deadline
// passes, or ctx dies — the harness-side barrier between provisioning a
// tenant and attacking it.
func (a *Admin) WaitReady(ctx context.Context, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hz, err := a.Healthz(ctx)
		if err == nil && hz.Tenants[id] == "ready" {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			state := hz.Tenants[id]
			if state == "" {
				state = "absent"
			}
			return fmt.Errorf("%w: tenant %s still %s after %v", ErrUnavailable, id, state, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (a *Admin) do(ctx context.Context, method, path string, body, dst any) error {
	var payload []byte
	contentType := ""
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("remote: encode: %w", err)
		}
		contentType = wire.JSONContentType
	}
	raw, _, err := a.t.roundTrip(ctx, method, path, contentType, nil, payload, http.StatusOK)
	// /healthz deliberately answers 503 with a valid body while draining;
	// surface the body when it decodes, the classified error otherwise.
	if err != nil && !(strings.HasSuffix(path, "/healthz") && json.Valid(raw) && !bytes.Contains(raw, []byte(`"code"`))) {
		return err
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		a.t.unavailableCount.Add(1)
		return fmt.Errorf("%w: malformed response: %v", ErrUnavailable, err)
	}
	return nil
}
