package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pace/internal/ce"
	"pace/internal/experiments"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// tenantID is the one tenant each fleet hosts.
const tenantID = "bench"

// fleet is one in-process serving stack on loopback, built from the
// constructors cmd/paced and cmd/pacerouter use: a tenant registry over
// experiments.TenantFactory behind targetserver.NewMulti (the paced
// host), fronted by router.New (the pacerouter), reached through a
// remote.Client whose HTTP client caps connections.
type fleet struct {
	srv     *targetserver.Server
	backend *http.Server
	rt      *router.Router
	front   *http.Server
	httpc   *http.Client
	client  *remote.Client
	url     string
	meta    *query.Meta
	reg     *obs.Registry // tenant instruments; traced runs only
}

// startFleet boots the stack and provisions spec through the router,
// returning once the tenant is trained and ready. rec, when non-nil,
// installs the timing hooks: a ce.Target wrapper from the factory, a
// span around the paced and router handlers, and a timed transport in
// the router's backend client.
func startFleet(ctx context.Context, spec wire.TargetSpec, conns int, rec *recorder) (f *fleet, err error) {
	base := experiments.TenantFactory(experiments.Config{Seed: spec.Seed}.WithDefaults())
	factory := base
	cfg := targetserver.Config{}
	f = &fleet{}
	if rec != nil {
		factory = func(ctx context.Context, s tenant.Spec) (ce.Target, *query.Meta, error) {
			t, m, err := base(ctx, s)
			if err != nil {
				return nil, nil, err
			}
			return timedTarget{Target: t, rec: rec}, m, nil
		}
		f.reg = obs.NewRegistry()
		cfg.Telemetry = &obs.Telemetry{Reg: f.reg}
	}
	cfg.Factory = factory
	reg := tenant.NewRegistry(factory, cfg.TenantConfig())
	f.srv = targetserver.NewMulti(reg, cfg)
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	var h http.Handler = f.srv.Handler()
	if rec != nil {
		h = timedHandler(rec, "targetserver.handler", true, h)
	}
	backendURL, bs, err := serve(h)
	if err != nil {
		return f, err
	}
	f.backend = bs

	rcfg := router.Config{Backends: []string{backendURL}}
	if rec != nil {
		rcfg.Client = &http.Client{Transport: timedTransport{rec: rec, base: http.DefaultTransport}}
	}
	if f.rt, err = router.New(rcfg); err != nil {
		return f, fmt.Errorf("router: %w", err)
	}
	h = f.rt.Handler()
	if rec != nil {
		h = timedHandler(rec, "router.handler", false, h)
	}
	if f.url, f.front, err = serve(h); err != nil {
		return f, err
	}

	f.httpc = loopbackClient(conns)
	if f.client, err = remote.NewClient(f.url, remote.Options{Client: f.httpc, ClientID: "perfbench"}); err != nil {
		return f, err
	}
	admin := f.client.Admin()
	if _, err := admin.CreateTarget(ctx, spec); err != nil {
		return f, fmt.Errorf("provisioning %s: %w", spec.ID, err)
	}
	if err := admin.WaitReady(ctx, spec.ID, time.Minute); err != nil {
		return f, err
	}
	t, err := reg.Get(spec.ID)
	if err != nil {
		return f, err
	}
	f.meta = t.Meta()
	return f, nil
}

// serve runs h on an ephemeral loopback port.
func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) //nolint:errcheck // Serve always errors on Shutdown
	return "http://" + ln.Addr().String(), hs, nil
}

// close stops the stack front to back once its traffic is over and
// waits for every server and tenant goroutine to finish. The listeners
// close outright: a graceful http.Server.Shutdown would wait seconds for
// connections a client dialed but never used.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if f.client != nil {
		f.client.Close()
	}
	if f.front != nil {
		errs = append(errs, f.front.Close())
	}
	if f.rt != nil {
		errs = append(errs, f.rt.Shutdown(ctx))
	}
	if f.backend != nil {
		errs = append(errs, f.backend.Close())
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// target is a data-path view of the tenant that identifies itself as
// request req, so every layer can attribute its work to the request.
func (f *fleet) target(req int64) *remote.RemoteTarget {
	return f.client.TargetAs(tenantID, reqClientID(req))
}

// batchClient is a second client over the same capped connection pool
// whose targets coalesce concurrent single-query estimates into one
// wire request of up to wire.MaxBatch queries.
func (f *fleet) batchClient(window time.Duration) (*remote.Client, error) {
	return remote.NewClient(f.url, remote.Options{Client: f.httpc, ClientID: "perfbench", CoalesceWindow: window})
}
