// Package fleet is the horizontal-scale tier over internal/serve: a
// front-door HTTP router that spreads the content-addressed spec keyspace
// across N dsmserve backends with a consistent-hash ring (virtual nodes,
// bounded remap on membership change). Each /v1/sim request costs one
// upstream call to the key's owner, whose own result cache answers hits;
// the router adds only fleet-wide single-flight on top, with the same
// serve.Flight the backends use: concurrent identical requests through the
// router elect one leader, one request goes upstream, and followers share
// its response bytes. The leader reads each upstream body into a pooled
// buffer and recycles it only when Flight.Complete reports no followers.
// Unlike the sweep paths, which take milliseconds per point and pool
// nothing, this relay pool pays: every routed request reads a body.
//
// POST /v1/sweep splits a plan by key owner, streams per-backend
// sub-sweeps concurrently, and re-interleaves the NDJSON lines back into
// request order, byte-identical to what a single backend would have
// produced. Responses are relayed with their body bytes untouched, and
// backend backpressure (429 + Retry-After) passes through unchanged.
// cmd/dsmrouter wires a Router to a listener.
package fleet

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"dsm/internal/serve"
)

// Config describes the fleet the router fronts.
type Config struct {
	// Backends is the static list of dsmserve base URLs, e.g.
	// "http://10.0.0.1:8080". Required, order-insensitive for placement
	// (the ring hashes the URL strings).
	Backends []string
	// Timeout is the per-upstream-request budget. 0 selects 60s — above
	// the backends' own 30s simulation deadline, so a backend answers its
	// own 504 before the router gives up on it.
	Timeout time.Duration
	// Transport overrides the upstream HTTP transport (tests and the
	// in-process fleet benchmark inject handler-backed transports).
	// nil selects http.DefaultTransport.
	Transport http.RoundTripper
}

// Router is the front door: an http.Handler exposing the same /v1 surface
// as a single dsmserve, routing each request to the fleet behind it.
type Router struct {
	cfg     Config
	ring    *ring
	flight  serve.Flight[*upstream]
	client  *http.Client
	met     metrics
	mux     *http.ServeMux
	perBack []atomic.Uint64
	closing atomic.Bool
}

// New builds a router over the configured backends. It keeps its own
// copy of the backend list; the caller's slice is not modified.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	seen := make(map[string]bool, len(backends))
	for i, b := range cfg.Backends {
		b = strings.TrimSuffix(b, "/")
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: backend %q is not a base URL", cfg.Backends[i])
		}
		if seen[b] {
			return nil, fmt.Errorf("fleet: duplicate backend %q", b)
		}
		seen[b] = true
		backends[i] = b
	}
	cfg.Backends = backends
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	rt := &Router{
		cfg:     cfg,
		ring:    newRing(cfg.Backends),
		client:  &http.Client{Transport: cfg.Transport, Timeout: cfg.Timeout},
		mux:     http.NewServeMux(),
		perBack: make([]atomic.Uint64, len(cfg.Backends)),
	}
	rt.mux.HandleFunc("/v1/sim", rt.handleSim)
	rt.mux.HandleFunc("/v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Owner returns the base URL of the backend owning key — exported for
// tests and operational tooling that need to see the routing decision the
// ring makes.
func (rt *Router) Owner(key string) string {
	return rt.cfg.Backends[rt.ring.owner(key)]
}

// Metrics returns a point-in-time snapshot of the router counters.
func (rt *Router) Metrics() Snapshot {
	snap := rt.met.snapshot()
	snap.Backends = len(rt.cfg.Backends)
	snap.BackendRequests = make([]uint64, len(rt.perBack))
	for i := range rt.perBack {
		snap.BackendRequests[i] = rt.perBack[i].Load()
	}
	return snap
}

// Close marks the router draining: /healthz flips to 503 and new routing
// requests are refused. In-flight relays finish on their own; the HTTP
// listener's Shutdown provides the actual drain barrier.
func (rt *Router) Close() { rt.closing.Store(true) }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.closing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
