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
// Every upstream call is one RoundTrip on the configured transport, with
// no http.Client in between: a POST to a URL parsed once in New, under one
// deadline (Config.Timeout) that covers the response body too, and a
// redirect is relayed as it is, never followed.
//
// POST /v1/sweep splits a plan by key owner, streams per-backend
// sub-sweeps concurrently, and re-interleaves the NDJSON lines back into
// request order, byte-identical to what a single backend would have
// produced. Responses are relayed with their body bytes untouched, and
// backend backpressure (429 + Retry-After) passes through unchanged.
// cmd/dsmrouter wires a Router to a listener.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
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
	// Timeout is the deadline of one upstream call, from sending the
	// request to the last byte of the response body (for a sweep, the
	// whole stream). 0 selects 60s — above the backends' own 30s
	// simulation deadline, so a backend answers its own 504 before the
	// router gives up on it. A redirect is relayed, never followed.
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
	backs   []backend
	met     metrics
	closing atomic.Bool
}

// backend is one upstream server: its endpoint URLs, parsed once, the
// X-Fleet-Backend value its relayed responses carry, and the count of
// calls made to it.
type backend struct {
	sim, probe, sweep *url.URL
	name              []string
	calls             atomic.Uint64
}

// New builds a router over the configured backends. It keeps its own
// copy of the backend list; the caller's slice is not modified.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	backs := make([]backend, len(cfg.Backends))
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
		// b parsed above, and a URL stays valid with a path or query appended.
		endpoint := func(path string) *url.URL { e, _ := url.Parse(b + path); return e }
		backs[i] = backend{
			sim:   endpoint("/v1/sim"),
			probe: endpoint("/v1/sim?probe=1"),
			sweep: endpoint("/v1/sweep"),
			name:  []string{b},
		}
	}
	cfg.Backends = backends
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	return &Router{
		cfg:   cfg,
		ring:  newRing(cfg.Backends),
		backs: backs,
	}, nil
}

// Handler returns the router's HTTP handler. Like a backend's, it
// dispatches on the exact request path: "/v1//sim" and "/v1/sim/" answer
// 404, as they do from a dsmserve.
func (rt *Router) Handler() http.Handler { return http.HandlerFunc(rt.route) }

func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/sim":
		rt.handleSim(w, r)
	case "/v1/sweep":
		rt.handleSweep(w, r)
	case "/metrics":
		rt.handleMetrics(w, r)
	case "/healthz":
		rt.handleHealthz(w, r)
	default:
		http.NotFound(w, r)
	}
}

// Metrics returns a point-in-time snapshot of the router counters.
func (rt *Router) Metrics() Snapshot {
	snap := rt.met.snapshot()
	snap.Backends = len(rt.cfg.Backends)
	snap.BackendRequests = make([]uint64, len(rt.backs))
	for i := range rt.backs {
		snap.BackendRequests[i] = rt.backs[i].calls.Load()
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

// Upstream request headers, shared read-only by every upstream call (a
// RoundTripper must not modify its request). Accept-Encoding is always
// explicit: that keeps the transport's transparent gzip handling, which
// would decompress (and strip the Content-Encoding from) backend responses
// the router means to relay compressed, out of the path.
var (
	hdrIdentity = http.Header{"Content-Type": {"application/json"}, "Accept-Encoding": {"identity"}}
	hdrGzip     = http.Header{"Content-Type": {"application/json"}, "Accept-Encoding": {"gzip"}}
)

// reqBody is an upstream request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// roundTrip POSTs body to u on backend b through the configured transport,
// under ctx and a deadline of Config.Timeout. It returns the response with
// the deadline's cancel, which the caller calls once it has read or
// streamed the body; on error the deadline is already released. GetBody
// lets the transport resend a request it had not yet written on a reused
// connection, as it does for http.NewRequest's bodies. A transport error
// is wrapped as http.Client wraps it, with the method and URL.
func (rt *Router) roundTrip(ctx context.Context, b int, u *url.URL, body []byte, hdr http.Header) (*http.Response, context.CancelFunc, error) {
	rt.backs[b].calls.Add(1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	rd := &reqBody{}
	rd.Reset(body)
	req := http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Header:        hdr,
		Body:          rd,
		ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) {
			rd := &reqBody{}
			rd.Reset(body)
			return rd, nil
		},
	}
	resp, err := rt.cfg.Transport.RoundTrip(req.WithContext(ctx))
	if err != nil {
		cancel()
		rt.met.upstreamEr.Add(1)
		return nil, nil, &url.Error{Op: "Post", URL: u.String(), Err: err}
	}
	return resp, cancel, nil
}
