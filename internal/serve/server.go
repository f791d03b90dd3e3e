package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dsm/internal/exper"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of goroutines running simulations
	// concurrently. 0 selects GOMAXPROCS. Simulations are CPU-bound, so
	// more workers than cores buys queueing, not throughput.
	Workers int
	// Queue bounds how many accepted simulations may wait for a worker.
	// Beyond it the service answers 429 + Retry-After. 0 selects 64.
	Queue int
	// CacheEntries bounds the result cache (LRU beyond it). 0 selects 1024.
	CacheEntries int
	// Timeout is the per-request deadline covering queue wait plus
	// simulation; expiry answers 504. 0 selects 30s.
	Timeout time.Duration
}

// Server is the simulation service: an http.Handler plus the worker pool,
// result cache, and single-flight group behind it.
type Server struct {
	cfg     Config
	cache   *resultCache
	flight  *flightGroup
	pool    *workerPool
	met     metrics
	mux     *http.ServeMux
	closing atomic.Bool
}

// New builds a server. Call Close to drain it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	s := &Server{
		cfg:    cfg,
		cache:  newResultCache(cfg.CacheEntries),
		flight: newFlightGroup(),
		pool:   newWorkerPool(cfg.Workers, cfg.Queue),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/sim", s.handleSim)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a point-in-time snapshot of the service counters.
func (s *Server) Metrics() Snapshot {
	snap := s.met.snapshot()
	snap.CacheEntries, snap.CacheEvictions, snap.CacheShards = s.cache.stats()
	snap.FlightShards = len(s.flight.shards)
	snap.QueueDepth = s.pool.depth()
	snap.Workers = s.cfg.Workers
	return snap
}

// Close drains the worker pool: queued simulations complete, their waiters
// get responses, and Close returns once the workers have exited. The HTTP
// listener must already have stopped dispatching new requests (e.g. via
// http.Server.Shutdown) — new arrivals during the drain are answered 503,
// but requests already past that check may not be.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	s.pool.close()
}

// ------------------------------------------------------------ handlers --

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost && r.Method != http.MethodHead {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET with query parameters or POST with a JSON spec")
		return
	}
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	start := time.Now()
	spec, err := ParseSpecRequest(r)
	if err == nil {
		spec, err = spec.Normalize()
	}
	if err != nil {
		s.met.badRequest.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The key lives in a stack buffer until a miss forces a string: the
	// hit path (cache probe, entry lookup, response headers) never needs
	// one — getBytes indexes the shard map straight from these bytes and
	// the entry carries its own key string for the X-Spec-Key header.
	var kb [64]byte
	key := spec.appendKey(kb[:0])

	// Probe mode (HEAD, or ?probe=1 on GET/POST): answer from the result
	// cache only, never simulating and never touching the queue. A hit is
	// the normal 200 response (HEAD drops the body); a miss is 404 with
	// X-Cache: miss. Clients ask "do you have this?" here without paying
	// for a simulation (the fleet router relays probes to a key's owner),
	// so a probe miss must stay O(cache lookup).
	if probe, _ := rawQueryGet(r.URL.RawQuery, "probe"); r.Method == http.MethodHead || probe == "1" {
		s.met.probes.Add(1)
		e, ok := s.cache.getBytes(key)
		if !ok {
			h := w.Header()
			h["X-Cache"] = hdrMiss
			h["X-Spec-Key"] = []string{string(key)}
			if r.Method == http.MethodHead {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			s.writeError(w, http.StatusNotFound, "not cached")
			return
		}
		s.met.probeHits.Add(1)
		s.writeEntry(w, r, e, hdrHit)
		return
	}
	s.met.requests.Add(1)

	// Fast path: a cache hit writes the entry's stored bytes straight to
	// the response — no key string, no header formatting, no copies.
	if e, ok := s.cache.getBytes(key); ok {
		s.met.hits.Add(1)
		s.writeEntry(w, r, e, hdrHit)
		s.met.latency.observe(time.Since(start))
		return
	}

	keyStr := string(key)
	e, call, state := s.start(spec, keyStr, 0)
	switch state {
	case dispatchHit: // filled between the fast-path lookup and dispatch
		s.met.hits.Add(1)
		s.writeEntry(w, r, e, hdrHit)
		s.met.latency.observe(time.Since(start))
		return
	case dispatchMiss:
		s.met.misses.Add(1)
	case dispatchCoalesced:
		s.met.coalesced.Add(1)
	}

	deadline := time.NewTimer(s.cfg.Timeout)
	defer deadline.Stop()
	select {
	case <-call.done:
	case <-deadline.C:
		s.met.timeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("deadline of %s exceeded (queue wait + simulation)", s.cfg.Timeout))
		return
	case <-r.Context().Done():
		// Client gone; nothing useful to write.
		return
	}
	switch {
	case call.err == errBusy:
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("simulation queue full (%d queued); retry shortly", s.cfg.Queue))
	case call.err != nil:
		s.met.errors.Add(1)
		s.writeError(w, http.StatusInternalServerError, call.err.Error())
	default:
		label := "miss"
		if state == dispatchCoalesced {
			label = "coalesced"
		}
		s.writeOutcome(w, call.data, label, keyStr, start)
	}
}

// dispatchState classifies how start resolved a spec: already cached,
// newly dispatched to the worker pool, or merged into an in-flight
// identical simulation.
type dispatchState uint8

const (
	dispatchHit dispatchState = iota
	dispatchMiss
	dispatchCoalesced
)

// start resolves one canonical spec without blocking on the simulation:
// a cache hit returns the stored entry directly; otherwise the caller
// gets the single-flight call to wait on. On a miss this caller's spec is
// submitted to the worker pool, waiting up to queueWait for space (a still
// full queue fails the call with errBusy, releasing any followers that
// joined meanwhile); /v1/sim passes zero and turns errBusy into its 429.
// Both the single-sim and the batch sweep handlers dispatch through here,
// so they share one cache and one in-flight set — a sweep point coalesces
// with a concurrent /v1/sim request for the same spec and vice versa.
func (s *Server) start(spec Spec, key string, queueWait time.Duration) (*cacheEntry, *flightCall, dispatchState) {
	if e, ok := s.cache.get(key); ok {
		return e, nil, dispatchHit
	}
	call, leader := s.flight.join(key)
	if !leader {
		return nil, call, dispatchCoalesced
	}
	if !s.pool.submitWait(func(slot *exper.MachineSlot) {
		data, err := s.runEncoded(spec, slot)
		if err == nil {
			s.cache.put(key, data)
		}
		s.flight.complete(key, call, data, err)
	}, queueWait) {
		s.flight.complete(key, call, nil, errBusy)
	}
	return nil, call, dispatchMiss
}

// runEncoded executes the spec on the worker's machine slot and returns
// its canonical JSON bytes, converting a panic anywhere under the
// simulator into an error so one bad run cannot take down a worker. A
// panicked run leaves the slot's machine in an unknown state, so the slot
// is cleared and the next job on this worker builds a fresh machine.
func (s *Server) runEncoded(spec Spec, slot *exper.MachineSlot) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			*slot = exper.MachineSlot{}
			err = fmt.Errorf("simulation failed: %v", r)
		}
	}()
	s.met.runs.Add(1)
	return RunOn(spec, slot).Encode()
}

var errBusy = fmt.Errorf("queue full")

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// ------------------------------------------------------------ encoding --

// Static header value slices, assigned directly into response header maps.
// Header().Set allocates a fresh []string per call; these are built once
// and shared across all responses — safe because nothing ever mutates a
// header value slice, only the maps that point at them.
var (
	hdrJSON           = []string{"application/json"}
	hdrNDJSON         = []string{"application/x-ndjson"}
	hdrHit            = []string{"hit"}
	hdrMiss           = []string{"miss"}
	hdrGzip           = []string{"gzip"}
	hdrAcceptEncoding = []string{"Accept-Encoding"}
)

// writeEntry answers a request from a cached entry: the entry's gzip
// variant when the client accepts gzip and the body compresses, the
// identity bytes otherwise. Every header value is a preassembled slice
// (the key header lives on the entry) and the body is the cache's own
// storage handed to the ResponseWriter — the serve layer neither formats
// nor copies a byte, which is what pins the hit path at zero allocations
// once the entry's first gzip hit has built its variant.
func (s *Server) writeEntry(w http.ResponseWriter, r *http.Request, e *cacheEntry, cache []string) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h["X-Cache"] = cache
	h["X-Spec-Key"] = e.keyHdr
	body := e.data
	if len(e.data) >= minGzipSize {
		// The representation varies with the request even when only one
		// is ever sent, so caches must key on Accept-Encoding.
		h["Vary"] = hdrAcceptEncoding
		if AcceptsGzip(r) {
			if gz := e.gzip(); gz != nil {
				h["Content-Encoding"] = hdrGzip
				body = gz
			}
		}
	}
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(body)
}

// AcceptsGzip reports whether the request advertises gzip support under
// RFC 9110: a token scan over Accept-Encoding values rather than a full
// quality-value parse. "gzip", or its alias "x-gzip", in any letter case,
// counts as a listed coding unless it carries an explicit zero quality
// ("gzip;q=0", "GZIP; Q=0.0"), which covers every encoding real clients
// send without allocating. Exported so the fleet router negotiates content
// codings exactly the way the backends it fronts do.
func AcceptsGzip(r *http.Request) bool {
	for _, v := range r.Header["Accept-Encoding"] {
		for len(v) > 0 {
			var item string
			if i := strings.IndexByte(v, ','); i >= 0 {
				item, v = v[:i], v[i+1:]
			} else {
				item, v = v, ""
			}
			name, params, _ := strings.Cut(item, ";")
			name = strings.TrimSpace(name)
			if !strings.EqualFold(name, "gzip") && !strings.EqualFold(name, "x-gzip") {
				continue
			}
			return !zeroQ(params)
		}
	}
	return false
}

// zeroQ reports whether an Accept-Encoding parameter string sets an
// explicit zero quality (q=0, Q=0.0, ...), the RFC 9110 way to refuse a
// coding by name.
func zeroQ(params string) bool {
	p := strings.TrimSpace(params)
	if len(p) < len("q=0") || (p[0] != 'q' && p[0] != 'Q') || p[1:3] != "=0" {
		return false
	}
	for _, c := range p[len("q=0"):] {
		if c >= '1' && c <= '9' {
			return false
		}
		if c != '.' && c != '0' {
			break
		}
	}
	return true
}

func (s *Server) writeOutcome(w http.ResponseWriter, data []byte, cache, key string, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Spec-Key", key)
	w.Write(data)
	s.met.latency.observe(time.Since(start))
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ParseSpecRequest decodes a spec from a POST JSON body or GET/HEAD query
// parameters (app, policy, prim, cas, ldex, drop, procs, c, a, rounds,
// size, seed — mirroring the cmd/dsmsim flags). Exported so the fleet
// router parses requests exactly the way the backends it fronts do; the
// result still needs Normalize before Key or Point.
func ParseSpecRequest(r *http.Request) (Spec, error) {
	if r.Method == http.MethodPost {
		return parseSpecBody(r)
	}
	var sp Spec
	// The query is scanned in place (rawQueryGet) rather than parsed into
	// url.Values: building the Values map costs several allocations per
	// request, which would dominate a cache-hit GET. Values are substrings
	// of RawQuery unless a pair actually carries %-escapes. The field
	// helpers are top-level functions, not closures — calls through a
	// func-typed variable make escape analysis treat &sp.Field as escaping,
	// which would heap-allocate the spec on every GET.
	raw := r.URL.RawQuery
	sp.App, _ = rawQueryGet(raw, "app")
	sp.Policy, _ = rawQueryGet(raw, "policy")
	sp.Prim, _ = rawQueryGet(raw, "prim")
	sp.Variant, _ = rawQueryGet(raw, "cas")
	var err error
	queryInt(raw, "procs", &sp.Procs, &err)
	queryInt(raw, "c", &sp.Contention, &err)
	queryInt(raw, "rounds", &sp.Rounds, &err)
	queryInt(raw, "size", &sp.Size, &err)
	queryBool(raw, "ldex", &sp.LoadEx, &err)
	queryBool(raw, "drop", &sp.Drop, &err)
	if v, ok := rawQueryGet(raw, "a"); err == nil && ok {
		if sp.WriteRun, err = strconv.ParseFloat(v, 64); err != nil {
			err = fmt.Errorf("bad a %q", v)
		}
	}
	if v, ok := rawQueryGet(raw, "seed"); err == nil && ok {
		if sp.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			err = fmt.Errorf("bad seed %q", v)
		}
	}
	return sp, err
}

// queryInt parses an optional integer query parameter into dst, recording
// the first failure in *err and leaving dst untouched after one.
func queryInt(raw, name string, dst *int, err *error) {
	v, ok := rawQueryGet(raw, name)
	if *err != nil || !ok {
		return
	}
	n, e := strconv.ParseInt(v, 10, 0)
	if e != nil {
		*err = fmt.Errorf("bad %s %q", name, v)
		return
	}
	*dst = int(n)
}

// queryBool is queryInt for boolean parameters.
func queryBool(raw, name string, dst *bool, err *error) {
	v, ok := rawQueryGet(raw, name)
	if *err != nil || !ok {
		return
	}
	b, e := strconv.ParseBool(v)
	if e != nil {
		*err = fmt.Errorf("bad %s %q", name, v)
		return
	}
	*dst = b
}

// rawQueryGet returns the first value of name in a raw query string,
// decoding percent/plus escapes only when a pair actually contains them —
// the API's enum and numeric values never do, so the common path returns a
// substring of raw and allocates nothing. Malformed pairs (bad escapes,
// semicolon separators) are skipped, matching url.ParseQuery, which drops
// the pairs it cannot decode while keeping the rest.
func rawQueryGet(raw, name string) (string, bool) {
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != name {
			if !strings.ContainsAny(k, "%+") {
				continue
			}
			dk, err := url.QueryUnescape(k)
			if err != nil || dk != name {
				continue
			}
		}
		if strings.ContainsAny(v, "%+") {
			dv, err := url.QueryUnescape(v)
			if err != nil {
				continue
			}
			return dv, true
		}
		return v, true
	}
	return "", false
}
