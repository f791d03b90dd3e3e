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
	flight  Flight[*cacheEntry]
	pool    *workerPool
	met     metrics
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
	return &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		pool:  newWorkerPool(cfg.Workers, cfg.Queue),
	}
}

// Handler returns the service's HTTP handler. It dispatches on the exact
// request path, so a path that a pattern mux would clean and redirect
// ("/v1//sim") or one with a trailing slash ("/v1/sim/") answers 404.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.route) }

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/sim":
		s.handleSim(w, r)
	case "/v1/sweep":
		s.handleSweep(w, r)
	case "/metrics":
		s.handleMetrics(w, r)
	case "/healthz":
		s.handleHealthz(w, r)
	default:
		http.NotFound(w, r)
	}
}

// Metrics returns a point-in-time snapshot of the service counters.
func (s *Server) Metrics() Snapshot {
	snap := s.met.snapshot()
	snap.CacheEntries, snap.CacheEvictions = s.cache.stats()
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

// handleSim answers one spec, from the result cache when it holds the
// result and by a simulation otherwise. The cache is keyed by the
// normalized spec's canonical JSON (Spec.AppendJSON). A POST body is
// probed as it stands first: the router forwards canonical bodies, and a
// hit on one needs no scan, no Normalize and no key rendering. Every other
// request is parsed, normalized, and probed by its canonical JSON,
// rendered into a stack buffer; only a miss turns it into a string.
// Neither probe needs the content address: the entry carries it for the
// X-Spec-Key header.
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
	var (
		spec Spec
		e    *cacheEntry
		err  error
		kb   [specJSONMax]byte
		key  []byte
	)
	if r.Method == http.MethodPost {
		e, spec, err = s.probeBody(r)
	} else {
		spec, err = ParseSpecRequest(r)
	}
	if e == nil {
		if err == nil {
			spec, err = spec.Normalize()
		}
		if err != nil {
			s.met.badRequest.Add(1)
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		key = spec.AppendJSON(kb[:0])
		e, _ = s.cache.getBytes(key)
	}

	// Probe mode (HEAD, or ?probe=1 on GET/POST): answer from the result
	// cache only, never simulating and never touching the queue. A hit is
	// the normal 200 response (HEAD drops the body); a miss is 404 with
	// X-Cache: miss. Clients ask "do you have this?" here without paying
	// for a simulation (the fleet router relays probes to a key's owner),
	// so a probe miss must stay O(cache lookup).
	if IsProbe(r) {
		s.met.probes.Add(1)
		if e == nil {
			h := w.Header()
			h["X-Cache"] = hdrMiss
			h["X-Spec-Key"] = []string{spec.Key()}
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
	// the response — no key string, no hash, no header formatting, no
	// copies.
	if e != nil {
		s.met.hits.Add(1)
		s.writeEntry(w, r, e, hdrHit)
		s.met.latency.observe(time.Since(start))
		return
	}

	e, call, state := s.start(spec, string(key), 0)
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
	case <-call.Done():
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
	case call.Err == errBusy:
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("simulation queue full (%d queued); retry shortly", s.cfg.Queue))
	case call.Err != nil:
		s.met.errors.Add(1)
		s.writeError(w, http.StatusInternalServerError, call.Err.Error())
	default:
		label := hdrMiss
		if state == dispatchCoalesced {
			label = hdrCoalesced
		}
		s.writeOutcome(w, call.Val, label, start)
	}
}

// probeBody reads a POST body once into a pooled buffer and probes the
// cache with it as it stands. A hit returns the entry: the body was some
// spec's canonical JSON, which parses and normalizes back to that spec, so
// the parse path would find the same entry. A miss parses the same bytes,
// returning the spec still to be normalized, or the body's error.
func (s *Server) probeBody(r *http.Request) (*cacheEntry, Spec, error) {
	bp := specParseBufPool.Get().(*[]byte)
	defer putSpecBuf(bp)
	body, err := readSpecBody(bp, r)
	if err != nil {
		return nil, Spec{}, err
	}
	if e, ok := s.cache.getBytes(body); ok {
		return e, Spec{}, nil
	}
	spec, err := parseSpecBytes(body)
	return nil, spec, err
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

// start resolves one canonical spec, keyed by its canonical JSON, without
// blocking on the simulation: a cache hit returns the stored entry
// directly; otherwise the caller gets the single-flight call to wait on,
// whose value is the entry the simulation cached. On a miss this caller's
// spec is submitted to the worker pool, waiting up to queueWait for space
// (a still full queue fails the call with errBusy, releasing any followers
// that joined meanwhile); /v1/sim passes zero and turns errBusy into its
// 429.
// The job computes the spec's content address, once per result: the
// outcome's key field and the entry's X-Spec-Key both carry it.
// Both the single-sim and the batch sweep handlers dispatch through here,
// so they share one cache and one in-flight set — a sweep point coalesces
// with a concurrent /v1/sim request for the same spec and vice versa.
func (s *Server) start(spec Spec, key string, queueWait time.Duration) (*cacheEntry, *Call[*cacheEntry], dispatchState) {
	if e, ok := s.cache.get(key); ok {
		return e, nil, dispatchHit
	}
	call, leader := s.flight.Join(key)
	if !leader {
		return nil, call, dispatchCoalesced
	}
	if !s.pool.submitWait(func(slot *exper.MachineSlot) {
		addr := spec.Key()
		data, err := s.runEncoded(spec, addr, slot)
		var e *cacheEntry
		if err == nil {
			e = s.cache.put(key, addr, data)
		}
		s.flight.Complete(key, call, e, err)
	}, queueWait) {
		s.flight.Complete(key, call, nil, errBusy)
	}
	return nil, call, dispatchMiss
}

// runEncoded executes the spec, whose content address is addr, on the
// worker's machine slot and returns its canonical JSON bytes. The outcome
// is byte-identical to Run's — determinism is per run, not per machine —
// and reusing the worker's own machine skips construction on the request
// path. A panic anywhere under the simulator becomes an error, so one bad
// run cannot take down a worker. A panicked run leaves the slot's machine
// in an unknown state, so the slot is cleared and the next job on this
// worker builds a fresh machine.
func (s *Server) runEncoded(spec Spec, addr string, slot *exper.MachineSlot) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			*slot = exper.MachineSlot{}
			err = fmt.Errorf("simulation failed: %v", r)
		}
	}()
	s.met.runs.Add(1)
	return outcome(spec, addr, spec.Point().RunSlot(slot, true)).Encode()
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
	hdrCoalesced      = []string{"coalesced"}
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

// writeOutcome answers a request that waited on a simulation with the
// entry it cached, identity-encoded.
func (s *Server) writeOutcome(w http.ResponseWriter, e *cacheEntry, cache []string, start time.Time) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h["X-Cache"] = cache
	h["X-Spec-Key"] = e.keyHdr
	w.Write(e.data)
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

// IsProbe reports whether r asks only whether its result is cached: a HEAD
// request, or a GET or POST with probe=1 in its query. The server and the
// fleet router share it, so both read the query the same way, without
// parsing it into a map.
func IsProbe(r *http.Request) bool {
	if r.Method == http.MethodHead {
		return true
	}
	probe, _ := rawQueryGet(r.URL.RawQuery, "probe")
	return probe == "1"
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
