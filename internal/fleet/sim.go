package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"dsm/internal/serve"
)

// upstream is one backend response captured for relay: status, the headers
// worth forwarding, and the exact body bytes. backend is the index of the
// server that produced it. body aliases a pooled buffer (buf) until
// release; a released upstream keeps its status and headers but not its
// bytes.
type upstream struct {
	status  int
	header  http.Header
	body    []byte
	buf     *[]byte
	backend int
}

// bodyBufPool recycles upstream body buffers across relays. Outcome bodies
// are a few KB, so the steady-state router path reuses the same handful of
// buffers instead of allocating one per upstream fetch.
var bodyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// maxPooledBody caps what release returns to the pool; anything a sweep or
// pathological backend inflates beyond this goes to the GC instead of
// pinning memory in the pool.
const maxPooledBody = 1 << 20

// release returns the upstream's buffer to the pool. Call it only once the
// body bytes are dead: after a relay with no coalesced followers, or on a
// response that will never be relayed (a failed probe).
func (u *upstream) release() {
	bp := u.buf
	u.buf, u.body = nil, nil
	if bp == nil || cap(*bp) > maxPooledBody {
		return
	}
	*bp = (*bp)[:0]
	bodyBufPool.Put(bp)
}

// readBody drains r, up to limit bytes, into a pool-obtained buffer,
// returning the filled bytes and the buffer for a later release. On error
// the buffer goes straight back to the pool.
func readBody(r io.Reader, limit int) ([]byte, *[]byte, error) {
	bp := bodyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf[:0]
			bodyBufPool.Put(bp)
			return nil, nil, err
		}
	}
	*bp = buf
	return buf, bp, nil
}

// maxRelayBody bounds one relayed /v1/sim response; outcome bodies are a
// few KB, so this is a corruption guard, not a working limit.
const maxRelayBody = 1 << 22

// post sends spec to u on backend b and captures the response into a
// pooled buffer. gz asks for the gzip representation, for a client that
// negotiated it. The call runs under no client's context: its answer may
// serve every follower of a flight, so one client going away must not
// end it.
func (rt *Router) post(b int, u *url.URL, spec *serve.Spec, gz bool) (*upstream, error) {
	hdr := hdrIdentity
	if gz {
		hdr = hdrGzip
	}
	body := spec.AppendJSON(make([]byte, 0, 256)) // a normalized spec encodes to under 200 bytes
	resp, cancel, err := rt.roundTrip(context.Background(), b, u, body, hdr)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	data, bp, err := readBody(resp.Body, maxRelayBody)
	if err != nil {
		rt.met.upstreamEr.Add(1)
		return nil, err
	}
	return &upstream{status: resp.StatusCode, header: resp.Header, body: data, buf: bp, backend: b}, nil
}

// resolve answers one spec key as the single-flight leader with one
// upstream request: a POST to the key's owner, whose result cache answers
// a hit and whose worker pool simulates a miss. The owner's X-Cache header
// says which, and the router counts it. gz selects the gzip representation
// for a client that negotiated it (a backend answers a fresh simulation
// identity-encoded either way).
func (rt *Router) resolve(key string, spec *serve.Spec, gz bool) (*upstream, error) {
	b := rt.ring.owner(key)
	res, err := rt.post(b, rt.backs[b].sim, spec, gz)
	if err != nil {
		return nil, err
	}
	if res.status == http.StatusOK {
		if res.header.Get("X-Cache") == "hit" {
			rt.met.hits.Add(1)
		} else {
			rt.met.misses.Add(1)
		}
	}
	return res, nil
}

func (rt *Router) handleSim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost && r.Method != http.MethodHead {
		rt.writeError(w, http.StatusMethodNotAllowed, "use GET with query parameters or POST with a JSON spec")
		return
	}
	if rt.closing.Load() {
		rt.writeError(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	spec, err := serve.ParseSpecRequest(r)
	if err == nil {
		spec, err = spec.Normalize()
	}
	if err != nil {
		rt.met.badRequest.Add(1)
		rt.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := spec.Key()
	gz := serve.AcceptsGzip(r)

	// Probe mode passes through to the key's owner: hit if it has the
	// bytes, miss otherwise, never simulating.
	if serve.IsProbe(r) {
		rt.met.probes.Add(1)
		b := rt.ring.owner(key)
		res, err := rt.post(b, rt.backs[b].probe, &spec, gz)
		if err == nil && res.status == http.StatusOK {
			rt.relay(w, r, res, hdrHit)
			res.release()
			return
		}
		if res != nil {
			res.release()
		}
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-Spec-Key", key)
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		rt.writeError(w, http.StatusNotFound, "not cached in fleet")
		return
	}

	rt.met.requests.Add(1)
	// Gzip and identity requests fly separately: a follower must never
	// inherit a representation its client did not negotiate.
	fkey := key
	if gz {
		fkey += "+gz"
	}
	call, leader := rt.flight.Join(fkey)
	var followers int
	if leader {
		res, err := rt.resolve(key, &spec, gz)
		followers = rt.flight.Complete(fkey, call, res, err)
	} else {
		rt.met.coalesced.Add(1)
		select {
		case <-call.Done():
		case <-r.Context().Done():
			return // client gone; nothing useful to write
		}
	}
	if call.Err != nil {
		rt.met.errors.Add(1)
		rt.writeError(w, http.StatusBadGateway, fmt.Sprintf("no backend could resolve the request: %v", call.Err))
		return
	}
	var cache []string
	if !leader {
		cache = hdrCoalesced
	}
	rt.relay(w, r, call.Val, cache)
	if leader && followers == 0 {
		// Sole reader of these bytes; followers, when any joined, keep the
		// buffer alive past this handler, so it stays off the pool.
		call.Val.release()
	}
}

// relayHeaders is the allowlist relay copies from a captured backend
// response. Content-Encoding and Vary travel with the body bytes: a
// gzip-negotiated relay must carry the coding that matches its payload.
var relayHeaders = [...]string{
	"Content-Type", "Content-Encoding", "Vary", "X-Cache", "X-Spec-Key", "Retry-After",
}

// X-Cache values the router sets itself, assigned into the header map
// rather than through Header().Set.
var (
	hdrHit       = []string{"hit"}
	hdrCoalesced = []string{"coalesced"}
)

// relay writes one captured backend response to the client: selected
// headers, the status, and the body bytes exactly as received — the
// byte-identity contract between router-path and direct-backend responses.
// Each relayed header carries the backend's first value, assigned as a
// one-element slice of the captured one; a non-nil cache overrides the
// backend's X-Cache (the router's own provenance). Backend 429
// backpressure, Retry-After included, passes through here unchanged.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, res *upstream, cache []string) {
	h := w.Header()
	for _, k := range &relayHeaders {
		if v := res.header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v[:1:1]
		}
	}
	if cache != nil {
		h["X-Cache"] = cache
	}
	h["X-Fleet-Backend"] = rt.backs[res.backend].name
	if res.status == http.StatusTooManyRequests {
		rt.met.rejected.Add(1)
	}
	w.WriteHeader(res.status)
	if r.Method != http.MethodHead {
		w.Write(res.body)
	}
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Metrics())
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
