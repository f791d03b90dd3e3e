package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"dsm/internal/serve"
)

// planRequest encodes a backend's POST /v1/sweep body.
type planRequest struct {
	Points []serve.Spec `json:"points"`
}

// lineSlot is one plan point's output line: the reader goroutine that owns
// the point's backend stream sets data (newline included) and closes done;
// the writer loop relays slots strictly in plan order.
type lineSlot struct {
	done chan struct{}
	data []byte
}

func (s *lineSlot) set(b []byte) {
	s.data = b
	close(s.done)
}

// subSweep is one backend's share of a plan: which plan indices it owns
// and the live response streaming their lines back.
type subSweep struct {
	backend int
	idx     []int // plan indices in sub-plan order
	resp    *http.Response
	err     error
}

// handleSweep splits a plan across the fleet by key owner, runs the
// per-backend sub-sweeps concurrently, and re-interleaves their NDJSON
// lines back into plan order. Every line is the exact bytes the owning
// backend produced — which are themselves byte-identical to /v1/sim
// responses — so a client cannot tell a routed sweep from a single-backend
// one. Identical points within a plan share a key, land on the same
// backend, and coalesce there; the X-Sweep-* headers aggregate the
// backends' dispatch profiles.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON plan: {\"points\": [spec, ...]}")
		return
	}
	if rt.closing.Load() {
		rt.writeError(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	specs, err := serve.ParsePlan(http.MaxBytesReader(w, r.Body, serve.MaxPlanBytes))
	if err != nil {
		rt.met.badRequest.Add(1)
		rt.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.met.sweeps.Add(1)
	rt.met.sweepPoints.Add(uint64(len(specs)))

	// Split the plan by owner: duplicates within a plan land on the same
	// backend and coalesce there.
	keys := make([]string, len(specs))
	subIdx := make([][]int, len(rt.cfg.Backends))
	for i := range specs {
		keys[i] = specs[i].Key()
		b := rt.ring.owner(keys[i])
		subIdx[b] = append(subIdx[b], i)
	}

	// Launch every non-empty sub-sweep and wait for its response headers;
	// the aggregated X-Sweep-* profile must be on the wire before the
	// first body byte.
	var wg sync.WaitGroup
	subs := make([]*subSweep, 0, len(rt.cfg.Backends))
	for b, idx := range subIdx {
		if len(idx) == 0 {
			continue
		}
		sub := &subSweep{backend: b, idx: idx}
		subs = append(subs, sub)
		wg.Add(1)
		go func(sub *subSweep) {
			defer wg.Done()
			pts := make([]serve.Spec, len(sub.idx))
			for j, i := range sub.idx {
				pts[j] = specs[i]
			}
			body, err := json.Marshal(planRequest{Points: pts})
			if err != nil {
				sub.err = err
				return
			}
			req, err := http.NewRequest(http.MethodPost,
				rt.cfg.Backends[sub.backend]+"/v1/sweep", bytes.NewReader(body))
			if err != nil {
				sub.err = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			// Sub-sweep lines are re-parsed into plan order here, so the
			// stream must arrive identity-encoded; explicit Accept-Encoding
			// also keeps the transport's transparent gzip out of the path.
			req.Header.Set("Accept-Encoding", acceptIdentity)
			rt.perBack[sub.backend].Add(1)
			sub.resp, sub.err = rt.client.Do(req)
			if sub.err != nil {
				rt.met.upstreamEr.Add(1)
			}
		}(sub)
	}
	wg.Wait()

	var hits, coalesced uint64
	for _, sub := range subs {
		if sub.err == nil && sub.resp.StatusCode == http.StatusOK {
			hits += headerUint(sub.resp.Header, "X-Sweep-Hits")
			coalesced += headerUint(sub.resp.Header, "X-Sweep-Coalesced")
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Points", strconv.Itoa(len(specs)))
	w.Header().Set("X-Sweep-Hits", strconv.FormatUint(hits, 10))
	w.Header().Set("X-Sweep-Coalesced", strconv.FormatUint(coalesced, 10))

	// One reader goroutine per sub-sweep deposits lines into the plan's
	// slots as they stream in; the writer loop below relays them in plan
	// order, flushing buffered output only when about to block on a point
	// that is still simulating (same boundary discipline as the backends'
	// own sweep streaming).
	slots := make([]lineSlot, len(specs))
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	for _, sub := range subs {
		go rt.readSubSweep(sub, keys, slots)
	}

	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriterSize(w, 32<<10)
	push := func() {
		if bw.Buffered() == 0 {
			return // nothing new for the client; an empty flush still costs a write
		}
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	for i := range slots {
		sl := &slots[i]
		select {
		case <-sl.done:
		default:
			push()
			select {
			case <-sl.done:
			case <-r.Context().Done():
				rt.drainSubs(subs)
				return // client gone; stop streaming
			}
		}
		bw.Write(sl.data)
	}
	// Drain the bufio layer only: the handler returns next, and net/http
	// emits the buffered tail and the terminal chunk in one write.
	bw.Flush()
	rt.drainSubs(subs)
}

// readSubSweep consumes one backend's sub-sweep stream, routing line j to
// the plan slot it answers. Points the backend never answered — transport
// failure, non-200 response, or a short stream — get a router-authored
// error line in the same {"error","key"} shape the backends use, so the
// one-line-per-point framing survives any partial failure.
func (rt *Router) readSubSweep(sub *subSweep, keys []string, slots []lineSlot) {
	next := 0 // next sub-plan position to fill
	fail := func(msg string) {
		for _, i := range sub.idx[next:] {
			rt.met.sweepErrors.Add(1)
			line, _ := json.Marshal(map[string]string{"error": msg, "key": keys[i]})
			slots[i].set(append(line, '\n'))
		}
		next = len(sub.idx)
	}
	base := rt.cfg.Backends[sub.backend]
	if sub.err != nil {
		fail(fmt.Sprintf("backend %s: %v", base, sub.err))
		return
	}
	defer sub.resp.Body.Close()
	if sub.resp.StatusCode != http.StatusOK {
		fail(fmt.Sprintf("backend %s answered %d", base, sub.resp.StatusCode))
		return
	}
	bp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bp)
	sc := bufio.NewScanner(sub.resp.Body)
	sc.Buffer((*bp)[:0], 16<<20)
	for next < len(sub.idx) && sc.Scan() {
		line := sc.Bytes()
		data := make([]byte, len(line)+1)
		copy(data, line)
		data[len(line)] = '\n'
		slots[sub.idx[next]].set(data)
		next++
	}
	if next < len(sub.idx) {
		msg := fmt.Sprintf("backend %s: stream ended %d lines short", base, len(sub.idx)-next)
		if err := sc.Err(); err != nil {
			msg = fmt.Sprintf("backend %s: %v", base, err)
		}
		fail(msg)
	}
}

// scanBufPool recycles the sub-sweep scanners' initial line buffers. Every
// line is copied out into its slot before the scanner advances, so the
// buffer is dead — and safe to reuse — the moment readSubSweep returns.
// A line that outgrows 64KB makes the scanner allocate privately; the
// pooled buffer stays its original size.
var scanBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// drainSubs closes any sub-sweep bodies that still have a reader attached;
// readers own the Close on the happy path, but an aborted relay must not
// leak connections. Double Close on an http response body is safe.
func (rt *Router) drainSubs(subs []*subSweep) {
	for _, sub := range subs {
		if sub.err == nil && sub.resp != nil {
			sub.resp.Body.Close()
		}
	}
}

func headerUint(h http.Header, name string) uint64 {
	v, _ := strconv.ParseUint(h.Get(name), 10, 64)
	return v
}
