package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"dsm/internal/serve"
)

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
	cancel  context.CancelFunc // releases the stream's deadline
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

	// Launch every non-empty sub-sweep. Each one's goroutine reads its
	// stream into the plan's slots as soon as its own response headers
	// arrive, so a backend that never answers costs only its own points:
	// the others' streams are read, under their own deadlines, while it
	// is awaited. The aggregated X-Sweep-* profile must be on the wire
	// before the first body byte, so the writer waits for every backend's
	// headers (or failure) before it writes any.
	slots := make([]lineSlot, len(specs))
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
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
			// The sub-plan body is what json.Marshal makes of
			// {"points": [...]}, with every point already normalized by
			// ParsePlan. Its lines are re-parsed into plan order here, so
			// the stream must arrive identity-encoded.
			body := []byte(`{"points":[`)
			for j, i := range sub.idx {
				if j > 0 {
					body = append(body, ',')
				}
				body = specs[i].AppendJSON(body)
			}
			body = append(body, "]}"...)
			sub.resp, sub.cancel, sub.err = rt.roundTrip(r.Context(), sub.backend, rt.backs[sub.backend].sweep, body, hdrIdentity)
			wg.Done()
			rt.readSubSweep(sub, keys, slots)
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

	// The sub-sweeps' goroutines deposit lines into the plan's slots as
	// they stream in; the writer loop below relays them in plan order,
	// flushing buffered output only when about to block on a point that
	// is still simulating (same boundary discipline as the backends' own
	// sweep streaming).
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
	defer sub.cancel()
	defer sub.resp.Body.Close()
	if sub.resp.StatusCode != http.StatusOK {
		fail(fmt.Sprintf("backend %s answered %d", base, sub.resp.StatusCode))
		return
	}
	sc := bufio.NewScanner(sub.resp.Body)
	sc.Buffer(nil, 16<<20)
	// A read error ends the scan with the bytes before it as a last token:
	// that is a cut line, not an answer, so it gets an error line instead.
	for next < len(sub.idx) && sc.Scan() && sc.Err() == nil {
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
