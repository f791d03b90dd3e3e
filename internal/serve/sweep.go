package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// MaxSweepPoints bounds one batch request: the sweep endpoint is for
// figure-sized plans (tens to hundreds of points), not unbounded jobs.
const MaxSweepPoints = 1024

// MaxPlanBytes bounds one POST /v1/sweep body; handlers wrap the request
// body in http.MaxBytesReader with it before calling ParsePlan.
const MaxPlanBytes = 1 << 22

// sweepRequest is the POST /v1/sweep body: an ordered list of specs
// forming one plan. Each point is normalized and resolved independently
// through the same cache + single-flight + worker pool as /v1/sim.
type sweepRequest struct {
	Points []Spec `json:"points"`
}

// ParsePlan decodes and validates one sweep plan body: JSON with unknown
// fields refused, 1..MaxSweepPoints points, each normalized. It returns
// the normalized points in plan order. Every error is a client error; its
// text is the 400 body both dsmserve and dsmrouter answer, so the two
// reject a bad plan byte-identically.
func ParsePlan(body io.Reader) ([]Spec, error) {
	var req sweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad plan JSON: %v", err)
	}
	if len(req.Points) == 0 {
		return nil, fmt.Errorf("empty plan: need at least one point")
	}
	if len(req.Points) > MaxSweepPoints {
		return nil, fmt.Errorf("plan has %d points, limit %d", len(req.Points), MaxSweepPoints)
	}
	specs := req.Points
	for i, sp := range specs {
		var err error
		if specs[i], err = sp.Normalize(); err != nil {
			return nil, fmt.Errorf("point %d: %v", i, err)
		}
	}
	return specs, nil
}

// sweepSlot is one point's dispatch bookkeeping: how it resolved (cached
// bytes or an in-flight call to wait on) and under which key.
type sweepSlot struct {
	key   string
	data  []byte // non-nil: served from cache
	call  *flightCall
	state dispatchState
}

// sweepSlotPool recycles the per-request dispatch bookkeeping so a busy
// sweep endpoint does not allocate a slot slice per plan; slices come back
// with their element references cleared (the encoded results they point at
// belong to the cache, not the request).
var sweepSlotPool = sync.Pool{New: func() any { return new([]sweepSlot) }}

func getSweepSlots(n int) *[]sweepSlot {
	p := sweepSlotPool.Get().(*[]sweepSlot)
	if cap(*p) < n {
		*p = make([]sweepSlot, n)
	}
	*p = (*p)[:n]
	return p
}

func putSweepSlots(p *[]sweepSlot) {
	clear(*p)
	sweepSlotPool.Put(p)
}

// sweepWriteSize is the per-request output buffer: large enough to batch
// several NDJSON lines (a counter outcome encodes to ~2KB) into one
// ResponseWriter write, small enough to be cheap per request.
const sweepWriteSize = 32 << 10

// sweepWriterPool recycles the 32KB output buffers across sweep requests;
// a drained buffer is reset off its ResponseWriter before being pooled so
// it retains no reference to a finished request.
var sweepWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, sweepWriteSize) }}

// handleSweep runs a batch of specs and streams one NDJSON line per point,
// in plan order. Each line is byte-identical to the /v1/sim response body
// for the same spec (the exact cached encoding), so clients can mix single
// and batch requests freely. A point that fails yields one
// {"error":"..."} line in its slot, preserving the line-per-point framing.
//
// Dispatch happens before the first byte of the body, so the response
// headers carry the plan's cache profile: X-Sweep-Points, X-Sweep-Hits
// (served from cache), X-Sweep-Coalesced (merged into an in-flight
// identical run — including duplicates within the plan itself).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON plan: {\"points\": [spec, ...]}")
		return
	}
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	specs, err := ParsePlan(http.MaxBytesReader(w, r.Body, MaxPlanBytes))
	if err != nil {
		s.met.badRequest.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.met.sweeps.Add(1)
	s.met.sweepPoints.Add(uint64(len(specs)))
	start := time.Now()
	overall := start.Add(s.cfg.Timeout)

	// Phase 1: dispatch every point (cache lookup, single-flight join,
	// pool submission) without waiting for any simulation to finish.
	// Duplicate points within the plan coalesce on the plan's own leader,
	// and a plan larger than the queue bound drains through it — dispatch
	// waits for queue space (workers are consuming) rather than bouncing
	// the excess points. The bookkeeping slice is pooled across requests.
	slotsPtr := getSweepSlots(len(specs))
	defer putSweepSlots(slotsPtr)
	slots := *slotsPtr
	var hits, coalesced uint64
	for i, spec := range specs {
		key := spec.Key()
		e, call, state := s.start(spec, key, time.Until(overall))
		var data []byte
		if e != nil {
			data = e.data // sweep lines always stream the identity encoding
		}
		slots[i] = sweepSlot{key: key, data: data, call: call, state: state}
		switch state {
		case dispatchHit:
			hits++
			s.met.sweepHits.Add(1)
		case dispatchMiss:
			s.met.sweepMisses.Add(1)
		case dispatchCoalesced:
			coalesced++
			s.met.sweepCoalesced.Add(1)
		}
	}
	h := w.Header()
	h["Content-Type"] = hdrNDJSON
	h.Set("X-Sweep-Points", strconv.Itoa(len(specs)))
	h.Set("X-Sweep-Hits", strconv.FormatUint(hits, 10))
	h.Set("X-Sweep-Coalesced", strconv.FormatUint(coalesced, 10))

	// Phase 2: stream results in plan order through a buffered writer.
	// Consecutive ready lines (cache hits, already-finished runs) batch
	// into one ResponseWriter write; the buffer is pushed to the client
	// only at a boundary — when the next point is still simulating and the
	// handler is about to block — and once at the end. That replaces the
	// write+flush syscall pair per line with one per run of ready lines,
	// while clients still see every completed result before a stall.
	// One deadline covers the whole batch; once it expires, every
	// unfinished point reports the timeout in its line (the per-point
	// framing survives).
	flusher, _ := w.(http.Flusher)
	bw := sweepWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil) // drop the ResponseWriter reference before pooling
		sweepWriterPool.Put(bw)
	}()
	push := func() { // boundary: hand buffered lines to the client now
		if bw.Buffered() == 0 {
			return // nothing new for the client; an empty flush still costs a write
		}
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	deadline := time.NewTimer(time.Until(overall))
	defer deadline.Stop()
	expired := false
	for i := range slots {
		sl := &slots[i]
		data, err := sl.data, error(nil)
		if data == nil {
			if !expired {
				select {
				case <-sl.call.done:
				default:
					// The point is still running: let the client read
					// everything finished so far, then wait.
					push()
					select {
					case <-sl.call.done:
					case <-deadline.C:
						expired = true
						s.met.timeouts.Add(1)
					case <-r.Context().Done():
						// Client gone; stop streaming.
						return
					}
				}
			}
			switch {
			case expired:
				err = fmt.Errorf("deadline of %s exceeded (queue wait + simulation)", s.cfg.Timeout)
			case sl.call.err == errBusy:
				err = fmt.Errorf("simulation queue full (%d queued); retry shortly", s.cfg.Queue)
			case sl.call.err != nil:
				err = sl.call.err
			default:
				data = sl.call.data
			}
		}
		if err != nil {
			s.met.sweepErrors.Add(1)
			line, _ := json.Marshal(map[string]string{"error": err.Error(), "key": sl.key})
			bw.Write(line)
			bw.WriteByte('\n')
		} else {
			bw.Write(data)
		}
	}
	// Final lines: drain the bufio layer only. The handler is about to
	// return, and net/http flushes its own buffers then anyway — an
	// explicit Flusher.Flush here would split the tail into two socket
	// writes (last chunk, then terminal chunk) where the return path emits
	// both in one.
	bw.Flush()
	s.met.latency.observe(time.Since(start))
}
