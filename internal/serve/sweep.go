package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
// bytes or an in-flight call to wait on).
type sweepSlot struct {
	data []byte // non-nil: served from cache
	call *Call[*cacheEntry]
}

// sweepWriteSize is the per-request output buffer: large enough to batch
// several NDJSON lines (a counter outcome encodes to ~2KB) into one
// ResponseWriter write.
const sweepWriteSize = 32 << 10

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
	// the excess points.
	slots := make([]sweepSlot, len(specs))
	var hits, coalesced uint64
	var kb [specJSONMax]byte
	for i, spec := range specs {
		key := string(spec.AppendJSON(kb[:0]))
		e, call, state := s.start(spec, key, time.Until(overall))
		var data []byte
		if e != nil {
			data = e.data // sweep lines always stream the identity encoding
		}
		slots[i] = sweepSlot{data: data, call: call}
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
	bw := bufio.NewWriterSize(w, sweepWriteSize)
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
				case <-sl.call.Done():
				default:
					// The point is still running: let the client read
					// everything finished so far, then wait.
					push()
					select {
					case <-sl.call.Done():
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
			case sl.call.Err == errBusy:
				err = fmt.Errorf("simulation queue full (%d queued); retry shortly", s.cfg.Queue)
			case sl.call.Err != nil:
				err = sl.call.Err
			default:
				data = sl.call.Val.data
			}
		}
		if err != nil {
			s.met.sweepErrors.Add(1)
			line, _ := json.Marshal(map[string]string{"error": err.Error(), "key": specs[i].Key()})
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
