package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"dsm/internal/exper"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/report"
	"dsm/internal/serve"
	"dsm/internal/sim"
)

// counts are the simulated statistics of a set of points, summed. They
// are exact: a given seed and run length always yield the same numbers,
// and a change that only speeds the simulator up must leave them alone.
type counts struct {
	points, slotBuilds        uint64
	events, cycles, procOps   uint64
	requests, localHits, naks uint64
	retries, invals, updates  uint64
	queueWait                 uint64
	messages, flits           uint64
	injectWait, ejectWait     uint64
}

// replay runs every point again on a benchmark-owned machine slot and
// reads the counts from the machine after each run. Spans: point ->
// exper.machine (slot reset or build), exper.RunOn, report.Collect,
// report.Encode.
func replay(pts []replayPoint, l *lane) counts {
	var slot exper.MachineSlot
	var buf bytes.Buffer
	var c counts
	for _, rp := range pts {
		l.req = int64(rp.req)
		root := l.begin("point")
		s := l.begin("exper.machine")
		m := slot.Machine(exper.MachineConfig(rp.pt.Scale, rp.pt.Bar))
		l.end(s)
		s = l.begin("exper.RunOn")
		rp.pt.RunOn(m)
		l.end(s)
		c.events += m.Engine().EventsExecuted()
		c.cycles += uint64(m.Now())
		for i := range m.Procs() {
			ps := m.ProcStats(i)
			c.procOps += ps.Ops + ps.Barriers
		}
		s = l.begin("report.Collect")
		r := report.Collect(m)
		l.end(s)
		s = l.begin("report.Encode")
		buf.Reset()
		r.WriteJSON(&buf)
		l.end(s)
		l.end(root)

		p := r.Protocol
		c.requests += p.Requests
		c.localHits += p.LocalHits
		c.naks += p.Naks
		c.retries += p.Retries
		c.invals += p.Invals
		c.updates += p.Updates
		c.queueWait += r.Memory.QueueWait
		c.messages += r.Network.Messages
		c.flits += r.Network.Flits
		c.injectWait += r.Network.InjectWait
		c.ejectWait += r.Network.EjectWait
	}
	c.points = uint64(len(pts))
	c.slotBuilds, _ = slot.Stats()
	return c
}

// calibration holds per-unit host costs measured through each layer's
// public API, each the median of calibReps repetitions. Multiplied by the
// replay's counts they predict the replay's RunOn time (the ledger).
type calibration struct {
	nsPerEvent  float64 // one engine event
	handshakeNS float64 // one processor<->engine handshake, beyond its event
	nsPerMsg    float64 // one mesh send and delivery, beyond its event
	serveHitUS  float64 // one warmed /v1/sim cache hit (median of its calls)
}

const calibReps = 5

func calibrate() (calibration, error) {
	var c calibration
	c.nsPerEvent = medianOf(func() float64 { return engineCascade(1_000_000) })
	c.handshakeNS = medianOf(func() float64 { return computeLoop(40_000) }) - c.nsPerEvent
	c.nsPerMsg = medianOf(func() float64 { return meshSends(1_000_000) }) - c.nsPerEvent
	hit, err := serveHit(20_000)
	c.serveHitUS = hit
	return c, err
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, calibReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// engineCascade times n engine events: eight self-rescheduling chains
// with delays 1..8, so events land in many wheel buckets.
func engineCascade(n int) float64 {
	eng := sim.NewEngine()
	fired := 0
	for k := range 8 {
		d := sim.Time(k + 1)
		var tick func()
		tick = func() {
			if fired++; fired < n {
				eng.After(d, tick)
			}
		}
		eng.After(d, tick)
	}
	start := time.Now()
	for eng.Step() {
	}
	return float64(time.Since(start)) / float64(eng.EventsExecuted())
}

// computeLoop times Compute(1) on a one-processor machine: one handshake
// and one event per call.
func computeLoop(n int) float64 {
	m := machine.New(exper.MachineConfig(exper.RunOpts{Procs: 1}, exper.Bar{}))
	start := time.Now()
	m.Run(func(p *machine.Proc) {
		for range n {
			p.Compute(1)
		}
	})
	return float64(time.Since(start)) / float64(n)
}

// meshSends times SendArg plus the Step that delivers it, over random
// node pairs of the paper's 8x8 mesh.
func meshSends(n int) float64 {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	rng := rand.New(rand.NewPCG(1, 2))
	pairs := make([][2]mesh.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]mesh.NodeID{mesh.NodeID(rng.IntN(64)), mesh.NodeID(rng.IntN(64))}
	}
	var payload int
	deliver := func(any) {}
	start := time.Now()
	for i := range n {
		p := pairs[i%len(pairs)]
		net.SendArg(p[0], p[1], 2, deliver, &payload)
		eng.Step()
	}
	return float64(time.Since(start)) / float64(n)
}

// serveHit times n cache hits on one warmed spec and returns the median in
// microseconds.
func serveHit(n int) (float64, error) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	c := newCaller(srv.Handler(), "/v1/sim")
	body := []byte(`{"app":"counter","procs":8,"rounds":3}`)
	if code, _ := c.post(body); code != http.StatusOK {
		return 0, fmt.Errorf("serve hit calibration: warm-up answered %d", code)
	}
	lat := make([]time.Duration, n)
	for i := range lat {
		t0 := time.Now()
		code, _ := c.post(body)
		lat[i] = time.Since(t0)
		if code != http.StatusOK || c.cache() != "hit" {
			return 0, fmt.Errorf("serve hit calibration: answered %d, X-Cache %q", code, c.cache())
		}
	}
	return percentile(sortedIn(lat, time.Microsecond), 50), nil
}

// ledger prices the replay's counts with the calibrated unit costs and
// sets the sum beside the measured RunOn time. The residual is what the
// calibrated layers do not explain: mostly the protocol controllers,
// which have no calibration of their own.
type ledger struct {
	engineMS, handshakeMS, meshMS, predictedMS, runOnMS, residualPct float64
}

func price(c counts, cal calibration, runOnMS float64) ledger {
	l := ledger{
		engineMS:    float64(c.events) * cal.nsPerEvent / 1e6,
		handshakeMS: float64(c.procOps) * cal.handshakeNS / 1e6,
		meshMS:      float64(c.messages) * cal.nsPerMsg / 1e6,
		runOnMS:     runOnMS,
	}
	l.predictedMS = l.engineMS + l.handshakeMS + l.meshMS
	l.residualPct = 100 * ratio(runOnMS-l.predictedMS, runOnMS)
	return l
}
