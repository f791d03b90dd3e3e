package machine

import (
	"slices"
	"testing"

	"dsm/internal/proto"
	"dsm/internal/sim"
)

// timingCase is a 4-processor program set whose timing is pinned: each
// program appends its Now() readings to now[p.ID()].
type timingCase struct {
	name  string
	setup func(m *Machine, now *[4][]sim.Time) []func(*Proc)
}

// mark appends the processor's current time to its readings.
func mark(p *Proc, now *[4][]sim.Time) { now[p.ID()] = append(now[p.ID()], p.Now()) }

var timingCases = []timingCase{
	{"compute-load", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		a := m.AllocSync(proto.PolicyINV)
		prog := func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Compute(sim.Time(10 + 3*p.ID() + i))
				p.Load(a)
				mark(p, now)
				p.FetchAdd(a, 1)
			}
		}
		return []func(*Proc){prog, prog, prog, prog}
	}},
	{"compute-compute", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		a := m.AllocSync(proto.PolicyUPD)
		prog := func(p *Proc) {
			p.Compute(5)
			mark(p, now)
			p.Compute(sim.Time(7 * (p.ID() + 1)))
			mark(p, now)
			p.Compute(2)
			p.FetchAdd(a, 1)
			mark(p, now)
		}
		return []func(*Proc){prog, prog, prog, prog}
	}},
	{"compute-barrier", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		a := m.AllocSync(proto.PolicyUNC)
		prog := func(p *Proc) {
			p.Compute(sim.Time(13 * p.ID()))
			p.Barrier()
			mark(p, now)
			p.FetchAdd(a, 1)
			p.Compute(3)
			p.Barrier()
			mark(p, now)
		}
		return []func(*Proc){prog, prog, prog, prog}
	}},
	{"compute-return", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		a := m.AllocSync(proto.PolicyINV)
		return []func(*Proc){
			func(p *Proc) {
				p.FetchAdd(a, 1)
				mark(p, now)
				p.Compute(40)
				mark(p, now)
			},
			func(p *Proc) {
				p.Compute(25)
			},
			func(p *Proc) {
				p.Compute(0)
				p.Store(a, 9)
				p.Compute(6)
				p.Compute(0)
				mark(p, now)
				p.Load(a)
				p.Compute(0)
				mark(p, now)
			},
			nil,
		}
	}},
	{"compute-now", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		a := m.AllocSync(proto.PolicyUPD)
		prog := func(p *Proc) {
			mark(p, now)
			p.Compute(9)
			mark(p, now)
			mark(p, now)
			p.Store(a, 1)
			mark(p, now)
			p.Compute(sim.Time(p.ID() + 1))
			mark(p, now)
		}
		return []func(*Proc){prog, prog, nil, prog}
	}},
	{"compute-llsc", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		clearReservationsEvery(m, 60)
		a := m.AllocSync(proto.PolicyINV)
		prog := func(p *Proc) {
			for n := 0; n < 3; {
				p.Compute(sim.Time(1 + p.Rand().Intn(6)))
				v := p.LoadLinked(a)
				p.Compute(sim.Time(2 + p.ID()))
				if p.StoreConditional(a, v+1) {
					n++
					mark(p, now)
				}
			}
		}
		return []func(*Proc){prog, prog, prog, prog}
	}},
	{"spin-release", func(m *Machine, now *[4][]sim.Time) []func(*Proc) {
		flag := m.AllocSyncAt(1, proto.PolicyINV)
		joined := m.AllocSync(proto.PolicyUPD)
		writer := func(p *Proc) {
			p.Compute(150)
			p.Store(flag, 1)
			mark(p, now)
			p.SpinWhile(joined, Less, 3, 2)
			mark(p, now)
		}
		spinner := func(p *Proc) {
			p.Compute(sim.Time(3 * p.ID()))
			v := p.SpinWhile(flag, Equal, 0, 2)
			mark(p, now)
			p.FetchAdd(joined, v)
			mark(p, now)
		}
		return []func(*Proc){writer, spinner, spinner, spinner}
	}},
}

// clearReservationsEvery clears each processor's LL reservation every q
// cycles, staggered across processors, while a program runs, so the
// compute-llsc case's store_conditionals also fail spuriously. Armed from a
// case's setup, the ticks precede the programs' first events in sequence
// order.
func clearReservationsEvery(m *Machine, q sim.Time) {
	for i := range m.procs {
		node := m.procs[i].node
		var tick func()
		tick = func() {
			if m.running == 0 {
				return
			}
			m.sys.Cache(node).CacheArray().ClearReservation()
			m.eng.After(q, tick)
		}
		m.eng.After(q+sim.Time(i)*7%q, tick)
	}
}

// timingRecord is everything a timing case pins.
type timingRecord struct {
	now     [4][]sim.Time
	elapsed sim.Time
	events  uint64
	stats   [4]ProcStats
}

func runTimingCase(c timingCase) timingRecord {
	m := newSmall()
	var r timingRecord
	r.elapsed = m.RunEach(c.setup(m, &r.now))
	r.events = m.Engine().EventsExecuted() + m.Engine().Passed()
	for i := range r.stats {
		r.stats[i] = m.ProcStats(i)
	}
	return r
}

// pinnedTiming holds each case's record as measured when every Compute
// yielded to the engine and resumed from its own event, and, for
// spin-release, when each SpinWhile was the Go loop of Loads and Computes
// it stands for. Deferring a compute delay to the next timed action, and
// running a spin's loads from the engine, must reproduce all of it: the
// timed actions still fire at the same simulated times, from events with
// the same sequence numbers, so readings, elapsed time, event count and
// stats match exactly. A parked spin's skipped events count as run: the
// record's events are the engine's plus the skipped ones.
var pinnedTiming = map[string]timingRecord{
	"compute-load": {
		now:     [4][]sim.Time{{31, 134, 522}, {44, 112, 206}, {50, 232, 441}, {58, 341, 467}},
		elapsed: 587, events: 208,
		stats: [4]ProcStats{
			{Ops: 6, MemoryCycles: 490, ComputeCycles: 33, BarrierCycles: 0, Barriers: 0},
			{Ops: 6, MemoryCycles: 243, ComputeCycles: 42, BarrierCycles: 0, Barriers: 0},
			{Ops: 6, MemoryCycles: 425, ComputeCycles: 51, BarrierCycles: 0, Barriers: 0},
			{Ops: 6, MemoryCycles: 527, ComputeCycles: 60, BarrierCycles: 0, Barriers: 0},
		},
	},
	"compute-compute": {
		now:     [4][]sim.Time{{5, 12, 35}, {5, 19, 56}, {5, 26, 69}, {5, 33, 86}},
		elapsed: 86, events: 50,
		stats: [4]ProcStats{
			{Ops: 1, MemoryCycles: 21, ComputeCycles: 14, BarrierCycles: 0, Barriers: 0},
			{Ops: 1, MemoryCycles: 35, ComputeCycles: 21, BarrierCycles: 0, Barriers: 0},
			{Ops: 1, MemoryCycles: 41, ComputeCycles: 28, BarrierCycles: 0, Barriers: 0},
			{Ops: 1, MemoryCycles: 51, ComputeCycles: 35, BarrierCycles: 0, Barriers: 0},
		},
	},
	"compute-barrier": {
		now:     [4][]sim.Time{{40, 89}, {40, 89}, {40, 89}, {40, 89}},
		elapsed: 89, events: 29,
		stats: [4]ProcStats{
			{Ops: 1, MemoryCycles: 21, ComputeCycles: 3, BarrierCycles: 65, Barriers: 2},
			{Ops: 1, MemoryCycles: 31, ComputeCycles: 16, BarrierCycles: 42, Barriers: 2},
			{Ops: 1, MemoryCycles: 37, ComputeCycles: 29, BarrierCycles: 23, Barriers: 2},
			{Ops: 1, MemoryCycles: 45, ComputeCycles: 42, BarrierCycles: 2, Barriers: 2},
		},
	},
	"compute-return": {
		now:     [4][]sim.Time{{21, 61}, {}, {61, 62}, {}},
		elapsed: 62, events: 19,
		stats: [4]ProcStats{
			{Ops: 1, MemoryCycles: 21, ComputeCycles: 40, BarrierCycles: 0, Barriers: 0},
			{Ops: 0, MemoryCycles: 0, ComputeCycles: 25, BarrierCycles: 0, Barriers: 0},
			{Ops: 2, MemoryCycles: 56, ComputeCycles: 6, BarrierCycles: 0, Barriers: 0},
			{Ops: 0, MemoryCycles: 0, ComputeCycles: 0, BarrierCycles: 0, Barriers: 0},
		},
	},
	"compute-now": {
		now:     [4][]sim.Time{{0, 9, 9, 30, 31}, {0, 9, 9, 44, 46}, {}, {0, 9, 9, 53, 57}},
		elapsed: 57, events: 21,
		stats: [4]ProcStats{
			{Ops: 1, MemoryCycles: 21, ComputeCycles: 10, BarrierCycles: 0, Barriers: 0},
			{Ops: 1, MemoryCycles: 35, ComputeCycles: 11, BarrierCycles: 0, Barriers: 0},
			{Ops: 0, MemoryCycles: 0, ComputeCycles: 0, BarrierCycles: 0, Barriers: 0},
			{Ops: 1, MemoryCycles: 44, ComputeCycles: 13, BarrierCycles: 0, Barriers: 0},
		},
	},
	"compute-llsc": {
		now:     [4][]sim.Time{{67, 75, 84}, {433, 441, 449}, {157, 204, 213}, {313, 336, 348}},
		elapsed: 449, events: 221,
		stats: [4]ProcStats{
			{Ops: 6, MemoryCycles: 63, ComputeCycles: 21, BarrierCycles: 0, Barriers: 0},
			{Ops: 12, MemoryCycles: 409, ComputeCycles: 40, BarrierCycles: 0, Barriers: 0},
			{Ops: 8, MemoryCycles: 177, ComputeCycles: 36, BarrierCycles: 0, Barriers: 0},
			{Ops: 12, MemoryCycles: 298, ComputeCycles: 50, BarrierCycles: 0, Barriers: 0},
		},
	},
	"spin-release": {
		now:     [4][]sim.Time{{191, 309}, {225, 266}, {275, 310}, {279, 322}},
		elapsed: 322, events: 428,
		stats: [4]ProcStats{
			{Ops: 31, MemoryCycles: 101, ComputeCycles: 208, BarrierCycles: 0, Barriers: 0},
			{Ops: 52, MemoryCycles: 163, ComputeCycles: 103, BarrierCycles: 0, Barriers: 0},
			{Ops: 48, MemoryCycles: 212, ComputeCycles: 98, BarrierCycles: 0, Barriers: 0},
			{Ops: 47, MemoryCycles: 223, ComputeCycles: 99, BarrierCycles: 0, Barriers: 0},
		},
	},
}

func TestComputeTimingPinned(t *testing.T) {
	for _, c := range timingCases {
		want, ok := pinnedTiming[c.name]
		if !ok {
			t.Fatalf("%s: no pinned record", c.name)
		}
		got := runTimingCase(c)
		for i := range want.now {
			if !slices.Equal(got.now[i], want.now[i]) {
				t.Errorf("%s: proc %d Now() readings %v, want %v", c.name, i, got.now[i], want.now[i])
			}
		}
		if got.elapsed != want.elapsed || got.events != want.events {
			t.Errorf("%s: elapsed %d events %d, want %d %d", c.name, got.elapsed, got.events, want.elapsed, want.events)
		}
		if got.stats != want.stats {
			t.Errorf("%s: stats %+v, want %+v", c.name, got.stats, want.stats)
		}
	}
}

// heldPanic runs a program that panics with a compute delay pending while
// its peers spin, and returns the recovered value with the machine's clock,
// event count and a peer's stats at the moment the panic surfaced.
func heldPanic() (r any, at sim.Time, events uint64, peer ProcStats) {
	m := newSmall()
	a := m.AllocSync(proto.PolicyINV)
	spin := func(p *Proc) {
		for {
			p.FetchAdd(a, 1)
			p.Compute(3)
		}
	}
	defer func() {
		r = recover()
		at, events, peer = m.Now(), m.Engine().EventsExecuted(), m.ProcStats(2)
	}()
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			p.Compute(400)
			panic("held")
		},
		spin, spin, spin,
	})
	return
}

// TestHeldPanicTimingPinned pins when a panic raised with a compute delay
// pending reaches RunEach's caller: at the simulated time the delay ends,
// with the peers' progress and the event count as when the program only
// ran again after the delay.
func TestHeldPanicTimingPinned(t *testing.T) {
	r, at, events, peer := heldPanic()
	want := ProcStats{Ops: 5, MemoryCycles: 353, ComputeCycles: 15}
	if r != "held" || at != 400 || events != 120 || peer != want {
		t.Fatalf("recovered %v at %d after %d events, peer stats %+v; want held at 400 after 120, %+v",
			r, at, events, peer, want)
	}
}

// TestHeldPanicDoesNotOutliveItsRun: a held panic whose delay never ended,
// because a peer's panic stopped the run first, must not surface in the
// machine's next run.
func TestHeldPanicDoesNotOutliveItsRun(t *testing.T) {
	m := newSmall()
	func() {
		defer func() {
			if r := recover(); r != "early" {
				t.Fatalf("recovered %v, want the earlier panic", r)
			}
		}()
		m.RunEach([]func(*Proc){
			func(p *Proc) { p.Compute(100); panic("late") },
			func(p *Proc) { p.Compute(10); panic("early") },
			nil, nil,
		})
	}()
	if !m.Reset(m.cfg) {
		t.Fatal("Reset refused the machine's own config")
	}
	if elapsed := m.Run(func(p *Proc) { p.Compute(5) }); elapsed != 5 {
		t.Fatalf("elapsed %d after the aborted run, want 5", elapsed)
	}
}
