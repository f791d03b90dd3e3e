package machine

import (
	"fmt"
	"slices"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// spinFunc has SpinWhile's shape, so one program can run with either the
// engine-side spin or the Go loop it replaces.
type spinFunc func(p *Proc, a arch.Addr, c Cmp, x arch.Word, gap sim.Time) arch.Word

func spinEngine(p *Proc, a arch.Addr, c Cmp, x arch.Word, gap sim.Time) arch.Word {
	return p.SpinWhile(a, c, x, gap)
}

// spinLoop is the loop SpinWhile is defined to equal.
func spinLoop(p *Proc, a arch.Addr, c Cmp, x arch.Word, gap sim.Time) arch.Word {
	v := p.Load(a)
	for c.holds(v, x) {
		p.Compute(gap)
		v = p.Load(a)
	}
	return v
}

// spinRecord is everything a spin case must reproduce: each processor's
// Now() readings and spin results, and the run's elapsed time, event count
// and stats. events counts the engine events run plus those parked spins
// skipped; skipped counts the latter, and ties the wakes on the cycle of a
// chain event.
type spinRecord struct {
	now     [4][]sim.Time
	vals    [4][]arch.Word
	elapsed sim.Time
	events  uint64
	skipped uint64
	ties    uint64
	stats   [4]ProcStats
}

// countTies makes each of m's processors count into *ties its wakes on
// the cycle of a chain event: one its spin passed, or the one the wake
// makes real. It wraps the wake that Watch is handed at park time, and
// returns a function that puts the plain wakes back.
func countTies(m *Machine, ties *uint64) (restore func()) {
	for _, p := range m.procs {
		p.wakeFn = func() {
			p.wake()
			n, due, now := p.chain.Passed(), p.chain.Due(), m.eng.Now()
			step := p.pending.gap
			if step == 0 || n%2 == 1 {
				step = m.cfg.CacheHitTime
			}
			if due == now || n > 0 && due-step == now {
				*ties++
			}
		}
	}
	return func() {
		for _, p := range m.procs {
			p.wakeFn = p.wake
		}
	}
}

func (r *spinRecord) mark(p *Proc, v arch.Word) {
	r.now[p.ID()] = append(r.now[p.ID()], p.Now())
	r.vals[p.ID()] = append(r.vals[p.ID()], v)
}

// spinRelease: processor 0, remote from the flag's home at processor 1,
// releases three spinners on one flag under policy; the spinners arrive
// with staggered compute delays pending, then spin on a counter until all
// have joined.
func spinRelease(policy proto.Policy, gap sim.Time) func(*Machine, spinFunc, *spinRecord) []func(*Proc) {
	return func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		flag := m.AllocSyncAt(1, policy)
		joined := m.AllocSyncAt(2, policy)
		writer := func(p *Proc) {
			p.Compute(120)
			p.Store(flag, 5)
			r.mark(p, 0)
			r.mark(p, spin(p, joined, Less, 3, gap))
		}
		spinner := func(p *Proc) {
			p.Compute(sim.Time(7 * p.ID()))
			r.mark(p, spin(p, flag, Equal, 0, gap))
			p.FetchAdd(joined, 1)
			r.mark(p, spin(p, joined, NotEqual, 3, gap+1))
		}
		return []func(*Proc){writer, spinner, spinner, spinner}
	}
}

// spinWrites: processor 0 writes 1, 2, ..., len(delays) to a flag homed
// at home, computing delays[k] before write k, while processors 1 and 2
// spin on it under policy until cmp(v, x) fails, x being the last value
// written; processor 3 idles, its node a third home. A Less or NotEqual
// spin wakes at every write and spins on until the last.
func spinWrites(policy proto.Policy, cmp Cmp, gap sim.Time, home int, delays []sim.Time) func(*Machine, spinFunc, *spinRecord) []func(*Proc) {
	return func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		flag := m.AllocSyncAt(mesh.NodeID(home), policy)
		last := arch.Word(len(delays))
		x := last
		if cmp == Equal {
			x = 0
		}
		writer := func(p *Proc) {
			for k, d := range delays {
				p.Compute(d)
				p.Store(flag, arch.Word(k+1))
				r.mark(p, 0)
			}
		}
		spinner := func(p *Proc) {
			p.Compute(sim.Time(p.ID()))
			v := spin(p, flag, cmp, x, gap)
			r.mark(p, v)
			if cmp == Equal {
				r.mark(p, spin(p, flag, Less, last, gap))
			}
		}
		return []func(*Proc){writer, spinner, spinner, nil}
	}
}

var spinCases = []struct {
	name  string
	setup func(*Machine, spinFunc, *spinRecord) []func(*Proc)
	parks bool // the engine spin must skip events
}{
	{"release-INV", spinRelease(proto.PolicyINV, 2), true},
	{"release-UPD", spinRelease(proto.PolicyUPD, 2), true},
	{"release-UNC", spinRelease(proto.PolicyUNC, 2), false},
	{"release-INV-gap0", spinRelease(proto.PolicyINV, 0), true},
	{"release-UNC-gap5", spinRelease(proto.PolicyUNC, 5), false},
	// Woken by invalidations, by updates, and with the writer at the
	// flag's home, so its invalidations and updates leave in one local
	// controller step.
	{"wake-inval", spinWrites(proto.PolicyINV, Less, 2, 3, []sim.Time{90, 40, 7}), true},
	{"wake-update", spinWrites(proto.PolicyUPD, Less, 2, 3, []sim.Time{90, 40, 7}), true},
	{"local-writer-INV-gap0", spinWrites(proto.PolicyINV, NotEqual, 0, 0, []sim.Time{60, 13}), true},
	{"local-writer-INV-gap2", spinWrites(proto.PolicyINV, NotEqual, 2, 0, []sim.Time{60, 13}), true},
	{"local-writer-UPD-gap0", spinWrites(proto.PolicyUPD, Equal, 0, 0, []sim.Time{60, 13}), true},
	{"local-writer-UPD-gap2", spinWrites(proto.PolicyUPD, Equal, 2, 0, []sim.Time{60, 13}), true},
	// Spins whose first load already fails the comparison, with and
	// without a compute delay pending, between timed actions on a flag
	// another processor keeps writing.
	{"zero-iterations", func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		a := m.AllocSyncAt(3, proto.PolicyINV)
		m.Poke(a, 4)
		prog := func(p *Proc) {
			r.mark(p, spin(p, a, Equal, 0, 2))
			p.Compute(sim.Time(1 + p.ID()))
			r.mark(p, spin(p, a, Less, 4, 2))
			p.FetchAdd(a, 1)
			p.Compute(3)
			r.mark(p, spin(p, a, NotEqual, p.Load(a), 1))
		}
		return []func(*Proc){prog, prog, prog, nil}
	}, false},
	// A handoff chain: each processor waits for the counter to reach its
	// turn, random compute between, the rest idle at a barrier.
	{"turns", func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		turn := m.AllocSyncAt(0, proto.PolicyUPD)
		prog := func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Compute(sim.Time(p.Rand().Intn(9)))
				mine := arch.Word(4*round + p.ID())
				r.mark(p, spin(p, turn, NotEqual, mine, 3))
				p.Store(turn, mine+1)
				p.Barrier()
			}
		}
		return []func(*Proc){prog, prog, prog, prog}
	}, true},
}

func runSpinCase(m *Machine, setup func(*Machine, spinFunc, *spinRecord) []func(*Proc), spin spinFunc) spinRecord {
	var r spinRecord
	start := m.Engine().EventsExecuted()
	skipped := m.Engine().Passed()
	defer countTies(m, &r.ties)()
	r.elapsed = m.RunEach(setup(m, spin, &r))
	r.skipped = m.Engine().Passed() - skipped
	r.events = m.Engine().EventsExecuted() - start + r.skipped
	for i := range r.stats {
		r.stats[i] = m.ProcStats(i)
	}
	return r
}

func sameSpinRecord(t *testing.T, what string, got, want spinRecord) {
	t.Helper()
	for i := range want.now {
		if !slices.Equal(got.now[i], want.now[i]) || !slices.Equal(got.vals[i], want.vals[i]) {
			t.Errorf("%s: proc %d readings %v values %v, want %v %v",
				what, i, got.now[i], got.vals[i], want.now[i], want.vals[i])
		}
	}
	if got.elapsed != want.elapsed || got.events != want.events {
		t.Errorf("%s: elapsed %d events %d, want %d %d", what, got.elapsed, got.events, want.elapsed, want.events)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", what, got.stats, want.stats)
	}
}

// TestSpinWhileMatchesLoop: every spin case gives the same readings,
// values, elapsed time and stats with SpinWhile as with the Go loop it
// replaces, on fresh machines and on one machine reset between runs, and
// the loop's event count is exactly the engine spin's plus the events its
// parked spins skipped.
func TestSpinWhileMatchesLoop(t *testing.T) {
	reused := newSmall()
	cfg := reused.cfg
	for round := 0; round < 2; round++ {
		for _, c := range spinCases {
			want := runSpinCase(New(cfg), c.setup, spinLoop)
			got := runSpinCase(New(cfg), c.setup, spinEngine)
			sameSpinRecord(t, c.name+" fresh", got, want)
			if (got.skipped > 0) != c.parks {
				t.Errorf("%s: engine spin skipped %d events, want parking %v", c.name, got.skipped, c.parks)
			}
			for _, spin := range []spinFunc{spinEngine, spinLoop} {
				if !reused.Reset(cfg) {
					t.Fatal("Reset refused the machine's own config")
				}
				sameSpinRecord(t, c.name+" reused", runSpinCase(reused, c.setup, spin), want)
			}
		}
	}
}

// TestSpinWakeTies: over the writers' phases, some wakes arrive on the
// cycle of a skipped load or dispatch, with the writer remote from or
// local to the flag's home and the spinner at it, and every such run
// matches the loop.
func TestSpinWakeTies(t *testing.T) {
	cfg := newSmall().cfg
	var ties uint64
	for _, policy := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD} {
		for _, gap := range []sim.Time{0, 2} {
			for _, home := range []int{0, 1} {
				for d := sim.Time(0); d < 6; d++ {
					setup := spinWrites(policy, Less, gap, home, []sim.Time{70 + d, 20 + 2*d})
					want := runSpinCase(New(cfg), setup, spinLoop)
					got := runSpinCase(New(cfg), setup, spinEngine)
					sameSpinRecord(t, fmt.Sprintf("%v gap %d home %d delay %d", policy, gap, home, d), got, want)
					ties += got.ties
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no wake arrived on the cycle of a skipped event")
	}
}

// FuzzSpinWhileMatchesLoop draws a spin-wait and the writes that release
// it: the policy, the comparison, a gap in 0-255, the flag's home (the first
// spinner's node, the writer's or a third node), and the writer's compute
// delays, one per write. SpinWhile must reproduce the Go loop's record,
// its events counted with the ones parked spins skipped.
func FuzzSpinWhileMatchesLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), []byte{70, 20})
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), []byte{3})
	f.Add(uint8(0), uint8(2), uint8(5), uint8(2), []byte{0, 1, 2, 200})
	f.Add(uint8(1), uint8(0), uint8(200), uint8(0), []byte{250, 90, 255})
	cfg := newSmall().cfg
	f.Fuzz(func(t *testing.T, policy, cmp, gap, home uint8, delays []byte) {
		if len(delays) == 0 || len(delays) > 6 {
			t.Skip()
		}
		pol := []proto.Policy{proto.PolicyINV, proto.PolicyUPD}[policy%2]
		ds := make([]sim.Time, len(delays))
		for i, d := range delays {
			ds[i] = sim.Time(d)
		}
		setup := spinWrites(pol, Cmp(cmp%3), sim.Time(gap), []int{1, 0, 3}[home%3], ds)
		sameSpinRecord(t, "fuzz", runSpinCase(New(cfg), setup, spinEngine), runSpinCase(New(cfg), setup, spinLoop))
	})
}

// TestUnreleasedSpinDeadlocks: a spin nobody releases parks, leaves the
// engine nothing to run, and ends the run with the deadlock panic.
func TestUnreleasedSpinDeadlocks(t *testing.T) {
	m := newSmall()
	flag := m.AllocSyncAt(2, proto.PolicyINV)
	defer func() {
		if r := recover(); fmt.Sprint(r) != "machine: deadlock with 1 processors unfinished" {
			t.Fatalf("recovered %v, want the deadlock panic", r)
		}
	}()
	m.RunEach([]func(*Proc){func(p *Proc) { p.SpinWhile(flag, Equal, 0, 2) }, nil, nil, nil})
	t.Fatal("RunEach returned")
}

// TestCmpHolds checks the comparisons directly: spinLoop shares them with
// SpinWhile, so the equivalence test cannot.
func TestCmpHolds(t *testing.T) {
	for _, c := range []struct {
		cmp  Cmp
		v, x arch.Word
		want bool
	}{
		{Less, 1, 2, true}, {Less, 2, 2, false}, {Less, 3, 2, false},
		{Equal, 2, 2, true}, {Equal, 1, 2, false},
		{NotEqual, 1, 2, true}, {NotEqual, 2, 2, false},
	} {
		if got := c.cmp.holds(c.v, c.x); got != c.want {
			t.Errorf("Cmp %d holds(%d, %d) = %v, want %v", c.cmp, c.v, c.x, got, c.want)
		}
	}
}
