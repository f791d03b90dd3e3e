package machine

import (
	"slices"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
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
// and stats.
type spinRecord struct {
	now     [4][]sim.Time
	vals    [4][]arch.Word
	elapsed sim.Time
	events  uint64
	stats   [4]ProcStats
}

func (r *spinRecord) mark(p *Proc, v arch.Word) {
	r.now[p.ID()] = append(r.now[p.ID()], p.Now())
	r.vals[p.ID()] = append(r.vals[p.ID()], v)
}

// spinRelease: processor 0, remote from the flag's home at processor 1,
// releases three spinners on one flag under policy; the spinners arrive
// with staggered compute delays pending, then spin on a counter until all
// have joined.
func spinRelease(policy core.Policy, gap sim.Time) func(*Machine, spinFunc, *spinRecord) []func(*Proc) {
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

var spinCases = []struct {
	name  string
	setup func(*Machine, spinFunc, *spinRecord) []func(*Proc)
}{
	{"release-INV", spinRelease(core.PolicyINV, 2)},
	{"release-UPD", spinRelease(core.PolicyUPD, 2)},
	{"release-UNC", spinRelease(core.PolicyUNC, 2)},
	{"release-INV-gap0", spinRelease(core.PolicyINV, 0)},
	{"release-UNC-gap5", spinRelease(core.PolicyUNC, 5)},
	// Spins whose first load already fails the comparison, with and
	// without a compute delay pending, between timed actions on a flag
	// another processor keeps writing.
	{"zero-iterations", func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		a := m.AllocSyncAt(3, core.PolicyINV)
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
	}},
	// A handoff chain: each processor waits for the counter to reach its
	// turn, random compute between, the rest idle at a barrier.
	{"turns", func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		turn := m.AllocSyncAt(0, core.PolicyUPD)
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
	}},
}

func runSpinCase(m *Machine, setup func(*Machine, spinFunc, *spinRecord) []func(*Proc), spin spinFunc) spinRecord {
	var r spinRecord
	start := m.Engine().EventsExecuted()
	r.elapsed = m.RunEach(setup(m, spin, &r))
	r.events = m.Engine().EventsExecuted() - start
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
// values, elapsed time, event count and stats with SpinWhile as with the
// Go loop it replaces, on fresh machines and on one machine reset between
// runs.
func TestSpinWhileMatchesLoop(t *testing.T) {
	reused := newSmall()
	cfg := reused.cfg
	for round := 0; round < 2; round++ {
		for _, c := range spinCases {
			want := runSpinCase(New(cfg), c.setup, spinLoop)
			sameSpinRecord(t, c.name+" fresh", runSpinCase(New(cfg), c.setup, spinEngine), want)
			for _, spin := range []spinFunc{spinEngine, spinLoop} {
				if !reused.Reset(cfg) {
					t.Fatal("Reset refused the machine's own config")
				}
				sameSpinRecord(t, c.name+" reused", runSpinCase(reused, c.setup, spin), want)
			}
		}
	}
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
