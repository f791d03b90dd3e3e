package locks

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/dir"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

// newM returns a small machine for fast tests.
func newM(procs int, mut ...func(*core.Config)) *machine.Machine {
	cfg := core.DefaultConfig()
	cfg.Nodes = procs
	switch {
	case procs <= 4:
		cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	case procs <= 16:
		cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
	default:
		cfg.Mesh.Width, cfg.Mesh.Height = 8, 8
	}
	for _, f := range mut {
		f(&cfg)
	}
	return machine.New(cfg)
}

func allPolicies() []core.Policy {
	return []core.Policy{core.PolicyINV, core.PolicyUPD, core.PolicyUNC}
}

// ------------------------------------------------------------ counter ---

func TestCounterAllPrimsAllPolicies(t *testing.T) {
	const iters = 10
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		for _, pol := range allPolicies() {
			prim, pol := prim, pol
			t.Run(prim.String()+"/"+pol.String(), func(t *testing.T) {
				m := newM(4)
				c := NewCounter(m, pol, Options{Prim: prim})
				m.Run(func(p *machine.Proc) {
					for i := 0; i < iters; i++ {
						c.Inc(p)
					}
				})
				if got := m.Peek(c.Addr); got != 4*iters {
					t.Fatalf("counter = %d, want %d", got, 4*iters)
				}
				m.System().CheckCoherence()
			})
		}
	}
}

func TestCounterWithLoadExclusive(t *testing.T) {
	m := newM(4)
	c := NewCounter(m, core.PolicyINV, Options{Prim: PrimCAS, UseLoadExclusive: true})
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 10; i++ {
			c.Inc(p)
		}
	})
	if got := m.Peek(c.Addr); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}

func TestCounterWithDropCopy(t *testing.T) {
	m := newM(4)
	c := NewCounter(m, core.PolicyINV, Options{Prim: PrimFAP, Drop: true})
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			c.Inc(p)
		}
	})
	if got := m.Peek(c.Addr); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
	m.System().CheckCoherence()
}

func TestCounterIncReturnsOldValues(t *testing.T) {
	m := newM(4)
	c := NewCounter(m, core.PolicyUNC, Options{Prim: PrimFAP})
	seen := make(map[arch.Word]bool)
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			old := c.Inc(p)
			if seen[old] {
				t.Errorf("duplicate fetched value %d", old)
			}
			seen[old] = true
		}
	})
}

// -------------------------------------------------------------- swap ----

func TestSwapAllPrims(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			a := m.AllocSync(core.PolicyINV)
			opts := Options{Prim: prim}
			// Each processor swaps in its id+1; every fetched value must
			// be distinct (0 plus three of the four ids).
			var got [4]arch.Word
			m.Run(func(p *machine.Proc) {
				got[p.ID()] = opts.Swap(p, a, arch.Word(p.ID()+1))
			})
			seen := map[arch.Word]bool{}
			for _, v := range got {
				if seen[v] {
					t.Fatalf("duplicate swap result %d", v)
				}
				seen[v] = true
			}
			if !seen[0] {
				t.Fatal("initial value never fetched")
			}
		})
	}
}

func TestCASPanicsForFAP(t *testing.T) {
	m := newM(4)
	a := m.AllocSync(core.PolicyINV)
	opts := Options{Prim: PrimFAP}
	panicked := false
	// Recover inside the program, so the run itself completes.
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			defer func() { panicked = recover() != nil }()
			opts.CAS(p, a, 0, 1)
		},
		nil, nil, nil,
	})
	if !panicked {
		t.Fatal("FAP CAS did not panic")
	}
}

func TestSimulatedCASFailsOnMismatch(t *testing.T) {
	m := newM(4)
	a := m.AllocSync(core.PolicyINV)
	opts := Options{Prim: PrimLLSC}
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			p.Store(a, 5)
			if opts.CAS(p, a, 4, 9) {
				t.Error("simulated CAS succeeded with wrong expected value")
			}
			if !opts.CAS(p, a, 5, 9) {
				t.Error("simulated CAS failed with right expected value")
			}
		},
		nil, nil, nil,
	})
	if m.Peek(a) != 9 {
		t.Fatalf("value = %d", m.Peek(a))
	}
}

// --------------------------------------------------------------- TTS ----

func TestTTSMutualExclusion(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		for _, pol := range allPolicies() {
			prim, pol := prim, pol
			t.Run(prim.String()+"/"+pol.String(), func(t *testing.T) {
				testLockMutualExclusion(t, func(m *machine.Machine) lock {
					return NewTTSLock(m, pol, Options{Prim: prim})
				})
			})
		}
	}
}

func TestTTSWithDrop(t *testing.T) {
	testLockMutualExclusion(t, func(m *machine.Machine) lock {
		return NewTTSLock(m, core.PolicyINV, Options{Prim: PrimFAP, Drop: true})
	})
}

// TestNextBackoffCapsAtMax: doubling never passes the cap, also from a
// minimum that is not a power-of-two fraction of it (3 once reached 1536
// under a cap of 1000), and the defaults still reach their caps exactly.
func TestNextBackoffCapsAtMax(t *testing.T) {
	for _, c := range []struct{ min, max, want sim.Time }{
		{3, 1000, 1000}, {16, 1024, 1024}, {16, 512, 512}, {600, 1000, 1000}, {5, 5, 5},
	} {
		b, prev := c.min, sim.Time(0)
		for i := 0; i < 20; i++ {
			prev, b = b, nextBackoff(b, c.max)
			if b > c.max || b < prev {
				t.Fatalf("min %d max %d: %d after %d", c.min, c.max, b, prev)
			}
		}
		if b != c.want {
			t.Errorf("min %d max %d: settles at %d, want %d", c.min, c.max, b, c.want)
		}
	}
	if got := nextBackoff(3, 1000); got != 6 {
		t.Errorf("nextBackoff(3, 1000) = %d, want 6", got)
	}
	if got := nextBackoff(768, 1000); got != 1000 {
		t.Errorf("nextBackoff(768, 1000) = %d, want 1000", got)
	}
}

// lock abstracts the two lock types for shared tests.
type lock interface {
	Acquire(p *machine.Proc)
	Release(p *machine.Proc)
}

// testLockMutualExclusion drives a racy critical section: a non-atomic
// read-modify-write on a shared word. Any mutual-exclusion failure loses
// increments.
func testLockMutualExclusion(t *testing.T, mk func(*machine.Machine) lock) {
	t.Helper()
	const procs, iters = 8, 6
	m := newM(procs)
	l := mk(m)
	shared := m.Alloc(4)
	inCS := 0
	m.Run(func(p *machine.Proc) {
		for i := 0; i < iters; i++ {
			l.Acquire(p)
			inCS++
			if inCS != 1 {
				t.Errorf("%d processors in the critical section", inCS)
			}
			v := p.Load(shared)
			p.Compute(20) // widen the race window
			p.Store(shared, v+1)
			inCS--
			l.Release(p)
			p.Compute(sim.Time(p.Rand().Intn(30)))
		}
	})
	if got := m.Peek(shared); got != procs*iters {
		t.Fatalf("critical-section counter = %d, want %d (lost updates)", got, procs*iters)
	}
	m.System().CheckCoherence()
}

// --------------------------------------------------------------- MCS ----

func TestMCSMutualExclusion(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		for _, pol := range allPolicies() {
			prim, pol := prim, pol
			t.Run(prim.String()+"/"+pol.String(), func(t *testing.T) {
				testLockMutualExclusion(t, func(m *machine.Machine) lock {
					return NewMCSLock(m, pol, Options{Prim: prim})
				})
			})
		}
	}
}

func TestMCSUncontendedAcquireReleaseIsCheap(t *testing.T) {
	// An uncontended MCS acquire is one swap; release is one CAS. No
	// spinning should occur.
	m := newM(4)
	l := NewMCSLock(m, core.PolicyINV, Options{Prim: PrimCAS})
	var cycles sim.Time
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			start := p.Now()
			l.Acquire(p)
			l.Release(p)
			cycles = p.Now() - start
		},
		nil, nil, nil,
	})
	if cycles == 0 || cycles > 2000 {
		t.Fatalf("uncontended acquire+release took %d cycles", cycles)
	}
}

func TestMCSBareSCReleaseWithSerialScheme(t *testing.T) {
	m := newM(8, func(c *core.Config) { c.ResvScheme = dir.ResvSerial })
	l := NewMCSLock(m, core.PolicyUNC, Options{Prim: PrimLLSC})
	l.BareSCRelease = true
	shared := m.Alloc(4)
	const iters = 6
	m.Run(func(p *machine.Proc) {
		for i := 0; i < iters; i++ {
			l.Acquire(p)
			v := p.Load(shared)
			p.Compute(15)
			p.Store(shared, v+1)
			l.Release(p)
		}
	})
	if got := m.Peek(shared); got != 8*iters {
		t.Fatalf("counter = %d, want %d", got, 8*iters)
	}
}

// ----------------------------------------------------------- barrier ----

func TestTreeBarrierNoOvertaking(t *testing.T) {
	const procs, rounds = 16, 5
	m := newM(procs)
	b := NewTreeBarrier(m)
	phase := make([]int, procs)
	m.Run(func(p *machine.Proc) {
		for r := 0; r < rounds; r++ {
			phase[p.ID()] = r
			p.Compute(sim.Time(p.Rand().Intn(50)))
			b.Wait(p)
			// After the barrier, nobody may still be in an earlier phase.
			for other, ph := range phase {
				if ph < r {
					t.Errorf("round %d: processor %d still in phase %d", r, other, ph)
				}
			}
		}
	})
}

func TestTreeBarrierFullMachine(t *testing.T) {
	const procs = 64
	m := newM(procs)
	b := NewTreeBarrier(m)
	a := m.AllocSync(core.PolicyUNC)
	m.Run(func(p *machine.Proc) {
		for r := 0; r < 3; r++ {
			if p.ID() == 0 {
				p.FetchAdd(a, 1)
			}
			b.Wait(p)
			if v := p.Load(a); v != arch.Word(r+1) {
				t.Errorf("round %d: processor %d sees %d", r, p.ID(), v)
			}
			b.Wait(p)
		}
	})
}

func TestPrimString(t *testing.T) {
	if PrimFAP.String() != "FAP" || PrimCAS.String() != "CAS" || PrimLLSC.String() != "LLSC" {
		t.Fatal("prim names wrong")
	}
}
