package dsm

import (
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m := NewSmall(4)
	counter := m.AllocSync(INV)
	m.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.FetchAdd(counter, 1)
		}
	})
	if m.Peek(counter) != 20 {
		t.Fatalf("counter = %d, want 20", m.Peek(counter))
	}
}

func TestNewSmallGeometries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 9, 16, 17, 33, 64} {
		m := NewSmall(n)
		if m.Procs() != n {
			t.Fatalf("NewSmall(%d).Procs() = %d", n, m.Procs())
		}
	}
}

func TestNew64(t *testing.T) {
	m := New64()
	if m.Procs() != 64 {
		t.Fatalf("Procs = %d", m.Procs())
	}
}

func TestLocksThroughFacade(t *testing.T) {
	m := NewSmall(4)
	l := NewTTSLock(m, INV, Options{Prim: CAS})
	shared := m.Alloc(4)
	m.Run(func(p *Proc) {
		for i := 0; i < 4; i++ {
			l.Acquire(p)
			p.Store(shared, p.Load(shared)+1)
			l.Release(p)
		}
	})
	if m.Peek(shared) != 16 {
		t.Fatalf("shared = %d", m.Peek(shared))
	}
}

func TestMCSAndBarrierThroughFacade(t *testing.T) {
	m := NewSmall(4)
	l := NewMCSLock(m, UNC, Options{Prim: LLSC})
	b := NewTreeBarrier(m)
	shared := m.Alloc(4)
	m.Run(func(p *Proc) {
		l.Acquire(p)
		p.Store(shared, p.Load(shared)+1)
		l.Release(p)
		b.Wait(p)
		if v := p.Load(shared); v != 4 {
			t.Errorf("processor %d sees %d after barrier", p.ID(), v)
		}
	})
}

func TestSyntheticAppsThroughFacade(t *testing.T) {
	pat := Pattern{Contention: 2, Rounds: 3}
	for name, run := range map[string]func(*Machine, Policy, Options, Pattern) PatternResult{
		"counter": CounterApp, "tts": TTSApp, "mcs": MCSApp,
	} {
		m := NewSmall(4)
		res := run(m, INV, Options{Prim: CAS}, pat)
		if res.Ops != 6 {
			t.Fatalf("%s: updates = %d, want 6", name, res.Ops)
		}
		if res.AvgCycles <= 0 {
			t.Fatalf("%s: no cycles", name)
		}
	}
}

func TestConfigKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	cfg.CAS = CASShare
	cfg.ResvScheme = ResvSerial
	m := NewMachine(cfg)
	a := m.AllocSync(UNC)
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			v := p.LoadLinked(a)
			if !p.StoreConditional(a, v+1) {
				t.Error("SC failed under serial scheme")
			}
		},
		nil, nil, nil,
	})
	if m.Peek(a) != 1 {
		t.Fatalf("value = %d", m.Peek(a))
	}
}

func TestCustomAlgorithmOnPublicAPI(t *testing.T) {
	// A ticket lock built from the public API: FAI for tickets, plain
	// loads for the grant word.
	m := NewSmall(4)
	ticket := m.AllocSync(UNC)
	grant := m.Alloc(4)
	shared := m.Alloc(4)
	m.Run(func(p *Proc) {
		for i := 0; i < 3; i++ {
			my := p.FetchAdd(ticket, 1)
			for p.Load(grant) != my {
				p.Compute(8)
			}
			p.Store(shared, p.Load(shared)+1)
			p.Store(grant, my+1)
		}
	})
	if m.Peek(shared) != 12 {
		t.Fatalf("shared = %d, want 12", m.Peek(shared))
	}
}
