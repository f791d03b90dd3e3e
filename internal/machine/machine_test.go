package machine

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// newSmall returns a 4-processor machine for fast tests.
func newSmall() *Machine {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	return New(cfg)
}

func TestRunSingleStoreLoad(t *testing.T) {
	m := newSmall()
	a := m.Alloc(4)
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			p.Store(a, 42)
			if v := p.Load(a); v != 42 {
				t.Errorf("load = %d", v)
			}
		},
		nil, nil, nil,
	})
	if m.Peek(a) != 42 {
		t.Fatalf("Peek = %d", m.Peek(a))
	}
}

func TestRunAllProcessorsFetchAdd(t *testing.T) {
	m := newSmall()
	a := m.AllocSync(proto.PolicyINV)
	elapsed := m.Run(func(p *Proc) {
		p.FetchAdd(a, 1)
	})
	if elapsed == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if m.Peek(a) != 4 {
		t.Fatalf("counter = %d, want 4", m.Peek(a))
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := newSmall()
		a := m.AllocSync(proto.PolicyINV)
		b := m.AllocSync(proto.PolicyUNC)
		return m.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.FetchAdd(a, 1)
				if p.Rand().Intn(2) == 0 {
					p.FetchAdd(b, 1)
				}
				p.Compute(sim.Time(p.Rand().Intn(5)))
			}
		})
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatalf("elapsed differs between identical runs: %d vs %d", t1, t2)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	m := newSmall()
	var start, end sim.Time
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			start = p.Now()
			p.Compute(100)
			end = p.Now()
		},
		nil, nil, nil,
	})
	if end-start != 100 {
		t.Fatalf("Compute(100) advanced %d cycles", end-start)
	}
}

func TestBarrierSynchronizesAllProcessors(t *testing.T) {
	m := newSmall()
	var after [4]sim.Time
	m.Run(func(p *Proc) {
		p.Compute(sim.Time(10 * (p.ID() + 1))) // staggered arrivals
		p.Barrier()
		after[p.ID()] = p.Now()
	})
	for i := 1; i < 4; i++ {
		if after[i] != after[0] {
			t.Fatalf("barrier release times differ: %v", after)
		}
	}
	if after[0] < 40 {
		t.Fatalf("barrier released at %d, before last arrival", after[0])
	}
}

func TestBarrierReusable(t *testing.T) {
	m := newSmall()
	a := m.AllocSync(proto.PolicyUNC)
	m.Run(func(p *Proc) {
		for i := 0; i < 3; i++ {
			if p.ID() == i%4 {
				p.FetchAdd(a, 1)
			}
			p.Barrier()
		}
	})
	if m.Peek(a) != 3 {
		t.Fatalf("counter = %d, want 3", m.Peek(a))
	}
}

func TestRunEachDistinctPrograms(t *testing.T) {
	m := newSmall()
	a := m.Alloc(4)
	m.RunEach([]func(*Proc){
		func(p *Proc) { p.Store(a, 1) },
		nil,
		nil,
		nil,
	})
	m.RunEach([]func(*Proc){
		nil,
		func(p *Proc) {
			if v := p.Load(a); v != 1 {
				t.Errorf("proc 1 read %d", v)
			}
		},
		nil, nil,
	})
}

func TestAllocBlockAlignedAndDisjoint(t *testing.T) {
	m := newSmall()
	a := m.Alloc(100)
	b := m.Alloc(4)
	if a%arch.BlockBytes != 0 || b%arch.BlockBytes != 0 {
		t.Fatal("allocations not block aligned")
	}
	if b < a+100 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocSyncAtPlacesHome(t *testing.T) {
	m := newSmall()
	for home := 0; home < 4; home++ {
		a := m.AllocSyncAt(mesh.NodeID(home), proto.PolicyUNC)
		if got := m.System().HomeOf(a); int(got) != home {
			t.Fatalf("AllocSyncAt(%d) homed at %d", home, got)
		}
		if m.System().PolicyOf(a) != proto.PolicyUNC {
			t.Fatal("policy not applied")
		}
	}
}

func TestPokePeek(t *testing.T) {
	m := newSmall()
	a := m.Alloc(32)
	m.Poke(a+8, 77)
	if m.Peek(a+8) != 77 {
		t.Fatal("Poke/Peek mismatch")
	}
}

func TestPeekSeesDirtyCacheData(t *testing.T) {
	m := newSmall()
	a := m.Alloc(4)
	m.RunEach([]func(*Proc){
		func(p *Proc) { p.Store(a, 9) }, // exclusive dirty in cache 0
		nil, nil, nil,
	})
	if m.Peek(a) != 9 {
		t.Fatalf("Peek = %d, want dirty value 9", m.Peek(a))
	}
}

func TestLLSCThroughProcAPI(t *testing.T) {
	m := newSmall()
	a := m.AllocSync(proto.PolicyINV)
	var ok1, ok2 bool
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			v := p.LoadLinked(a)
			ok1 = p.StoreConditional(a, v+1)
		},
		nil, nil, nil,
	})
	m.RunEach([]func(*Proc){
		nil,
		func(p *Proc) {
			v := p.LoadLinked(a)
			p.Compute(5)
			ok2 = p.StoreConditional(a, v+10)
		},
		nil, nil,
	})
	if !ok1 || !ok2 {
		t.Fatalf("SCs failed: %v %v", ok1, ok2)
	}
	if m.Peek(a) != 11 {
		t.Fatalf("value = %d, want 11", m.Peek(a))
	}
}

func TestCASThroughProcAPI(t *testing.T) {
	m := newSmall()
	a := m.AllocSync(proto.PolicyINV)
	var got [4]bool
	m.Run(func(p *Proc) {
		got[p.ID()] = p.CompareAndSwap(a, 0, arch.Word(p.ID()+1))
	})
	wins := 0
	for _, ok := range got {
		if ok {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d CAS winners", wins)
	}
}

func TestProcRandStreamsDiffer(t *testing.T) {
	m := newSmall()
	var first [4]uint64
	m.Run(func(p *Proc) {
		first[p.ID()] = p.Rand().Uint64()
	})
	seen := map[uint64]bool{}
	for _, v := range first {
		if seen[v] {
			t.Fatal("two processors share a random stream")
		}
		seen[v] = true
	}
}

func TestSequentialRunsAccumulateTime(t *testing.T) {
	m := newSmall()
	m.Run(func(p *Proc) { p.Compute(10) })
	before := m.Now()
	m.Run(func(p *Proc) { p.Compute(10) })
	if m.Now() <= before {
		t.Fatal("second run did not advance the clock")
	}
}

func TestDoExposesChain(t *testing.T) {
	m := newSmall()
	a := m.AllocSyncAt(1, proto.PolicyUNC)
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			r := p.Do(core.Request{Op: proto.OpStore, Addr: a, Val: 3})
			if r.Chain != 2 {
				t.Errorf("UNC store chain = %d, want 2", r.Chain)
			}
		},
		nil, nil, nil,
	})
}
