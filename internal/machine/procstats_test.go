package machine

import (
	"testing"

	"dsm/internal/proto"
)

func TestProcStatsCountOps(t *testing.T) {
	m := newSmall()
	a := m.Alloc(4)
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			p.Store(a, 1)
			p.Load(a)
			p.FetchAdd(a, 1)
		},
		nil, nil, nil,
	})
	s := m.ProcStats(0)
	if s.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", s.Ops)
	}
	if s.MemoryCycles == 0 {
		t.Fatal("no memory cycles recorded")
	}
	if idle := m.ProcStats(1); idle.Ops != 0 {
		t.Fatalf("idle processor has %d ops", idle.Ops)
	}
}

func TestProcStatsComputeAndBarrier(t *testing.T) {
	m := newSmall()
	m.Run(func(p *Proc) {
		p.Compute(100)
		p.Barrier()
		p.Barrier()
	})
	for i := 0; i < m.Procs(); i++ {
		s := m.ProcStats(i)
		if s.ComputeCycles != 100 {
			t.Fatalf("proc %d ComputeCycles = %d", i, s.ComputeCycles)
		}
		if s.Barriers != 2 {
			t.Fatalf("proc %d Barriers = %d", i, s.Barriers)
		}
	}
}

func TestProcStatsMemoryCyclesReflectLocality(t *testing.T) {
	m := newSmall()
	local := m.AllocSyncAt(0, proto.PolicyINV)
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.FetchAdd(local, 1) // after the first, all local hits
			}
		},
		nil, nil, nil,
	})
	localCycles := m.ProcStats(0).MemoryCycles
	m2 := newSmall()
	remoteAddr := m2.AllocSyncAt(3, proto.PolicyUNC)
	m2.RunEach([]func(*Proc){
		func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.FetchAdd(remoteAddr, 1) // every op crosses the mesh
			}
		},
		nil, nil, nil,
	})
	remoteCycles := m2.ProcStats(0).MemoryCycles
	if remoteCycles <= localCycles {
		t.Fatalf("remote UNC ops (%d cycles) not slower than local INV hits (%d)",
			remoteCycles, localCycles)
	}
}
