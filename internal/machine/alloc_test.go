package machine

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/sim"
)

// TestHotPathZeroAllocDeferredCompute pins the deferred-Compute path at
// zero steady-state allocations: a reset-and-rerun machine whose program
// spins with a compute delay before each load, meets at a barrier, and ends
// with a compute delay carried on its exit.
func TestHotPathZeroAllocDeferredCompute(t *testing.T) {
	m := newSmall()
	cfg := m.cfg
	var a arch.Addr
	prog := func(p *Proc) {
		p.FetchAdd(a, 1)
		for {
			p.Compute(sim.Time(1 + p.Rand().Intn(4)))
			if p.Load(a) == arch.Word(m.Procs()) {
				break
			}
		}
		p.Barrier()
		p.Compute(3)
		p.Compute(5)
	}
	run := func() {
		if !m.Reset(cfg) {
			t.Fatal("Reset refused the machine's own config")
		}
		a = m.AllocSync(core.PolicyINV)
		m.Run(prog)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("deferred-Compute run allocates %.1f times per run, want 0", n)
	}
}
