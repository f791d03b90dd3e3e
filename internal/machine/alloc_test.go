package machine

import (
	"runtime"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/mesh"
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

// TestHotPathZeroAllocSpin pins the engine-side spin at zero steady-state
// allocations: a reset-and-rerun machine whose processors pass a token
// MCS-style, each spinning through SpinWhile on a flag homed at its own
// node until its predecessor hands over.
func TestHotPathZeroAllocSpin(t *testing.T) {
	m := newSmall()
	cfg := m.cfg
	var flags [4]arch.Addr
	var count arch.Addr
	prog := func(p *Proc) {
		i := p.ID()
		if i > 0 {
			p.SpinWhile(flags[i], Equal, 0, 2)
		}
		p.FetchAdd(count, 1)
		if i+1 < len(flags) {
			p.Store(flags[i+1], 1)
		}
	}
	run := func() {
		if !m.Reset(cfg) {
			t.Fatal("Reset refused the machine's own config")
		}
		for i := range flags {
			flags[i] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
		}
		count = m.AllocSync(core.PolicyINV)
		m.Run(prog)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if got := m.Peek(count); got != 4 {
		t.Fatalf("count %d after the handoff, want 4", got)
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("SpinWhile run allocates %.1f times per run, want 0", n)
	}
}

// TestNewMachineBytes bounds what building the paper's 64-node machine
// allocates. Cache lines are paged in on first fill, so construction pays
// for controllers, directories and the mesh, not for 2,048 idle lines per
// node: 8.36 MB per machine when every cache was built whole, 0.27 MB with
// paged lines.
func TestNewMachineBytes(t *testing.T) {
	const limit = 1 << 20
	cfg := core.DefaultConfig()
	New(cfg) // first-use set-up outside the measurement
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > limit {
		t.Fatalf("machine.New(core.DefaultConfig()) allocates %d bytes, want at most %d", per, limit)
	}
}
