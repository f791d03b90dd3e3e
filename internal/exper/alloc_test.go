package exper_test

import (
	"testing"

	"dsm/internal/apps"
	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
)

// The core-level TestHotPathZeroAlloc pins the protocol/engine loop at zero
// steady-state allocations. These tests pin the *benchmarked* path — the
// full machine stack exactly as hostbench.MachineRun drives it — so a
// regression anywhere above the engine (machine reset, program start,
// barrier release, app closures, tracker reuse) fails CI rather
// than silently re-inflating HostMachine's allocs/op, as happened between
// PR 3 and PR 7.

// benchPoint is the HostMachine benchmark workload: an 8-proc contended
// counter under UNC/fetch_add.
func benchPoint() (exper.Bar, exper.RunOpts, apps.Pattern) {
	bar := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	o := exper.RunOpts{Procs: 8, Rounds: 3}
	pat := apps.Pattern{Contention: 8, Rounds: o.Rounds}
	return bar, o, pat
}

// TestHotPathZeroAllocMachinePool pins the pooled one-off path (what
// hostbench.MachineRun measures): acquire, run, release.
func TestHotPathZeroAllocMachinePool(t *testing.T) {
	bar, o, pat := benchPoint()
	run := func() {
		m := exper.NewMachine(o, bar)
		apps.CounterApp(m, bar.Policy, bar.Opts(), pat)
		exper.ReleaseMachine(m)
	}
	// Warm the pool, the engine free lists, and the app runner before
	// measuring the steady state.
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("pooled machine run allocates %.1f times per run, want 0", n)
	}
}

// TestHotPathZeroAllocMachineSlot pins the per-worker slot path — the one
// the sweep runner and the serving layer actually sit on.
func TestHotPathZeroAllocMachineSlot(t *testing.T) {
	bar, o, pat := benchPoint()
	var s exper.MachineSlot
	pt := exper.Point{App: exper.AppCounter, Bar: bar, Scale: o, Pattern: pat}
	run := func() { pt.RunSlot(&s, false) }
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("slot machine run allocates %.1f times per run, want 0", n)
	}
}
