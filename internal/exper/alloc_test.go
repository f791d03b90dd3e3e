package exper_test

import (
	"testing"

	"dsm/internal/apps"
	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
)

// The core-level TestHotPathZeroAlloc pins the protocol/engine loop at zero
// steady-state allocations. These tests pin the full machine stack above
// it — machine reset, program start, barrier release, app closures,
// tracker reuse — so a regression anywhere above the engine fails a test
// rather than silently re-inflating per-run allocations.

// benchPoint is an 8-proc contended counter under UNC/fetch_add, the
// scale of serve's small miss-path simulations.
func benchPoint() (exper.Bar, exper.RunOpts, apps.Pattern) {
	bar := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	o := exper.RunOpts{Procs: 8, Rounds: 3}
	pat := apps.Pattern{Contention: 8, Rounds: o.Rounds}
	return bar, o, pat
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

// TestHotPathZeroAllocPointRun pins the one-off path: repeated Point.Run
// calls reuse the shared slot's machine instead of building one each.
func TestHotPathZeroAllocPointRun(t *testing.T) {
	bar, o, pat := benchPoint()
	pt := exper.Point{App: exper.AppCounter, Bar: bar, Scale: o, Pattern: pat}
	run := func() { pt.Run(false) }
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("one-off point run allocates %.1f times per run, want 0", n)
	}
}

// TestHotPathZeroAllocMachineSlot64 reruns 64-node points, the sweep's
// machine size, on one reused slot: the Michael-Scott queue with LL/SC
// under UPD, and the Treiber stack with CAS under INV. At 64 nodes every
// home node holds directory, memory and busy-state pages, and the
// per-word statistics tables see many locations; all of them must be
// reused across runs rather than allocated again.
func TestHotPathZeroAllocMachineSlot64(t *testing.T) {
	o := exper.RunOpts{Procs: 64, Rounds: 2}
	pat := apps.Pattern{Contention: 64, Rounds: o.Rounds}
	for _, pt := range []exper.Point{
		{App: exper.AppMSQueue, Bar: exper.Bar{Policy: core.PolicyUPD, Prim: locks.PrimLLSC}, Scale: o, Pattern: pat},
		{App: exper.AppStack, Bar: exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimCAS}, Scale: o, Pattern: pat},
	} {
		t.Run(pt.App.Name(), func(t *testing.T) {
			var s exper.MachineSlot
			run := func() { pt.RunSlot(&s, false) }
			for i := 0; i < 3; i++ {
				run()
			}
			if n := testing.AllocsPerRun(5, run); n != 0 {
				t.Fatalf("64-node slot run allocates %.1f times per run, want 0", n)
			}
		})
	}
}
