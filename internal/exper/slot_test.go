package exper

import (
	"bytes"
	"testing"

	"dsm/internal/core"
	"dsm/internal/locks"
)

// TestSweepPerWorkerMachineDeterminism pins the per-worker machine
// ownership contract: a plan whose workers each reuse one resident machine
// across points — including points of different geometry, which force the
// slot to rebuild mid-sweep — produces byte-identical results at par 1 and
// par 8, full reports included.
func TestSweepPerWorkerMachineDeterminism(t *testing.T) {
	small := RunOpts{Procs: 4, Rounds: 2}
	large := RunOpts{Procs: 8, Rounds: 2}
	var points []Point
	for _, o := range []RunOpts{small, large, small, large} {
		for _, bar := range SyntheticBars()[:4] {
			points = append(points, Point{
				App: AppCounter, Bar: bar, Scale: o,
				Pattern: Pattern{Contention: o.Procs, Rounds: o.Rounds},
			})
		}
	}
	run := func(par int) []Result {
		return Run(Plan{Points: points, Par: par, Collect: true})
	}
	serial := run(1)
	par8 := run(8)
	if len(par8) != len(serial) {
		t.Fatalf("par=8: %d results, want %d", len(par8), len(serial))
	}
	for i := range serial {
		if headline(par8[i]) != headline(serial[i]) {
			t.Fatalf("point %d: par=8 %+v != par=1 %+v", i, par8[i], serial[i])
		}
		var a, b bytes.Buffer
		if err := serial[i].Report.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := par8[i].Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("point %d: par=8 report differs from par=1\n%s\n--- vs ---\n%s",
				i, b.String(), a.String())
		}
	}
}

// TestMachineSlotReusesResidentMachine checks the slot actually reuses its
// machine for matching geometry (no rebuild per point) and rebuilds only
// on a structural mismatch.
func TestMachineSlotReusesResidentMachine(t *testing.T) {
	bar := Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	var s MachineSlot
	m1 := s.Machine(MachineConfig(RunOpts{Procs: 8}, bar))
	m2 := s.Machine(MachineConfig(RunOpts{Procs: 8}, bar))
	if m1 != m2 {
		t.Fatal("slot rebuilt a machine for matching geometry")
	}
	m3 := s.Machine(MachineConfig(RunOpts{Procs: 4}, bar))
	if m3 == m1 {
		t.Fatal("slot reused a machine across a geometry change")
	}
	if got := m3.Procs(); got != 4 {
		t.Fatalf("rebuilt machine has %d procs, want 4", got)
	}
}

// TestRunSlotMatchesRun checks that a worker's own slot and the slot Run
// shares produce identical results for the same point: determinism is per
// run, not per machine.
func TestRunSlotMatchesRun(t *testing.T) {
	p := Point{
		App:     AppCounter,
		Bar:     Bar{Policy: core.PolicyINV, Prim: locks.PrimCAS},
		Scale:   RunOpts{Procs: 8, Rounds: 3},
		Pattern: Pattern{Contention: 8, Rounds: 3},
	}
	want := p.Run(false)
	var s MachineSlot
	for i := 0; i < 3; i++ {
		if got := p.RunSlot(&s, false); got != want {
			t.Fatalf("RunSlot pass %d: %+v != Run %+v", i, got, want)
		}
	}
}
