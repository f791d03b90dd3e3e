package exper_test

import (
	"reflect"
	"testing"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
)

// geometries returns n distinct machine configurations (distinct processor
// counts, hence distinct mesh geometries).
func geometries(n int) []core.Config {
	bar := exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimFAP}
	out := make([]core.Config, n)
	for i := range out {
		out[i] = exper.MachineConfig(exper.RunOpts{Procs: 1 << i}, bar)
	}
	return out
}

func TestSlotLRUBoundAndAccounting(t *testing.T) {
	cfgs := geometries(exper.SlotMachines + 2)
	var s exper.MachineSlot

	// Distinct geometries each build once; residency never exceeds the
	// bound.
	for i, cfg := range cfgs {
		s.Machine(cfg)
		if got := s.Resident(); got > exper.SlotMachines {
			t.Fatalf("after %d geometries: %d resident machines, bound is %d", i+1, got, exper.SlotMachines)
		}
	}
	if builds, resets := s.Stats(); builds != uint64(len(cfgs)) || resets != 0 {
		t.Fatalf("after %d distinct geometries: builds=%d resets=%d", len(cfgs), builds, resets)
	}

	// The most recent SlotMachines geometries are resident: re-requesting
	// them is all resets, and each returns the same machine it returned
	// before (identity, not just equivalence).
	recent := cfgs[len(cfgs)-exper.SlotMachines:]
	prev := make(map[int]any)
	for i, cfg := range recent {
		prev[i] = s.Machine(cfg)
	}
	builds0, _ := s.Stats()
	for i, cfg := range recent {
		if m := s.Machine(cfg); m != prev[i] {
			t.Fatalf("geometry %d: reuse returned a different machine", i)
		}
	}
	builds, resets := s.Stats()
	if builds != builds0 {
		t.Fatalf("re-requesting resident geometries built %d machines", builds-builds0)
	}
	if resets != uint64(2*len(recent)) {
		t.Fatalf("resets=%d, want %d", resets, 2*len(recent))
	}

	// The oldest geometry was evicted: requesting it builds again.
	s.Machine(cfgs[0])
	if b, _ := s.Stats(); b != builds+1 {
		t.Fatalf("evicted geometry did not rebuild: builds %d -> %d", builds, b)
	}
}

func TestSlotLRUEvictsLeastRecentlyUsed(t *testing.T) {
	cfgs := geometries(exper.SlotMachines + 1)
	var s exper.MachineSlot
	// Fill the slot with cfgs[0..bound-1], then touch cfgs[0] so cfgs[1]
	// becomes the least recently used.
	for _, cfg := range cfgs[:exper.SlotMachines] {
		s.Machine(cfg)
	}
	s.Machine(cfgs[0])
	// Inserting a new geometry must evict cfgs[1], not cfgs[0].
	s.Machine(cfgs[exper.SlotMachines])
	builds0, _ := s.Stats()
	s.Machine(cfgs[0])
	if b, _ := s.Stats(); b != builds0 {
		t.Fatal("recently-touched geometry was evicted")
	}
	s.Machine(cfgs[1])
	if b, _ := s.Stats(); b != builds0+1 {
		t.Fatal("least-recently-used geometry was not the one evicted")
	}
}

// mixedGeometryPlan interleaves three processor counts so consecutive plan
// indices almost never share a geometry.
func mixedGeometryPlan(par int) exper.Plan {
	bars := exper.SyntheticBars()
	var pts []exper.Point
	for i, procs := range []int{4, 8, 16, 4, 8, 16, 8, 4} {
		bar := bars[i%len(bars)]
		pts = append(pts, exper.Point{
			App:     exper.AppCounter,
			Bar:     bar,
			Scale:   exper.RunOpts{Procs: procs, Rounds: 2},
			Pattern: exper.Pattern{Contention: 2, Rounds: 2},
		})
	}
	return exper.Plan{Points: pts, Par: par}
}

func TestGroupedSweepDeterminism(t *testing.T) {
	serial := exper.Run(mixedGeometryPlan(1))
	wide := exper.Run(mixedGeometryPlan(8))
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("mixed-geometry plan results differ between par=1 and par=8:\n%+v\nvs\n%+v", serial, wide)
	}
}
