// Package exper is the experiment layer: it owns the paper's design space
// (which workload, under which primitive/policy bar, at what scale and
// sharing pattern) and executes it. A Point names one simulation, a Plan is
// an ordered list of points, and Run fans a plan's points across host
// workers, each reusing its own machine, and returns results — with
// optional byte-stable measurement reports — in plan order regardless of
// completion order.
//
// Everything above the machine model goes through this package:
// internal/figures renders plans as the paper's tables and figures,
// internal/serve answers HTTP requests by running single points and batch
// plans, and cmd/dsmsim runs one point from flags. The presentation layers
// (figures, serve) never import each other; exper is their shared substrate
// (see DESIGN.md §8, Layering).
package exper

import (
	"dsm/internal/apps"
	"dsm/internal/locks"
	"dsm/internal/proto"
)

// Bar is one bar of the paper's figures 3-6: a primitive family under a
// coherence policy with a choice of auxiliary instructions and CAS variant.
type Bar struct {
	Policy  proto.Policy
	Prim    locks.Prim
	Variant proto.CASVariant // INV-policy CAS implementation
	LoadEx  bool             // pair compare_and_swap with load_exclusive
	Drop    bool             // issue drop_copy after updates
}

// Opts converts the bar into algorithm options.
func (b Bar) Opts() locks.Options {
	return locks.Options{Prim: b.Prim, UseLoadExclusive: b.LoadEx, Drop: b.Drop}
}

// Label names the bar as the figures do: the policy (for an INV
// compare_and_swap bar, its CAS variant) and the primitive family, then
// "+ldex" and "+drop" for the auxiliary instructions it uses.
func (b Bar) Label() string {
	name := b.Policy.String()
	if b.Policy == proto.PolicyINV && b.Prim == locks.PrimCAS {
		name = b.Variant.String()
	}
	name += " " + b.Prim.String()
	if b.LoadEx {
		name += "+ldex"
	}
	if b.Drop {
		name += "+drop"
	}
	return name
}

// SyntheticBars returns the paper's 21 bars in figure order: UNC
// (FAP/LLSC/CAS), INV without and with drop_copy (FAP, LLSC, and the four
// CAS implementations INV, INVd, INVs, INV+load_exclusive), and UPD
// without and with drop_copy (FAP/LLSC/CAS).
func SyntheticBars() []Bar {
	bars := []Bar{
		{Policy: proto.PolicyUNC, Prim: locks.PrimFAP},
		{Policy: proto.PolicyUNC, Prim: locks.PrimLLSC},
		{Policy: proto.PolicyUNC, Prim: locks.PrimCAS},
	}
	for _, drop := range []bool{false, true} {
		bars = append(bars,
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimFAP, Drop: drop},
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimLLSC, Drop: drop},
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimCAS, Drop: drop},
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimCAS, Variant: proto.CASDeny, Drop: drop},
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimCAS, Variant: proto.CASShare, Drop: drop},
			Bar{Policy: proto.PolicyINV, Prim: locks.PrimCAS, LoadEx: true, Drop: drop})
	}
	for _, drop := range []bool{false, true} {
		bars = append(bars,
			Bar{Policy: proto.PolicyUPD, Prim: locks.PrimFAP, Drop: drop},
			Bar{Policy: proto.PolicyUPD, Prim: locks.PrimLLSC, Drop: drop},
			Bar{Policy: proto.PolicyUPD, Prim: locks.PrimCAS, Drop: drop})
	}
	return bars
}

// RunOpts scales an experiment: the full paper configuration is 64
// processors; smaller settings keep tests and benchmarks fast.
type RunOpts struct {
	Procs  int // simulated processors
	Rounds int // barrier-separated rounds per synthetic pattern

	// Par is the number of independent simulation runs executed
	// concurrently on host goroutines (see Sweep). 0 means GOMAXPROCS;
	// 1 restores fully serial execution. Results are identical for any
	// value: determinism is per-run, parallelism is across runs.
	Par int

	// Real-application size (figure 2 and 6).
	TCSize int // transitive-closure vertices
}

// Defaults is the paper-scale configuration.
func Defaults() RunOpts {
	return RunOpts{Procs: 64, Rounds: 16, TCSize: 32}
}

// Patterns returns the paper's ten sharing patterns: no contention with
// average write runs of 1, 1.5, 2, 3, and 10, and contention levels 2, 4,
// 8, 16, and 64 (clamped to the machine size).
func Patterns(o RunOpts) []apps.Pattern {
	pats := []apps.Pattern{
		{Contention: 1, WriteRun: 1, Rounds: o.Rounds},
		{Contention: 1, WriteRun: 1.5, Rounds: o.Rounds},
		{Contention: 1, WriteRun: 2, Rounds: o.Rounds},
		{Contention: 1, WriteRun: 3, Rounds: o.Rounds},
		{Contention: 1, WriteRun: 10, Rounds: o.Rounds},
	}
	seen := make(map[int]bool)
	for _, c := range []int{2, 4, 8, 16, 64} {
		if c > o.Procs {
			c = o.Procs
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		pats = append(pats, apps.Pattern{Contention: c, Rounds: o.Rounds})
	}
	return pats
}
