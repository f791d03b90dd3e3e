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
	"dsm/internal/core"
	"dsm/internal/locks"
)

// Pattern aliases the synthetic sharing pattern for brevity.
type Pattern = apps.Pattern

// Bar is one bar of the paper's figures 3-6: a primitive family under a
// coherence policy with a choice of auxiliary instructions and CAS variant.
type Bar struct {
	Label   string
	Policy  core.Policy
	Prim    locks.Prim
	Variant core.CASVariant // INV-policy CAS implementation
	LoadEx  bool            // pair compare_and_swap with load_exclusive
	Drop    bool            // issue drop_copy after updates
}

// Opts converts the bar into algorithm options.
func (b Bar) Opts() locks.Options {
	return locks.Options{Prim: b.Prim, UseLoadExclusive: b.LoadEx, Drop: b.Drop}
}

// SyntheticBars returns the paper's 21 bars in figure order: UNC
// (FAP/LLSC/CAS), INV without and with drop_copy (FAP, LLSC, and the four
// CAS implementations INV, INVd, INVs, INV+load_exclusive), and UPD
// without and with drop_copy (FAP/LLSC/CAS).
func SyntheticBars() []Bar {
	var bars []Bar
	add := func(label string, p core.Policy, pr locks.Prim, v core.CASVariant, ldex, drop bool) {
		bars = append(bars, Bar{Label: label, Policy: p, Prim: pr, Variant: v, LoadEx: ldex, Drop: drop})
	}
	// UNC
	add("UNC FAP", core.PolicyUNC, locks.PrimFAP, core.CASPlain, false, false)
	add("UNC LLSC", core.PolicyUNC, locks.PrimLLSC, core.CASPlain, false, false)
	add("UNC CAS", core.PolicyUNC, locks.PrimCAS, core.CASPlain, false, false)
	// INV, without and with drop_copy
	for _, drop := range []bool{false, true} {
		suffix := ""
		if drop {
			suffix = "+drop"
		}
		add("INV FAP"+suffix, core.PolicyINV, locks.PrimFAP, core.CASPlain, false, drop)
		add("INV LLSC"+suffix, core.PolicyINV, locks.PrimLLSC, core.CASPlain, false, drop)
		add("INV CAS"+suffix, core.PolicyINV, locks.PrimCAS, core.CASPlain, false, drop)
		add("INVd CAS"+suffix, core.PolicyINV, locks.PrimCAS, core.CASDeny, false, drop)
		add("INVs CAS"+suffix, core.PolicyINV, locks.PrimCAS, core.CASShare, false, drop)
		add("INV CAS+ldex"+suffix, core.PolicyINV, locks.PrimCAS, core.CASPlain, true, drop)
	}
	// UPD, without and with drop_copy
	for _, drop := range []bool{false, true} {
		suffix := ""
		if drop {
			suffix = "+drop"
		}
		add("UPD FAP"+suffix, core.PolicyUPD, locks.PrimFAP, core.CASPlain, false, drop)
		add("UPD LLSC"+suffix, core.PolicyUPD, locks.PrimLLSC, core.CASPlain, false, drop)
		add("UPD CAS"+suffix, core.PolicyUPD, locks.PrimCAS, core.CASPlain, false, drop)
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
func Patterns(o RunOpts) []Pattern {
	pats := []Pattern{
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
		pats = append(pats, Pattern{Contention: c, Rounds: o.Rounds})
	}
	return pats
}
