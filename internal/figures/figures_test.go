package figures

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dsm/internal/apps"
	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
)

func TestTable1MatchesPaperExactly(t *testing.T) {
	for _, r := range exper.Table1Par(0) {
		if r.Got != r.Paper {
			t.Errorf("%s: measured %d serialized messages, paper says %d", r.Case, r.Got, r.Paper)
		}
	}
}

func TestWriteTable1Renders(t *testing.T) {
	var b bytes.Buffer
	WriteTable1Par(&b, 0)
	out := b.String()
	if !strings.Contains(out, "INV to remote exclusive") || strings.Contains(out, "MISMATCH") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestSyntheticBarsMatchPaperCount(t *testing.T) {
	bars := exper.SyntheticBars()
	if len(bars) != 21 {
		t.Fatalf("bar count = %d, want 21 (3 UNC + 12 INV + 6 UPD)", len(bars))
	}
	counts := map[core.Policy]int{}
	for _, b := range bars {
		counts[b.Policy]++
	}
	if counts[core.PolicyUNC] != 3 || counts[core.PolicyINV] != 12 || counts[core.PolicyUPD] != 6 {
		t.Fatalf("bar distribution = %v", counts)
	}
}

func TestPatternsMatchPaperGrid(t *testing.T) {
	pats := exper.Patterns(exper.Defaults())
	if len(pats) != 10 {
		t.Fatalf("pattern count = %d, want 10", len(pats))
	}
	if pats[0].String() != "c=1 a=1" || pats[4].String() != "c=1 a=10" || pats[9].String() != "c=64" {
		t.Fatalf("patterns = %v", pats)
	}
	// Small machines clamp and deduplicate contention levels.
	small := exper.Patterns(exper.RunOpts{Procs: 8, Rounds: 2})
	for _, p := range small {
		if p.Contention > 8 {
			t.Fatalf("pattern %v exceeds machine size", p)
		}
	}
}

// TestFig3Shapes validates the paper's headline qualitative results on a
// reduced configuration of the lock-free counter figure.
func TestFig3Shapes(t *testing.T) {
	o := exper.RunOpts{Procs: 16, Rounds: 8}
	run := func(bar exper.Bar, pat exper.Pattern) float64 {
		m := exper.NewMachine(o, bar)
		return apps.CounterApp(m, bar.Policy, bar.Opts(), pat).AvgCycles
	}
	uncFAP := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	invFAP := exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimFAP}
	updFAP := exper.Bar{Policy: core.PolicyUPD, Prim: locks.PrimFAP}

	// With contention, UNC fetch_and_add beats the INV and UPD versions.
	hot := exper.Pattern{Contention: 16, Rounds: o.Rounds}
	unc, inv, upd := run(uncFAP, hot), run(invFAP, hot), run(updFAP, hot)
	if unc >= inv {
		t.Errorf("contention c=16: UNC FAA (%.0f) should beat INV FAA (%.0f)", unc, inv)
	}
	if unc >= upd {
		t.Errorf("contention c=16: UNC FAA (%.0f) should beat UPD FAA (%.0f)", unc, upd)
	}

	// With long write runs, INV wins: later updates in a run are hits.
	longRun := exper.Pattern{Contention: 1, WriteRun: 10, Rounds: o.Rounds}
	unc, inv = run(uncFAP, longRun), run(invFAP, longRun)
	if inv >= unc {
		t.Errorf("a=10: INV FAA (%.0f) should beat UNC FAA (%.0f)", inv, unc)
	}

	// CAS under INV benefits from load_exclusive (fewer failed CASes /
	// upgrade misses).
	invCAS := exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimCAS}
	invCASldex := exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimCAS, LoadEx: true}
	plain, ldex := run(invCAS, hot), run(invCASldex, hot)
	if ldex > plain*1.1 {
		t.Errorf("c=16: CAS+load_exclusive (%.0f) should not lose to plain CAS (%.0f)", ldex, plain)
	}
}

func TestFig3DropCopyHelpsSingleUpdateRuns(t *testing.T) {
	o := exper.RunOpts{Procs: 16, Rounds: 12}
	pat := exper.Pattern{Contention: 1, WriteRun: 1, Rounds: o.Rounds}
	run := func(bar exper.Bar) float64 {
		m := exper.NewMachine(o, bar)
		return apps.CounterApp(m, bar.Policy, bar.Opts(), pat).AvgCycles
	}
	plain := run(exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimFAP})
	drop := run(exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimFAP, Drop: true})
	// With a=1 and no contention, drop_copy turns the 4-message
	// remote-exclusive transfer into a 2-message fetch from memory. The
	// drop itself costs the updater a little, but the next updater's
	// fetch dominates.
	if drop >= plain {
		t.Errorf("a=1: INV FAP+drop (%.0f) should beat plain INV FAP (%.0f)", drop, plain)
	}
}

func TestFig2RunsAndReportsPatterns(t *testing.T) {
	var b bytes.Buffer
	o := exper.RunOpts{Procs: 8, Rounds: 2, TCSize: 8}
	Fig2(&b, o)
	out := b.String()
	for _, want := range []string{"LocusRoute", "Cholesky", "TransitiveClosure", "write-run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6RunsAllApps(t *testing.T) {
	// Tiny configuration: just verify the full grid executes and renders.
	var b bytes.Buffer
	o := exper.RunOpts{Procs: 4, Rounds: 1, TCSize: 6}
	Fig6(&b, o)
	out := b.String()
	if !strings.Contains(out, "UPD CAS+drop") || !strings.Contains(out, "TransitiveClosure") {
		t.Fatalf("Fig6 output:\n%s", out)
	}
	// The header line names every app as its own whitespace-separated field.
	var want []string
	for _, app := range exper.RealApps() {
		want = append(want, app.String())
	}
	if header := strings.Fields(strings.Split(out, "\n")[1]); !slices.Equal(header, want) {
		t.Fatalf("Fig6 header fields = %q, want %q", header, want)
	}
	if strings.Contains(out, " 0\n") {
		// every cell must be a positive elapsed time
		t.Fatalf("Fig6 contains zero elapsed times:\n%s", out)
	}
}

func TestRunRealTClosureUsesCounter(t *testing.T) {
	o := exper.RunOpts{Procs: 4, TCSize: 8}
	bar := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	m := exper.NewMachine(o, bar)
	if res := (exper.Point{App: exper.AppTClosure, Bar: bar, Scale: o}).RunOn(m); res.Elapsed == 0 {
		t.Fatal("no elapsed time")
	}
	if m.System().Contention().Histogram().Total() == 0 {
		t.Fatal("no atomic accesses recorded")
	}
}

func TestTCEfficiencyGrowsWithProblemSize(t *testing.T) {
	// The paper reports 45% efficiency on 64 processors for its (much
	// larger) input. At simulation-affordable sizes the run is
	// barrier-bound, so we verify the property that drives the paper's
	// number: efficiency rises as per-phase work grows relative to the
	// synchronization cost.
	bar := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	small := exper.TCEfficiency(exper.RunOpts{Procs: 8, TCSize: 10}, bar)
	large := exper.TCEfficiency(exper.RunOpts{Procs: 8, TCSize: 28}, bar)
	if large <= small {
		t.Fatalf("efficiency did not grow with size: %.3f (n=10) vs %.3f (n=28)", small, large)
	}
	if large <= 0 || large > 1.05 {
		t.Fatalf("efficiency = %.3f out of range", large)
	}
}

func TestSyntheticFigureGridShape(t *testing.T) {
	o := exper.RunOpts{Procs: 4, Rounds: 1}
	grid, bars, pats := SyntheticFigure(exper.AppCounter, o)
	if len(grid) != len(pats) {
		t.Fatalf("grid rows = %d, patterns = %d", len(grid), len(pats))
	}
	for _, row := range grid {
		if len(row) != len(bars) {
			t.Fatalf("grid cols = %d, bars = %d", len(row), len(bars))
		}
		for _, v := range row {
			if v <= 0 {
				t.Fatal("empty cell in synthetic grid")
			}
		}
	}
}
