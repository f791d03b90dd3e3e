// Package figures renders every table and figure of the paper's evaluation
// section as text or CSV: Table 1 (serialized network messages per store),
// Figure 2 (contention histograms of the real applications), Figures 3-5
// (average time per counter update for the three synthetic applications
// across the primitive/policy/auxiliary design space), and Figure 6 (total
// elapsed time of the real applications). It is pure presentation:
// experiment execution — the point specs, the machine reuse pool, and the
// parallel sweep executor — lives in internal/exper, and this package only
// builds plans, runs them through exper, and formats the results. It is
// shared by cmd/figures and the benchmark suite.
package figures

import (
	"fmt"
	"io"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/stats"
)

// WriteTable1Par renders Table 1 with paper-vs-measured columns, measuring
// its rows on par workers; par 0 means GOMAXPROCS.
func WriteTable1Par(w io.Writer, par int) {
	fmt.Fprintln(w, "Table 1: serialized network messages for stores to shared memory")
	fmt.Fprintf(w, "%-28s %6s %9s\n", "case", "paper", "measured")
	for _, r := range exper.Table1Par(par) {
		mark := ""
		if r.Got != r.Paper {
			mark = "  MISMATCH"
		}
		fmt.Fprintf(w, "%-28s %6d %9d%s\n", r.Case, r.Paper, r.Got, mark)
	}
}

// ---------------------------------------------------------- figures 3-5 --

// SyntheticFigure runs one of figures 3-5: every bar under every sharing
// pattern, returning average cycles per counter update indexed as
// [pattern][bar]. The pattern x bar grid is one exper plan fanned across
// o.Par workers; results land in plan order regardless of completion order.
func SyntheticFigure(app exper.App, o exper.RunOpts) ([][]float64, []exper.Bar, []exper.Pattern) {
	bars := exper.SyntheticBars()
	pats := exper.Patterns(o)
	res := exper.Run(exper.SyntheticPlan(app, o))
	grid := make([][]float64, len(pats))
	for pi := range grid {
		grid[pi] = make([]float64, len(bars))
		for bi := range bars {
			grid[pi][bi] = res[pi*len(bars)+bi].AvgCycles
		}
	}
	return grid, bars, pats
}

// WriteSyntheticFigure renders one of figures 3-5 as a bar-label by
// pattern matrix of average cycles per update.
func WriteSyntheticFigure(w io.Writer, title string, app exper.App, o exper.RunOpts) {
	grid, bars, pats := SyntheticFigure(app, o)
	fmt.Fprintf(w, "%s (p=%d, avg cycles per counter update)\n", title, o.Procs)
	fmt.Fprintf(w, "%-18s", "")
	for _, pat := range pats {
		fmt.Fprintf(w, "%10s", pat.String())
	}
	fmt.Fprintln(w)
	for bi, bar := range bars {
		fmt.Fprintf(w, "%-18s", bar.Label)
		for pi := range pats {
			fmt.Fprintf(w, "%10.1f", grid[pi][bi])
		}
		fmt.Fprintln(w)
	}
}

// Fig3 runs figure 3 (lock-free counter).
func Fig3(w io.Writer, o exper.RunOpts) {
	WriteSyntheticFigure(w, "Figure 3: lock-free counter", exper.AppCounter, o)
}

// Fig4 runs figure 4 (counter under test-and-test-and-set lock).
func Fig4(w io.Writer, o exper.RunOpts) {
	WriteSyntheticFigure(w, "Figure 4: TTS-lock counter", exper.AppTTS, o)
}

// Fig5 runs figure 5 (counter under MCS lock).
func Fig5(w io.Writer, o exper.RunOpts) {
	WriteSyntheticFigure(w, "Figure 5: MCS-lock counter", exper.AppMCS, o)
}

// ------------------------------------------------------- figures 2 & 6 ---

// fig2Plan is the figure-2 grid: each real application under each policy,
// app-major, with full reports collected (the histogram and write-run
// numbers render from the report, not the machine).
func fig2Plan(o exper.RunOpts) (exper.Plan, []exper.App, []core.Policy) {
	realApps := exper.RealApps()
	pols := []core.Policy{core.PolicyINV, core.PolicyUNC, core.PolicyUPD}
	pl := exper.Plan{Par: o.Par, Collect: true,
		Points: make([]exper.Point, 0, len(realApps)*len(pols))}
	for _, app := range realApps {
		for _, pol := range pols {
			pl.Points = append(pl.Points, exper.Point{
				App: app, Bar: exper.Bar{Policy: pol, Prim: locks.PrimFAP}, Scale: o,
			})
		}
	}
	return pl, realApps, pols
}

// Fig2 renders the contention histograms and write-run measurements of the
// real applications under the three coherence policies (figure 2 plus the
// write-run numbers of section 4.2). The primitive is FAP, as in the
// paper's baseline runs.
func Fig2(w io.Writer, o exper.RunOpts) {
	fmt.Fprintf(w, "Figure 2: contention histograms (p=%d; %% of accesses at each level)\n", o.Procs)
	levels := []int{1, 2, 3, 4, 8, 16, 32, 48, 64}
	pl, realApps, pols := fig2Plan(o)
	results := exper.Run(pl)
	for i, res := range results {
		app, pol := realApps[i/len(pols)], pols[i%len(pols)]
		fmt.Fprintf(w, "%-18s %-3s  write-run %.2f  |", app, pol, res.Report.WriteRunMean)
		for _, lv := range levels {
			// Bucket: sum counts in (prev, lv].
			fmt.Fprintf(w, " %2d:%5.1f%%", lv, bucketPercent(res.Report.Contention, levels, lv))
		}
		fmt.Fprintln(w)
	}
}

// bucketPercent sums the histogram percentage over (prevLevel, level].
func bucketPercent(h *stats.Histogram, levels []int, level int) float64 {
	prev := 0
	for _, lv := range levels {
		if lv == level {
			break
		}
		prev = lv
	}
	sum := 0.0
	for v := prev + 1; v <= level; v++ {
		sum += h.Percent(v)
	}
	return sum
}

// fig6Grid runs every bar x application combination, returning total
// elapsed cycles indexed as [bar][app].
func fig6Grid(o exper.RunOpts) ([][]uint64, []exper.Bar, []exper.App) {
	bars := exper.SyntheticBars()
	realApps := exper.RealApps()
	pl := exper.Plan{Par: o.Par, Points: make([]exper.Point, 0, len(bars)*len(realApps))}
	for _, bar := range bars {
		for _, app := range realApps {
			pl.Points = append(pl.Points, exper.Point{App: app, Bar: bar, Scale: o})
		}
	}
	res := exper.Run(pl)
	grid := make([][]uint64, len(bars))
	for bi := range grid {
		grid[bi] = make([]uint64, len(realApps))
		for ai := range realApps {
			grid[bi][ai] = uint64(res[bi*len(realApps)+ai].Elapsed)
		}
	}
	return grid, bars, realApps
}

// Fig6 renders the total elapsed time of the real applications under every
// bar configuration.
func Fig6(w io.Writer, o exper.RunOpts) {
	grid, bars, realApps := fig6Grid(o)
	fmt.Fprintf(w, "Figure 6: total elapsed cycles, real applications (p=%d)\n", o.Procs)
	fmt.Fprintf(w, "%-18s", "")
	for _, app := range realApps {
		// A name that fits is right-aligned over its 14-wide column; one
		// that does not (TransitiveClosure) still keeps a separating space.
		fmt.Fprintf(w, " %13s", app.String())
	}
	fmt.Fprintln(w)
	for bi, bar := range bars {
		fmt.Fprintf(w, "%-18s", bar.Label)
		for ai := range realApps {
			fmt.Fprintf(w, "%14d", grid[bi][ai])
		}
		fmt.Fprintln(w)
	}
}
