package figures

import (
	"fmt"
	"io"

	"dsm/internal/exper"
)

// WriteTable1CSVPar renders Table 1 as CSV (case,paper,measured),
// measuring its rows on par workers; par 0 means GOMAXPROCS.
func WriteTable1CSVPar(w io.Writer, par int) {
	fmt.Fprintln(w, "case,paper,measured")
	for _, r := range exper.Table1Par(par) {
		fmt.Fprintf(w, "%q,%d,%d\n", r.Case, r.Paper, r.Got)
	}
}

// WriteSyntheticCSV renders one of figures 3-5 as CSV rows of
// (bar,pattern,avg_cycles_per_update).
func WriteSyntheticCSV(w io.Writer, name string, app exper.App, o exper.RunOpts) {
	grid, bars, pats := SyntheticFigure(app, o)
	fmt.Fprintln(w, "figure,bar,pattern,avg_cycles")
	for pi, pat := range pats {
		for bi, bar := range bars {
			fmt.Fprintf(w, "%s,%q,%q,%.2f\n", name, bar.Label, pat.String(), grid[pi][bi])
		}
	}
}

// WriteFig6CSV renders figure 6 as CSV rows of (app,bar,elapsed_cycles).
func WriteFig6CSV(w io.Writer, o exper.RunOpts) {
	grid, bars, realApps := fig6Grid(o)
	fmt.Fprintln(w, "app,bar,elapsed_cycles")
	for bi, bar := range bars {
		for ai, app := range realApps {
			fmt.Fprintf(w, "%s,%q,%d\n", app, bar.Label, grid[bi][ai])
		}
	}
}
