// Command figures regenerates the paper's evaluation artifacts — Table 1
// and Figures 2 through 6 — from the simulator, printing each as a text
// matrix (bar label x sharing pattern, or application x policy).
//
// Absolute cycle counts differ from the paper's (the substrate is this
// repository's simulator, not the authors' MINT-based one); the shapes —
// which implementation wins, by roughly what factor, and where the
// crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
//
// Examples:
//
//	figures -all                # everything at paper scale (slow)
//	figures -table1 -fig3       # selected artifacts
//	figures -fig3 -procs 16 -rounds 8   # reduced scale
//	figures -all -par 1         # force serial execution (output identical)
//
// A -procs outside 1-64, a -rounds below 1 or a -tcsize below 2 is
// rejected with a usage message and exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dsm/internal/exper"
	"dsm/internal/figures"
	"dsm/internal/locks"
	"dsm/internal/proto"
)

func main() {
	def := exper.Defaults()
	var (
		all    = flag.Bool("all", false, "regenerate every table and figure")
		table1 = flag.Bool("table1", false, "Table 1: serialized messages per store")
		fig2   = flag.Bool("fig2", false, "Figure 2: contention histograms of the real applications")
		fig3   = flag.Bool("fig3", false, "Figure 3: lock-free counter")
		fig4   = flag.Bool("fig4", false, "Figure 4: TTS-lock counter")
		fig5   = flag.Bool("fig5", false, "Figure 5: MCS-lock counter")
		fig6   = flag.Bool("fig6", false, "Figure 6: total elapsed time of the real applications")
		procs  = flag.Int("procs", def.Procs, "simulated processors (1-64)")
		rounds = flag.Int("rounds", def.Rounds, "rounds per synthetic pattern")
		tcsize = flag.Int("tcsize", def.TCSize, "transitive-closure vertices")
		csv    = flag.Bool("csv", false, "emit CSV instead of text tables")
		tceff  = flag.Bool("tceff", false, "Transitive Closure parallel efficiency (section 4.2)")
		par    = flag.Int("par", runtime.NumCPU(), "concurrent simulation runs (1 = serial; output is identical)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "figures: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if !(*all || *table1 || *fig2 || *fig3 || *fig4 || *fig5 || *fig6 || *tceff) {
		flag.Usage()
		os.Exit(2)
	}
	for _, err := range []error{exper.CheckProcs(*procs), exper.CheckRounds(*rounds), exper.CheckSize(*tcsize)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	o := exper.RunOpts{Procs: *procs, Rounds: *rounds, TCSize: *tcsize, Par: *par}

	// Timing goes to stderr so stdout carries only the artifacts and is
	// byte-identical for every -par value.
	section := func(enabled bool, run func()) {
		if !(*all || enabled) {
			return
		}
		start := time.Now()
		run()
		fmt.Fprintf(os.Stderr, "(generated in %v)\n", time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}

	if *csv {
		section(*table1, func() { figures.WriteTable1CSVPar(os.Stdout, o.Par) })
		section(*fig3, func() { figures.WriteSyntheticCSV(os.Stdout, "fig3", exper.AppCounter, o) })
		section(*fig4, func() { figures.WriteSyntheticCSV(os.Stdout, "fig4", exper.AppTTS, o) })
		section(*fig5, func() { figures.WriteSyntheticCSV(os.Stdout, "fig5", exper.AppMCS, o) })
		section(*fig6, func() { figures.WriteFig6CSV(os.Stdout, o) })
		if *fig2 || *all {
			figures.Fig2(os.Stdout, o) // histograms have no flat CSV shape
		}
		return
	}
	section(*tceff, func() {
		// UNC fetch_and_add: the paper's recommendation for counters.
		bar := exper.Bar{Policy: proto.PolicyUNC, Prim: locks.PrimFAP}
		eff := exper.TCEfficiency(o, bar)
		fmt.Printf("Transitive Closure parallel efficiency at p=%d, n=%d: %.1f%%\n",
			o.Procs, o.TCSize, 100*eff)
	})
	section(*table1, func() { figures.WriteTable1Par(os.Stdout, o.Par) })
	section(*fig2, func() { figures.Fig2(os.Stdout, o) })
	section(*fig3, func() { figures.Fig3(os.Stdout, o) })
	section(*fig4, func() { figures.Fig4(os.Stdout, o) })
	section(*fig5, func() { figures.Fig5(os.Stdout, o) })
	section(*fig6, func() { figures.Fig6(os.Stdout, o) })
}
