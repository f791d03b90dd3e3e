// Command dsmsim runs a single workload configuration on the simulated DSM
// multiprocessor and prints its measurements: elapsed cycles, average
// cycles per update, protocol counters, network traffic, the contention
// histogram, and the average write-run length. With -json the measurements
// are emitted as one machine-readable JSON report (report.WriteJSON)
// instead of text, and the human summary line moves to stderr.
//
// Examples:
//
//	dsmsim -app counter -policy UNC -prim FAP -c 64
//	dsmsim -app mcs -policy INV -prim CAS -ldex -a 2
//	dsmsim -app tclosure -prim LLSC -size 32 -json
//	dsmsim -app msqueue -prim CAS -c 8
//	dsmsim -app rcu -policy UPD -prim LLSC -c 2
//
// With -dump-protocol the coherence transition tables (internal/proto)
// are printed in a stable human-readable form and no simulation runs.
//
// Unknown -app/-policy/-prim/-cas values, a -procs outside 1-64, a -c
// outside 1..procs, and an -a below 1, -rounds below 1, -size below 2 or
// -trace below 0 are rejected with a usage message and exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dsm/internal/apps"
	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/proto"
	"dsm/internal/report"
	"dsm/internal/trace"
)

// parseBar validates the flag values that select a bar of the paper's
// figures and assembles them. It is separated from main so the flag
// validation is testable without spawning a process.
func parseBar(policy, prim, variant string, ldex, drop bool) (exper.Bar, error) {
	var bar exper.Bar
	pol, err := exper.ParsePolicy(policy)
	if err != nil {
		return bar, err
	}
	pr, err := exper.ParsePrim(prim)
	if err != nil {
		return bar, err
	}
	v, err := exper.ParseVariant(variant)
	if err != nil {
		return bar, err
	}
	return exper.Bar{Policy: pol, Prim: pr, Variant: v, LoadEx: ldex, Drop: drop}, nil
}

func main() {
	def := exper.Defaults()
	var (
		app     = flag.String("app", "counter", "workload: "+strings.Join(exper.AppNames(), ", "))
		policy  = flag.String("policy", proto.PolicyINV.String(), "coherence policy for sync data: "+strings.Join(exper.PolicyNames(), ", "))
		prim    = flag.String("prim", locks.PrimFAP.String(), "primitive family: "+strings.Join(exper.PrimNames(), ", "))
		variant = flag.String("cas", proto.CASPlain.String(), "compare_and_swap variant: "+strings.Join(exper.VariantNames(), ", "))
		ldex    = flag.Bool("ldex", false, "pair CAS with load_exclusive")
		drop    = flag.Bool("drop", false, "issue drop_copy after updates")
		procs   = flag.Int("procs", def.Procs, "simulated processors (1-64)")
		cont    = flag.Int("c", 1, "contention level (synthetic apps)")
		wrun    = flag.Float64("a", 1, "average write-run length (synthetic apps, c=1)")
		rounds  = flag.Int("rounds", def.Rounds, "barrier-separated rounds (synthetic apps)")
		size    = flag.Int("size", def.TCSize, "transitive-closure vertices")
		traceN  = flag.Int("trace", 0, "print the last N protocol events")
		asJSON  = flag.Bool("json", false, "emit the measurement report as JSON on stdout")
		dumpPro = flag.Bool("dump-protocol", false, "print the coherence transition tables and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *dumpPro {
		if err := proto.WriteTables(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	workload, err := exper.ParseApp(*app)
	if err != nil {
		fail(err)
	}
	for _, err := range []error{
		exper.CheckProcs(*procs),
		exper.CheckContention(*cont, *procs),
		exper.CheckWriteRun(*wrun),
		exper.CheckRounds(*rounds),
		exper.CheckSize(*size),
	} {
		if err != nil {
			fail(err)
		}
	}
	if *traceN < 0 {
		fail(fmt.Errorf("trace %d below 0", *traceN))
	}
	bar, err := parseBar(*policy, *prim, *variant, *ldex, *drop)
	if err != nil {
		fail(err)
	}

	// In -json mode stdout carries exactly one JSON report; the human
	// summary and trace lines go to stderr so the output stays parseable.
	summary := os.Stdout
	if *asJSON {
		summary = os.Stderr
	}

	pt := exper.Point{
		App:     workload,
		Bar:     bar,
		Scale:   exper.RunOpts{Procs: *procs, Rounds: *rounds, TCSize: *size},
		Pattern: apps.Pattern{Contention: *cont, WriteRun: *wrun, Rounds: *rounds},
	}
	// The machine is built here rather than inside exper.Point.Run so a
	// tracer can be attached before the run and its state read after.
	m := exper.NewMachine(pt.Scale, bar)
	var tr *trace.Buffer
	if *traceN > 0 {
		tr = trace.New(*traceN)
		m.System().SetTracer(tr)
		defer func() {
			fmt.Fprintf(summary, "last %d protocol events:\n", tr.Len())
			tr.WriteTo(summary)
		}()
	}
	res := pt.RunOn(m)

	fmt.Fprintln(summary, workload.Summary(res))
	r := report.Collect(m)
	if *asJSON {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	r.WriteText(os.Stdout)
}
