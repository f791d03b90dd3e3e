package exper

import (
	"fmt"
	"slices"
	"strings"

	"dsm/internal/apps"
	"dsm/internal/check"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
)

// App identifies a workload: one row of the app table below.
type App uint8

const (
	AppCounter    App = iota // lock-free counter (figure 3)
	AppTTS                   // counter under a TTS lock (figure 4)
	AppMCS                   // counter under an MCS lock (figure 5)
	AppTClosure              // Transitive Closure (figures 2 and 6)
	AppLocusRoute            // LocusRoute-like router (figures 2 and 6)
	AppCholesky              // Cholesky-like factorization (figures 2 and 6)
	// Lock-free workload library (internal/apps workloads.go): data
	// structures and barriers driven by the same sharing patterns as the
	// synthetic counters, so they sweep the identical bar x pattern grid.
	AppMSQueue       // Michael-Scott lock-free FIFO queue
	AppStack         // Treiber lock-free LIFO stack
	AppRCU           // RCU-style reader/writer snapshot workload
	AppTournament    // tournament barrier with per-round counter episodes
	AppDissemination // dissemination barrier with per-round counter episodes
)

// patternRun runs a pattern-driven app on m under one bar's policy and
// options.
type patternRun func(m *machine.Machine, policy core.Policy, opts locks.Options, pat apps.Pattern) apps.Result

// appRow is one row of the app table: everything the experiment layer,
// the HTTP spec and cmd/dsmsim know about a workload.
type appRow struct {
	name    string // wire name: the HTTP spec and the dsmsim -app flag
	display string // figure label; empty displays the wire name

	// Exactly one of pattern and real is set: the kind of app. A
	// pattern-driven app reads the pattern's contention level and rounds;
	// a real app reads neither.
	pattern patternRun
	real    func(p Point, m *machine.Machine) Result
	// writeRun and size report whether the app also reads the pattern's
	// write run and the transitive-closure size.
	writeRun, size bool

	// The labels of dsmsim's summary line, one per Result field (see
	// Summary); an empty label leaves its field out.
	ops, retries, torn, work, per string
}

// appTable holds every app, in the order the -app help and the ParseApp
// error list them.
var appTable = [...]appRow{
	AppCounter: {name: "counter", pattern: apps.CounterApp, writeRun: true, ops: "updates", per: "update"},
	AppTTS:     {name: "tts", pattern: apps.TTSApp, writeRun: true, ops: "updates", per: "update"},
	AppMCS:     {name: "mcs", pattern: apps.MCSApp, writeRun: true, ops: "updates", per: "update"},
	AppTClosure: {name: "tclosure", display: "TransitiveClosure", real: runTClosure, size: true,
		work: "reachable pairs"},
	AppLocusRoute: {name: "locusroute", display: "LocusRoute", real: runLocusRoute, work: "wires routed"},
	AppCholesky:   {name: "cholesky", display: "Cholesky", real: runCholesky, work: "columns factored"},
	AppMSQueue: {name: "msqueue", pattern: noHistory(apps.QueueApp), writeRun: true,
		ops: "ops", retries: "retries", per: "op"},
	AppStack: {name: "stack", pattern: noHistory(apps.StackApp), writeRun: true,
		ops: "ops", retries: "retries", per: "op"},
	AppRCU: {name: "rcu", pattern: apps.RCUApp,
		ops: "reads+updates", torn: "torn reads", per: "op"},
	AppTournament: {name: "tournament", pattern: noHistory(apps.TournamentApp),
		ops: "increments", per: "barrier round"},
	AppDissemination: {name: "dissemination", pattern: noHistory(apps.DisseminationApp),
		ops: "increments", per: "barrier round"},
}

// noHistory adapts a workload that can record an operation history to a
// run that records none.
func noHistory(run func(*machine.Machine, core.Policy, locks.Options, apps.Pattern, *check.History) apps.Result) patternRun {
	return func(m *machine.Machine, policy core.Policy, opts locks.Options, pat apps.Pattern) apps.Result {
		return run(m, policy, opts, pat, nil)
	}
}

func (a App) row() *appRow { return &appTable[a] }

// Name returns the wire name used by the HTTP spec and the dsmsim -app
// flag.
func (a App) Name() string { return a.row().name }

// String returns the display name the figures use. The real applications
// keep the paper's capitalized names (the figure-2/6 row labels); the
// pattern-driven apps display as their wire names.
func (a App) String() string {
	if d := a.row().display; d != "" {
		return d
	}
	return a.Name()
}

// PatternDriven reports whether the sharing-pattern parameters (contention
// level, rounds) apply to the app: the synthetic counters and every
// workload-library structure.
func (a App) PatternDriven() bool { return a.row().pattern != nil }

// ReadsWriteRun reports whether the app reads the pattern's write-run
// length.
func (a App) ReadsWriteRun() bool { return a.row().writeRun }

// ReadsSize reports whether the app reads the transitive-closure size.
func (a App) ReadsSize() bool { return a.row().size }

// Summary renders a result of the app as cmd/dsmsim's one-line summary,
// labelling each field as the app defines it.
func (a App) Summary(r Result) string {
	row := a.row()
	var b strings.Builder
	if row.ops != "" {
		fmt.Fprintf(&b, "%s: %d, ", row.ops, r.Ops)
	}
	fmt.Fprintf(&b, "elapsed: %d cycles", r.Elapsed)
	for _, f := range [...]struct {
		label string
		n     uint64
	}{{row.retries, r.Retries}, {row.torn, r.TornReads}, {row.work, r.Work}} {
		if f.label != "" {
			fmt.Fprintf(&b, ", %s: %d", f.label, f.n)
		}
	}
	if row.per != "" {
		fmt.Fprintf(&b, ", avg cycles/%s: %.1f", row.per, r.AvgCycles)
	}
	return b.String()
}

// AppNames returns every app's wire name in table order.
func AppNames() []string {
	names := make([]string, len(appTable))
	for i := range appTable {
		names[i] = appTable[i].name
	}
	return names
}

// RealApps lists the figure 2/6 applications in paper order.
func RealApps() []App { return []App{AppLocusRoute, AppCholesky, AppTClosure} }

// ParseApp maps a wire workload name to the internal app.
func ParseApp(s string) (App, error) {
	for i := range appTable {
		if appTable[i].name == s {
			return App(i), nil
		}
	}
	return 0, fmt.Errorf("unknown app %q (want %s)", s, orList(AppNames()))
}

// The wire names of the coherence policies, primitive families and CAS
// variants, indexed by value.
var (
	policyNames  = [...]string{core.PolicyINV: "INV", core.PolicyUPD: "UPD", core.PolicyUNC: "UNC"}
	primNames    = [...]string{locks.PrimFAP: "FAP", locks.PrimCAS: "CAS", locks.PrimLLSC: "LLSC"}
	variantNames = [...]string{core.CASPlain: "INV", core.CASDeny: "INVd", core.CASShare: "INVs"}
)

// PolicyNames returns the coherence policies' wire names in value order.
func PolicyNames() []string { return slices.Clone(policyNames[:]) }

// PrimNames returns the primitive families' wire names in value order.
func PrimNames() []string { return slices.Clone(primNames[:]) }

// VariantNames returns the CAS variants' wire names in value order.
func VariantNames() []string { return slices.Clone(variantNames[:]) }

// ParsePolicy maps a wire policy name to the internal coherence policy.
func ParsePolicy(s string) (core.Policy, error) {
	return parseEnum[core.Policy]("policy", policyNames[:], s)
}

// ParsePrim maps a wire primitive name to the internal primitive family.
func ParsePrim(s string) (locks.Prim, error) {
	return parseEnum[locks.Prim]("primitive", primNames[:], s)
}

// ParseVariant maps a wire CAS-variant name to the internal variant.
func ParseVariant(s string) (core.CASVariant, error) {
	return parseEnum[core.CASVariant]("CAS variant", variantNames[:], s)
}

func parseEnum[T ~uint8](what string, names []string, s string) (T, error) {
	for i, n := range names {
		if n == s {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, s, orList(names))
}

// orList renders names as "a, b, or c".
func orList(names []string) string {
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// WireName returns the wire name of an app, policy, primitive or CAS
// variant that b spells, as a constant string, so a spec decoder can
// intern the names it reads without allocating.
func WireName(b []byte) (string, bool) {
	for i := range appTable {
		if string(b) == appTable[i].name {
			return appTable[i].name, true
		}
	}
	for _, names := range [...][]string{policyNames[:], primNames[:], variantNames[:]} {
		for _, n := range names {
			if string(b) == n {
				return n, true
			}
		}
	}
	return "", false
}

// CheckProcs rejects a processor count no machine can have.
func CheckProcs(n int) error {
	if n < 1 || n > core.MaxNodes {
		return fmt.Errorf("procs %d out of range 1-%d", n, core.MaxNodes)
	}
	return nil
}

// CheckContention rejects a contention level no pattern over procs
// processors can have.
func CheckContention(c, procs int) error {
	if c < 1 || c > procs {
		return fmt.Errorf("contention %d out of range 1-%d (procs)", c, procs)
	}
	return nil
}

// CheckRounds rejects a round count below one.
func CheckRounds(n int) error {
	if n < 1 {
		return fmt.Errorf("rounds %d below 1", n)
	}
	return nil
}

// CheckSize rejects a transitive-closure graph of fewer than two vertices.
func CheckSize(n int) error {
	if n < 2 {
		return fmt.Errorf("size %d below 2", n)
	}
	return nil
}

// CheckWriteRun rejects a mean write-run length below one, or NaN.
func CheckWriteRun(a float64) error {
	if !(a >= 1) { // NaN fails too
		return fmt.Errorf("write-run %g below 1", a)
	}
	return nil
}

// runTClosure runs the paper's Transitive Closure at the point's size.
func runTClosure(p Point, m *machine.Machine) Result {
	cfg := apps.TClosureConfig{Size: p.Scale.TCSize, Policy: p.Bar.Policy, Opts: p.Bar.Opts(), Seed: 11}
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	return Result{Result: apps.TClosure(m, cfg)}
}

// runLocusRoute runs the LocusRoute-like kernel at its default size for
// the machine (4 wires per processor).
func runLocusRoute(p Point, m *machine.Machine) Result {
	cfg := apps.DefaultLocusRoute(p.Scale.Procs)
	cfg.Policy, cfg.Opts = p.Bar.Policy, p.Bar.Opts()
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	return Result{Result: apps.LocusRoute(m, cfg)}
}

// runCholesky runs the Cholesky-like kernel at its default size for the
// machine (3 columns per processor).
func runCholesky(p Point, m *machine.Machine) Result {
	cfg := apps.DefaultCholesky(p.Scale.Procs)
	cfg.Policy, cfg.Opts = p.Bar.Policy, p.Bar.Opts()
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	return Result{Result: apps.Cholesky(m, cfg)}
}
