package exper

import (
	"fmt"

	"dsm/internal/core"
	"dsm/internal/locks"
)

// App identifies a workload: the three synthetic counter applications of
// figures 3-5 and the three real applications of figures 2 and 6.
type App uint8

const (
	AppCounter App = iota // lock-free counter (figure 3)
	AppTTS                // counter under a TTS lock (figure 4)
	AppMCS                // counter under an MCS lock (figure 5)
	AppLocusRoute
	AppCholesky
	AppTClosure
	// Lock-free workload library (internal/apps workloads.go): data
	// structures and barriers driven by the same sharing patterns as the
	// synthetic counters, so they sweep the identical bar x pattern grid.
	AppMSQueue       // Michael-Scott lock-free FIFO queue
	AppStack         // Treiber lock-free LIFO stack
	AppRCU           // RCU-style reader/writer snapshot workload
	AppTournament    // tournament barrier with per-round counter episodes
	AppDissemination // dissemination barrier with per-round counter episodes
)

// Synthetic reports whether the app is one of the pattern-driven synthetic
// workloads (contention level and write-run length apply to it).
func (a App) Synthetic() bool { return a <= AppMCS }

// Workload reports whether the app is one of the lock-free workload
// library's structures (queue, stack, RCU, barriers).
func (a App) Workload() bool { return a >= AppMSQueue && a <= AppDissemination }

// PatternDriven reports whether the sharing-pattern parameters (contention
// level, write-run length, rounds) apply to the app: the synthetic counters
// and every workload-library structure.
func (a App) PatternDriven() bool { return a.Synthetic() || a.Workload() }

// Name returns the wire name used by the HTTP spec and the dsmsim -app
// flag: counter, tts, mcs, locusroute, cholesky, tclosure.
func (a App) Name() string {
	switch a {
	case AppCounter:
		return "counter"
	case AppTTS:
		return "tts"
	case AppMCS:
		return "mcs"
	case AppLocusRoute:
		return "locusroute"
	case AppCholesky:
		return "cholesky"
	case AppTClosure:
		return "tclosure"
	case AppMSQueue:
		return "msqueue"
	case AppStack:
		return "stack"
	case AppRCU:
		return "rcu"
	case AppTournament:
		return "tournament"
	case AppDissemination:
		return "dissemination"
	}
	return "app?"
}

// String returns the display name the figures use. The real applications
// keep the paper's capitalized names (the figure-2/6 row labels); the
// synthetic apps display as their wire names.
func (a App) String() string {
	switch a {
	case AppLocusRoute:
		return "LocusRoute"
	case AppCholesky:
		return "Cholesky"
	case AppTClosure:
		return "TransitiveClosure"
	}
	return a.Name()
}

// RealApps lists the figure 2/6 applications in paper order.
func RealApps() []App { return []App{AppLocusRoute, AppCholesky, AppTClosure} }

// WorkloadApps lists the lock-free workload library's structures.
func WorkloadApps() []App {
	return []App{AppMSQueue, AppStack, AppRCU, AppTournament, AppDissemination}
}

// ParseApp maps a wire workload name to the internal app.
func ParseApp(s string) (App, error) {
	switch s {
	case "counter":
		return AppCounter, nil
	case "tts":
		return AppTTS, nil
	case "mcs":
		return AppMCS, nil
	case "tclosure":
		return AppTClosure, nil
	case "locusroute":
		return AppLocusRoute, nil
	case "cholesky":
		return AppCholesky, nil
	case "msqueue":
		return AppMSQueue, nil
	case "stack":
		return AppStack, nil
	case "rcu":
		return AppRCU, nil
	case "tournament":
		return AppTournament, nil
	case "dissemination":
		return AppDissemination, nil
	}
	return 0, fmt.Errorf("unknown app %q (want counter, tts, mcs, tclosure, locusroute, cholesky, msqueue, stack, rcu, tournament, or dissemination)", s)
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

// ParsePolicy maps a wire policy name to the internal coherence policy.
func ParsePolicy(s string) (core.Policy, error) {
	switch s {
	case "INV":
		return core.PolicyINV, nil
	case "UPD":
		return core.PolicyUPD, nil
	case "UNC":
		return core.PolicyUNC, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want INV, UPD, or UNC)", s)
}

// ParsePrim maps a wire primitive name to the internal primitive family.
func ParsePrim(s string) (locks.Prim, error) {
	switch s {
	case "FAP":
		return locks.PrimFAP, nil
	case "CAS":
		return locks.PrimCAS, nil
	case "LLSC":
		return locks.PrimLLSC, nil
	}
	return 0, fmt.Errorf("unknown primitive %q (want FAP, CAS, or LLSC)", s)
}

// ParseVariant maps a wire CAS-variant name to the internal variant.
func ParseVariant(s string) (core.CASVariant, error) {
	switch s {
	case "INV":
		return core.CASPlain, nil
	case "INVd":
		return core.CASDeny, nil
	case "INVs":
		return core.CASShare, nil
	}
	return 0, fmt.Errorf("unknown CAS variant %q (want INV, INVd, or INVs)", s)
}
