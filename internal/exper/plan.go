package exper

import (
	"dsm/internal/apps"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/report"
)

// Point is one simulation of the design space: a workload under one bar
// (primitive x policy x auxiliaries), at a scale, and — for the synthetic
// apps — one sharing pattern. The zero Seed selects each app's default
// seed, so identical points always replay identical runs.
type Point struct {
	App     App
	Bar     Bar
	Scale   RunOpts // Par is ignored; parallelism is a Plan property
	Pattern Pattern // synthetic apps only
	Seed    uint64  // 0 selects the per-app default seeds
}

// Result is what one point produces. Elapsed is filled for every app;
// Updates/AvgCycles only for the synthetic counters (the figures 3-5
// y-axis), Work only for the real applications (wires routed, columns
// factored, reachable pairs). Report is non-nil only when the run
// collected a full measurement report.
type Result struct {
	Elapsed   uint64
	Updates   uint64
	AvgCycles float64
	Work      uint64
	Report    *report.Report
}

func (r *Result) fromSynthetic(res apps.SyntheticResult) {
	r.Elapsed = uint64(res.Elapsed)
	r.Updates = res.Updates
	r.AvgCycles = res.AvgCycles
}

// fromWorkload maps a workload-library run onto the shared result shape:
// operations land in Updates (the throughput numerator), retry/torn-read
// counts in Work (the structures' contention signal).
func (r *Result) fromWorkload(res apps.WorkloadResult) {
	r.Elapsed = uint64(res.Elapsed)
	r.Updates = res.Ops
	r.Work = res.Retries
	r.AvgCycles = res.AvgCycles
}

// RunOn executes the point on a caller-provided machine (built by
// NewMachine for the point's scale and bar) and returns its result without
// collecting a report — the caller still owns the machine and can read its
// statistics or attach a tracer before running.
func (p Point) RunOn(m *machine.Machine) Result {
	if p.Seed != 0 {
		m.SetSeed(p.Seed)
	}
	var r Result
	switch p.App {
	case AppCounter:
		r.fromSynthetic(apps.CounterApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern))
	case AppTTS:
		r.fromSynthetic(apps.TTSApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern))
	case AppMCS:
		r.fromSynthetic(apps.MCSApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern))
	case AppMSQueue:
		r.fromWorkload(apps.QueueApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern, nil))
	case AppStack:
		r.fromWorkload(apps.StackApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern, nil))
	case AppRCU:
		r.fromWorkload(apps.RCUApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern))
	case AppTournament:
		r.fromWorkload(apps.TournamentApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern, nil))
	case AppDissemination:
		r.fromWorkload(apps.DisseminationApp(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern, nil))
	case AppTClosure:
		cfg := apps.TClosureConfig{
			Size:   p.Scale.TCSize,
			Policy: p.Bar.Policy,
			Opts:   p.Bar.Opts(),
			Seed:   11,
		}
		if p.Seed != 0 {
			cfg.Seed = p.Seed
		}
		res := apps.TClosure(m, cfg)
		r.Elapsed, r.Work = uint64(res.Elapsed), uint64(res.Reachable)
	case AppLocusRoute:
		cfg := apps.DefaultLocusRoute(p.Scale.Procs)
		if p.Scale.Wires > 0 {
			cfg.Wires = p.Scale.Wires
		}
		cfg.Policy, cfg.Opts = p.Bar.Policy, p.Bar.Opts()
		if p.Seed != 0 {
			cfg.Seed = p.Seed
		}
		res := apps.LocusRoute(m, cfg)
		r.Elapsed, r.Work = uint64(res.Elapsed), res.Work
	case AppCholesky:
		cfg := apps.DefaultCholesky(p.Scale.Procs)
		if p.Scale.Columns > 0 {
			cfg.Columns = p.Scale.Columns
		}
		cfg.Policy, cfg.Opts = p.Bar.Policy, p.Bar.Opts()
		if p.Seed != 0 {
			cfg.Seed = p.Seed
		}
		res := apps.Cholesky(m, cfg)
		r.Elapsed, r.Work = uint64(res.Elapsed), res.Work
	default:
		panic("exper: unknown app " + p.App.Name())
	}
	return r
}

// Run executes the point on the machine slot that one-off runs share.
// With collect, the result carries the machine's full measurement report
// (byte-stable under report.WriteJSON); without, only the headline
// numbers, which keeps grid sweeps free of per-point report allocation.
//
// Run is the one-off path, and concurrent calls take turns on the shared
// slot. A worker executing many points should hold its own MachineSlot and
// call RunSlot instead.
func (p Point) Run(collect bool) Result {
	oneOff.mu.Lock()
	defer oneOff.mu.Unlock()
	return p.RunSlot(&oneOff.slot, collect)
}

// RunSlot executes the point on the slot's resident machine (reset or
// rebuilt to the point's geometry) and leaves the machine in the slot for
// the worker's next point. Results are identical to Run's — a reset
// machine replays a fresh one cycle for cycle — and concurrent workers,
// each with its own slot, share nothing.
func (p Point) RunSlot(s *MachineSlot, collect bool) Result {
	m := s.Machine(MachineConfig(p.Scale, p.Bar))
	r := p.RunOn(m)
	if collect {
		r.Report = report.Collect(m)
	}
	return r
}

// Plan is an ordered list of points executed as one batch. Order is the
// result order: Run fans points across Par workers but writes each result
// into its point's slot, so a plan's results are deterministic and
// independent of scheduling (Par 1 and Par N are identical).
type Plan struct {
	Points  []Point
	Par     int  // sweep width; 0 = GOMAXPROCS, 1 = serial (see Sweep)
	Collect bool // attach a full report to every result
}

// Run executes every point of the plan and returns the results in plan
// order. Each sweep worker owns a dedicated machine slot it reuses across
// the plan's points (see SweepSlots), so no shared structure sits on the
// per-point path.
//
// Points are *executed* grouped by machine geometry (groupOrder) so a
// mixed-geometry plan does not thrash the slots' resident machines, but
// results land in plan order regardless: every point's simulation is
// independent and replays identically on a fresh or reset machine, so
// execution order affects host time only and par-1 output stays
// byte-identical to par-N.
func Run(pl Plan) []Result {
	out := make([]Result, len(pl.Points))
	order := groupOrder(pl.Points)
	SweepSlots(len(pl.Points), pl.Par, func(s *MachineSlot, k int) {
		i := order[k]
		out[i] = pl.Points[i].RunSlot(s, pl.Collect)
	})
	return out
}

// geomKey is the structural identity of a point's machine: the part of its
// configuration machine.Reset cannot change. Points sharing a geomKey can
// share a resident machine across runs.
type geomKey struct {
	nodes int
	mesh  mesh.Config
}

func pointGeom(p Point) geomKey {
	cfg := MachineConfig(p.Scale, p.Bar)
	return geomKey{nodes: cfg.Nodes, mesh: cfg.Mesh}
}

// groupOrder returns an execution order for the points: plan indices
// reordered so points sharing a machine geometry run consecutively.
// Groups appear in order of first appearance and points keep their plan
// order within a group, so a single-geometry plan (the common case)
// executes in exactly plan order.
func groupOrder(points []Point) []int {
	groups := make(map[geomKey][]int)
	var keys []geomKey
	for i, p := range points {
		k := pointGeom(p)
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	order := make([]int, 0, len(points))
	for _, k := range keys {
		order = append(order, groups[k]...)
	}
	return order
}

// SyntheticPlan is the figures 3-5 grid for one synthetic app: every bar
// under every sharing pattern of the scale, pattern-major — point
// pi*len(bars)+bi runs bar bi under pattern pi, matching the figures'
// [pattern][bar] layout.
func SyntheticPlan(app App, o RunOpts) Plan {
	bars, pats := SyntheticBars(), Patterns(o)
	pl := Plan{Par: o.Par, Points: make([]Point, 0, len(pats)*len(bars))}
	for _, pat := range pats {
		for _, bar := range bars {
			pl.Points = append(pl.Points, Point{App: app, Bar: bar, Scale: o, Pattern: pat})
		}
	}
	return pl
}

// RunReal executes one real application under one bar configuration and
// returns the machine (for its statistics) and the total elapsed cycles.
// LocusRoute and Cholesky use lock-based synchronization (the paper
// replaced the SPLASH library locks with TTS locks built on the primitive
// under study); Transitive Closure uses the lock-free counter. The caller
// owns the machine.
func RunReal(app App, o RunOpts, bar Bar) (*machine.Machine, uint64) {
	m := NewMachine(o, bar)
	res := Point{App: app, Bar: bar, Scale: o}.RunOn(m)
	return m, res.Elapsed
}

// TCEfficiency measures Transitive Closure's parallel efficiency at the
// given scale: T(1) / (p * T(p)), the metric behind the paper's "achieves
// an acceptable efficiency of 45% on 64 processors".
func TCEfficiency(o RunOpts, bar Bar) float64 {
	single := o
	single.Procs = 1
	res := Run(Plan{Par: o.Par, Points: []Point{
		{App: AppTClosure, Bar: bar, Scale: single},
		{App: AppTClosure, Bar: bar, Scale: o},
	}})
	return float64(res[0].Elapsed) / (float64(o.Procs) * float64(res[1].Elapsed))
}
