package exper

import (
	"dsm/internal/apps"
	"dsm/internal/machine"
	"dsm/internal/report"
)

// Point is one simulation of the design space: a workload under one bar
// (primitive x policy x auxiliaries), at a scale, and — for the
// pattern-driven apps — one sharing pattern. The zero Seed selects each
// app's default seed, so identical points always replay identical runs.
type Point struct {
	App     App
	Bar     Bar
	Scale   RunOpts // Par is ignored; parallelism is a Plan property
	Pattern Pattern // pattern-driven apps only
	Seed    uint64  // 0 selects the per-app default seeds
}

// Result is what one point produces: the run's headline numbers, each
// with one meaning across every app, and their JSON names, which the
// service's response body embeds as they are. The embedded apps.Result
// declares the headline fields; a real application fills only its
// Elapsed and Work. Report is non-nil only when the run collected a full
// measurement report.
type Result struct {
	apps.Result
	Report *report.Report `json:"report"`
}

// RunOn executes the point on a caller-provided machine (built by
// NewMachine for the point's scale and bar) and returns its result without
// collecting a report — the caller still owns the machine and can read its
// statistics or attach a tracer before running.
func (p Point) RunOn(m *machine.Machine) Result {
	if p.Seed != 0 {
		m.SetSeed(p.Seed)
	}
	row := p.App.row()
	if row.pattern == nil {
		return row.real(p, m)
	}
	return Result{Result: row.pattern(m, p.Bar.Policy, p.Bar.Opts(), p.Pattern)}
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
func Run(pl Plan) []Result {
	out := make([]Result, len(pl.Points))
	SweepSlots(len(pl.Points), pl.Par, func(s *MachineSlot, i int) {
		out[i] = pl.Points[i].RunSlot(s, pl.Collect)
	})
	return out
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
