// Benchmarks regenerating the paper's evaluation artifacts. Each table and
// figure has a benchmark family; the simulated-cycle measurements are
// reported as custom metrics (sim-cycles/update or sim-cycles), since the
// reproduction target is simulated time, not host time.
//
// The benchmarks run at a reduced scale (16 processors) so the whole suite
// completes quickly; cmd/figures regenerates the artifacts at the paper's
// full 64-processor scale.
package dsm_test

import (
	"fmt"
	"testing"

	"dsm/internal/apps"
	"dsm/internal/core"
	"dsm/internal/dir"
	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

func benchOpts() exper.RunOpts { return exper.RunOpts{Procs: 16, Rounds: 6, TCSize: 10} }

// BenchmarkTable1 regenerates Table 1 (serialized network messages per
// store, all seven coherence situations) and validates it against the
// paper's counts.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range exper.Table1Par(0) {
			if r.Got != r.Paper {
				b.Fatalf("%s: %d != paper %d", r.Case, r.Got, r.Paper)
			}
		}
	}
}

// syntheticBench runs one figure-3/4/5 bar across the paper's sharing
// patterns and reports the average simulated cycles per counter update.
func syntheticBench(b *testing.B, app func(*machine.Machine, proto.Policy, locks.Options, apps.Pattern) apps.Result, bar exper.Bar) {
	o := benchOpts()
	pats := exper.Patterns(o)
	var cycles, updates float64
	for i := 0; i < b.N; i++ {
		for _, pat := range pats {
			m := exper.NewMachine(o, bar)
			res := app(m, bar.Policy, bar.Opts(), pat)
			cycles += float64(res.Elapsed)
			updates += float64(res.Ops)
		}
	}
	if updates > 0 {
		b.ReportMetric(cycles/updates, "sim-cycles/update")
	}
}

// BenchmarkFig3 regenerates Figure 3 (lock-free counter): every bar of the
// paper's figure, across all ten sharing patterns.
func BenchmarkFig3(b *testing.B) {
	for _, bar := range exper.SyntheticBars() {
		bar := bar
		b.Run(bar.Label(), func(b *testing.B) { syntheticBench(b, apps.CounterApp, bar) })
	}
}

// BenchmarkFig4 regenerates Figure 4 (counter under a test-and-test-and-set
// lock with bounded exponential backoff).
func BenchmarkFig4(b *testing.B) {
	for _, bar := range exper.SyntheticBars() {
		bar := bar
		b.Run(bar.Label(), func(b *testing.B) { syntheticBench(b, apps.TTSApp, bar) })
	}
}

// BenchmarkFig5 regenerates Figure 5 (counter under an MCS queue lock).
func BenchmarkFig5(b *testing.B) {
	for _, bar := range exper.SyntheticBars() {
		bar := bar
		b.Run(bar.Label(), func(b *testing.B) { syntheticBench(b, apps.MCSApp, bar) })
	}
}

// BenchmarkFig2 regenerates Figure 2: the real applications under each
// policy, reporting the share of uncontended atomic accesses and the
// write-run mean (the paper's section 4.2 observables).
func BenchmarkFig2(b *testing.B) {
	o := benchOpts()
	for _, app := range exper.RealApps() {
		for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUNC, proto.PolicyUPD} {
			app, pol := app, pol
			b.Run(app.String()+"/"+pol.String(), func(b *testing.B) {
				var uncontended, writeRun float64
				for i := 0; i < b.N; i++ {
					bar := exper.Bar{Policy: pol, Prim: locks.PrimFAP}
					m := exper.NewMachine(o, bar)
					exper.Point{App: app, Bar: bar, Scale: o}.RunOn(m)
					uncontended = m.System().Contention().Histogram().Percent(1)
					wr := m.System().WriteRuns()
					wr.Flush()
					writeRun = wr.Mean()
				}
				b.ReportMetric(uncontended, "%uncontended")
				b.ReportMetric(writeRun, "write-run")
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: total elapsed simulated time of the
// real applications per primitive/policy configuration (representative
// bars; cmd/figures runs the full set).
func BenchmarkFig6(b *testing.B) {
	o := benchOpts()
	bars := []exper.Bar{
		{Policy: proto.PolicyUNC, Prim: locks.PrimFAP},
		{Policy: proto.PolicyUNC, Prim: locks.PrimLLSC},
		{Policy: proto.PolicyINV, Prim: locks.PrimFAP},
		{Policy: proto.PolicyINV, Prim: locks.PrimCAS},
		{Policy: proto.PolicyINV, Prim: locks.PrimCAS, LoadEx: true},
		{Policy: proto.PolicyINV, Prim: locks.PrimLLSC},
		{Policy: proto.PolicyUPD, Prim: locks.PrimFAP},
		{Policy: proto.PolicyUPD, Prim: locks.PrimCAS},
	}
	for _, app := range exper.RealApps() {
		for _, bar := range bars {
			app, bar := app, bar
			b.Run(app.String()+"/"+bar.Label(), func(b *testing.B) {
				var elapsed sim.Time
				for i := 0; i < b.N; i++ {
					elapsed = exper.Point{App: app, Bar: bar, Scale: o}.RunOn(exper.NewMachine(o, bar)).Elapsed
				}
				b.ReportMetric(float64(elapsed), "sim-cycles")
			})
		}
	}
}

// ---------------------------------------------------------- ablations ----

// BenchmarkAblationResvScheme compares the three memory-side reservation
// schemes of section 3.1 under a contended UNC LL/SC counter.
func BenchmarkAblationResvScheme(b *testing.B) {
	schemes := []struct {
		name   string
		scheme dir.ResvScheme
	}{
		{"bitvector", dir.ResvBitVector},
		{"limited-4", dir.ResvLimited},
		{"serial", dir.ResvSerial},
	}
	for _, s := range schemes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Nodes = 16
				cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
				cfg.ResvScheme = s.scheme
				m := machine.New(cfg)
				res := apps.CounterApp(m, proto.PolicyUNC,
					locks.Options{Prim: locks.PrimLLSC},
					apps.Pattern{Contention: 16, Rounds: 6})
				avg = res.AvgCycles
			}
			b.ReportMetric(avg, "sim-cycles/update")
		})
	}
}

// BenchmarkAblationBareSCRelease measures the serial-number scheme's
// bare-store_conditional MCS release against the standard LL/SC release.
func BenchmarkAblationBareSCRelease(b *testing.B) {
	for _, bare := range []bool{false, true} {
		bare := bare
		name := "llsc-release"
		if bare {
			name = "bare-sc-release"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Nodes = 16
				cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
				cfg.ResvScheme = dir.ResvSerial
				m := machine.New(cfg)
				l := locks.NewMCSLock(m, proto.PolicyUNC, locks.Options{Prim: locks.PrimLLSC})
				l.BareSCRelease = bare
				shared := m.Alloc(4)
				t := m.Run(func(p *machine.Proc) {
					for k := 0; k < 4; k++ {
						l.Acquire(p)
						p.Store(shared, p.Load(shared)+1)
						l.Release(p)
						p.Compute(40)
					}
				})
				elapsed = float64(t)
			}
			b.ReportMetric(elapsed, "sim-cycles")
		})
	}
}

// BenchmarkAblationBackoffBound sweeps the TTS lock's maximum backoff
// under heavy contention: too little backoff recreates the invalidation
// storm the paper describes, too much wastes hand-off latency.
func BenchmarkAblationBackoffBound(b *testing.B) {
	for _, maxB := range []int{64, 1024, 16384} {
		maxB := maxB
		b.Run(fmt.Sprintf("max=%d", maxB), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Nodes = 16
				cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
				m := machine.New(cfg)
				l := locks.NewTTSLock(m, proto.PolicyINV, locks.Options{Prim: locks.PrimFAP})
				l.MaxBackoff = sim.Time(maxB)
				counter := m.Alloc(4)
				res := apps.RunSynthetic(m, apps.Pattern{Contention: 16, Rounds: 8},
					func(p *machine.Proc) {
						l.Acquire(p)
						p.Store(counter, p.Load(counter)+1)
						l.Release(p)
					})
				avg = res.AvgCycles
			}
			b.ReportMetric(avg, "sim-cycles/update")
		})
	}
}

// BenchmarkAblationRouterContention tests the paper's methodology
// simplification (no contention at internal routers) by running the
// contended lock-free counter with and without per-link serialization: the
// conclusions should not change.
func BenchmarkAblationRouterContention(b *testing.B) {
	for _, routed := range []bool{false, true} {
		routed := routed
		name := "entry-exit-only"
		if routed {
			name = "internal-links"
		}
		b.Run(name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Nodes = 16
				cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
				cfg.Mesh.ModelRouters = routed
				m := machine.New(cfg)
				res := apps.CounterApp(m, proto.PolicyUNC,
					locks.Options{Prim: locks.PrimFAP},
					apps.Pattern{Contention: 16, Rounds: 8})
				avg = res.AvgCycles
			}
			b.ReportMetric(avg, "sim-cycles/update")
		})
	}
}

// BenchmarkAblationWriteRunCrossover sweeps the write-run length to locate
// the INV/UNC crossover the paper describes in section 4.3.1.
func BenchmarkAblationWriteRunCrossover(b *testing.B) {
	for _, a := range []float64{1, 2, 3, 5, 10} {
		a := a
		for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUNC} {
			pol := pol
			b.Run(fmt.Sprintf("%s/a=%g", pol, a), func(b *testing.B) {
				var avg float64
				for i := 0; i < b.N; i++ {
					m := exper.NewMachine(benchOpts(), exper.Bar{})
					res := apps.CounterApp(m, pol, locks.Options{Prim: locks.PrimFAP},
						apps.Pattern{Contention: 1, WriteRun: a, Rounds: 8})
					avg = res.AvgCycles
				}
				b.ReportMetric(avg, "sim-cycles/update")
			})
		}
	}
}

// BenchmarkAblationMemLatency sweeps the memory latency to expose how the
// policies' relative standing depends on the memory/network cost ratio.
func BenchmarkAblationMemLatency(b *testing.B) {
	for _, lat := range []int{6, 18, 54} {
		lat := lat
		for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUNC} {
			pol := pol
			b.Run(fmt.Sprintf("%s/mem=%d", pol, lat), func(b *testing.B) {
				var avg float64
				for i := 0; i < b.N; i++ {
					cfg := core.DefaultConfig()
					cfg.Nodes = 16
					cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
					cfg.Mem.Latency = sim.Time(lat)
					m := machine.New(cfg)
					res := apps.CounterApp(m, pol, locks.Options{Prim: locks.PrimFAP},
						apps.Pattern{Contention: 8, Rounds: 6})
					avg = res.AvgCycles
				}
				b.ReportMetric(avg, "sim-cycles/update")
			})
		}
	}
}
