package apps

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

func newM(procs int) *machine.Machine {
	cfg := core.DefaultConfig()
	cfg.Nodes = procs
	switch {
	case procs <= 4:
		cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	case procs <= 16:
		cfg.Mesh.Width, cfg.Mesh.Height = 4, 4
	default:
		cfg.Mesh.Width, cfg.Mesh.Height = 8, 8
	}
	return machine.New(cfg)
}

// --------------------------------------------------------- synthetic ----

func TestPatternRunsForAveragesToWriteRun(t *testing.T) {
	for _, a := range []float64{1, 1.5, 2, 3, 10} {
		pat := Pattern{Contention: 1, WriteRun: a}
		total := 0
		const rounds = 1000
		for r := 0; r < rounds; r++ {
			total += pat.runsFor(r)
		}
		got := float64(total) / rounds
		if got < a-0.01 || got > a+0.01 {
			t.Errorf("a=%g: average run %g", a, got)
		}
	}
}

func TestPatternString(t *testing.T) {
	if (Pattern{Contention: 1, WriteRun: 1.5}).String() != "c=1 a=1.5" {
		t.Fatal("no-contention label wrong")
	}
	if (Pattern{Contention: 16}).String() != "c=16" {
		t.Fatal("contention label wrong")
	}
}

func TestCounterAppNoContention(t *testing.T) {
	m := newM(4)
	res := CounterApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimFAP},
		Pattern{Contention: 1, WriteRun: 2, Rounds: 8})
	if res.Ops != 16 {
		t.Fatalf("updates = %d, want 16 (8 rounds x run 2)", res.Ops)
	}
	if res.AvgCycles <= 0 {
		t.Fatal("no cycles measured")
	}
}

func TestCounterAppContention(t *testing.T) {
	m := newM(4)
	res := CounterApp(m, core.PolicyUNC, locks.Options{Prim: locks.PrimFAP},
		Pattern{Contention: 4, Rounds: 5})
	if res.Ops != 20 {
		t.Fatalf("updates = %d, want 20", res.Ops)
	}
}

func TestCounterAppAllPrimsProduceCorrectCount(t *testing.T) {
	for _, prim := range []locks.Prim{locks.PrimFAP, locks.PrimCAS, locks.PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			pat := Pattern{Contention: 2, Rounds: 6}
			res := CounterApp(m, core.PolicyINV, locks.Options{Prim: prim}, pat)
			if res.Ops != 12 {
				t.Fatalf("updates = %d", res.Ops)
			}
		})
	}
}

func TestTTSAppCountsAllUpdates(t *testing.T) {
	m := newM(4)
	res := TTSApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimCAS},
		Pattern{Contention: 4, Rounds: 4})
	if res.Ops != 16 {
		t.Fatalf("updates = %d", res.Ops)
	}
}

func TestMCSAppCountsAllUpdates(t *testing.T) {
	m := newM(4)
	res := MCSApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimLLSC},
		Pattern{Contention: 4, Rounds: 4})
	if res.Ops != 16 {
		t.Fatalf("updates = %d", res.Ops)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	run := func() float64 {
		m := newM(8)
		return CounterApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimCAS},
			Pattern{Contention: 8, Rounds: 6}).AvgCycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("synthetic run not deterministic: %v vs %v", a, b)
	}
}

// ----------------------------------------------------------- closure ----

func TestTClosureMatchesReference(t *testing.T) {
	for _, prim := range []locks.Prim{locks.PrimFAP, locks.PrimCAS, locks.PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			cfg := TClosureConfig{Size: 12, Policy: core.PolicyUNC,
				Opts: locks.Options{Prim: prim}, Seed: 7}
			res := TClosure(m, cfg)
			want := TClosureReference(12, 7, 4)
			if res.Work != uint64(want) {
				t.Fatalf("closure has %d reachable pairs, reference %d", res.Work, want)
			}
			if res.Elapsed == 0 {
				t.Fatal("no time elapsed")
			}
			m.System().CheckCoherence()
		})
	}
}

func TestTClosureAllPoliciesAgree(t *testing.T) {
	var got []uint64
	for _, pol := range []core.Policy{core.PolicyINV, core.PolicyUPD, core.PolicyUNC} {
		m := newM(4)
		res := TClosure(m, TClosureConfig{Size: 10, Policy: pol,
			Opts: locks.Options{Prim: locks.PrimFAP}, Seed: 3})
		got = append(got, res.Work)
	}
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("policies disagree on the closure: %v", got)
	}
}

func TestTClosureDenseGraphSaturates(t *testing.T) {
	m := newM(4)
	res := TClosure(m, TClosureConfig{Size: 8, Policy: core.PolicyUNC,
		Opts: locks.Options{Prim: locks.PrimFAP}, Seed: 1, EdgeDenom: 2})
	want := TClosureReference(8, 1, 2)
	if res.Work != uint64(want) {
		t.Fatalf("reachable = %d, want %d", res.Work, want)
	}
}

// ---------------------------------------------------------- substitutes --

func TestLocusRouteRoutesEveryWire(t *testing.T) {
	m := newM(8)
	cfg := DefaultLocusRoute(8)
	cfg.Policy = core.PolicyINV
	cfg.Opts = locks.Options{Prim: locks.PrimCAS}
	res := LocusRoute(m, cfg)
	if res.Work != uint64(cfg.Wires) {
		t.Fatalf("routed %d wires, want %d", res.Work, cfg.Wires)
	}
	if res.Elapsed == 0 {
		t.Fatal("no time elapsed")
	}
	m.System().CheckCoherence()
}

func TestLocusRouteSharingPatternMatchesPaper(t *testing.T) {
	// The paper's section 4.2: LocusRoute lock write-run lengths fall in
	// 1.70-1.83 and the contention histogram is dominated by the
	// no-contention case. Validate the substitution reproduces the shape
	// (wide tolerance: 1.2-2.5 and >= 60% uncontended).
	m := newM(8)
	cfg := DefaultLocusRoute(8)
	cfg.Policy = core.PolicyINV
	cfg.Opts = locks.Options{Prim: locks.PrimFAP}
	LocusRoute(m, cfg)
	wr := m.System().WriteRuns()
	wr.Flush()
	if mean := wr.Mean(); mean < 1.2 || mean > 2.5 {
		t.Errorf("lock write-run mean = %.2f, want ~1.7", mean)
	}
	hist := m.System().Contention().Histogram()
	if hist.Total() == 0 {
		t.Fatal("no contention samples")
	}
	if pct := hist.Percent(1); pct < 60 {
		t.Errorf("uncontended accesses = %.1f%%, want dominant", pct)
	}
}

func TestLocusRouteConservation(t *testing.T) {
	// Every wire increments each cell of its chosen L-route exactly once,
	// and both candidate routes have the same length, so the grid total
	// must equal the sum of manhattan distances plus one per wire —
	// regardless of scheduling, contention, or route choices. The grid is
	// LocusRoute's first allocation, so it lies where the first allocation
	// of an identical fresh machine does.
	m := newM(8)
	cfg := DefaultLocusRoute(8)
	cfg.Policy = core.PolicyINV
	cfg.Opts = locks.Options{Prim: locks.PrimCAS}
	grid := newM(8).Alloc(uint32(cfg.Grid * cfg.Grid * arch.WordBytes))
	LocusRoute(m, cfg)

	rng := sim.NewRNG(cfg.Seed)
	want := 0
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	for i := 0; i < cfg.Wires; i++ {
		x1, y1 := rng.Intn(cfg.Grid), rng.Intn(cfg.Grid)
		x2, y2 := rng.Intn(cfg.Grid), rng.Intn(cfg.Grid)
		want += abs(x1-x2) + abs(y1-y2) + 1
	}
	got := 0
	for c := 0; c < cfg.Grid*cfg.Grid; c++ {
		got += int(m.Peek(grid + arch.Addr(c*arch.WordBytes)))
	}
	if got != want {
		t.Fatalf("grid total = %d, want %d (cells lost or double-claimed)", got, want)
	}
}

func TestCholeskyFactorsEveryColumn(t *testing.T) {
	m := newM(8)
	cfg := DefaultCholesky(8)
	cfg.Policy = core.PolicyINV
	cfg.Opts = locks.Options{Prim: locks.PrimLLSC}
	res := Cholesky(m, cfg)
	if res.Work != uint64(cfg.Columns) {
		t.Fatalf("factored %d columns, want %d", res.Work, cfg.Columns)
	}
	m.System().CheckCoherence()
}

func TestCholeskySharingPatternMatchesPaper(t *testing.T) {
	m := newM(8)
	cfg := DefaultCholesky(8)
	cfg.Policy = core.PolicyINV
	cfg.Opts = locks.Options{Prim: locks.PrimFAP}
	Cholesky(m, cfg)
	wr := m.System().WriteRuns()
	wr.Flush()
	if mean := wr.Mean(); mean < 1.2 || mean > 2.5 {
		t.Errorf("lock write-run mean = %.2f, want ~1.6", mean)
	}
	if pct := m.System().Contention().Histogram().Percent(1); pct < 60 {
		t.Errorf("uncontended accesses = %.1f%%, want dominant", pct)
	}
}

func TestRealAppsDeterministic(t *testing.T) {
	run := func() (a, b uint64) {
		m := newM(4)
		cfg := DefaultLocusRoute(4)
		cfg.Policy = core.PolicyINV
		cfg.Opts = locks.Options{Prim: locks.PrimCAS}
		r := LocusRoute(m, cfg)

		m2 := newM(4)
		c2 := DefaultCholesky(4)
		c2.Policy = core.PolicyUNC
		c2.Opts = locks.Options{Prim: locks.PrimFAP}
		r2 := Cholesky(m2, c2)
		return uint64(r.Elapsed), uint64(r2.Elapsed)
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("real apps not deterministic: %d/%d vs %d/%d", a1, b1, a2, b2)
	}
}
