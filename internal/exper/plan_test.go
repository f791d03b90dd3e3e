package exper

import (
	"bytes"
	"testing"

	"dsm/internal/apps"
	"dsm/internal/locks"
	"dsm/internal/proto"
)

// TestRunParallelMatchesSerial is the layer's determinism contract: a plan's
// results are identical whether the points run serially or fanned across
// workers — including the full collected reports, byte for byte.
// headline is r without its report, so results compare with ==.
func headline(r Result) Result {
	r.Report = nil
	return r
}

func TestRunParallelMatchesSerial(t *testing.T) {
	o := RunOpts{Procs: 8, Rounds: 2, TCSize: 8}
	base := SyntheticPlan(AppCounter, o)
	base.Points = append(base.Points,
		Point{App: AppTClosure, Bar: Bar{Policy: proto.PolicyINV, Prim: locks.PrimFAP}, Scale: o})
	base.Collect = true

	run := func(par int) []Result {
		pl := base
		pl.Par = par
		return Run(pl)
	}
	serial := run(1)
	for _, par := range []int{4, 0} {
		res := run(par)
		if len(res) != len(serial) {
			t.Fatalf("par=%d: %d results, want %d", par, len(res), len(serial))
		}
		for i := range res {
			if headline(res[i]) != headline(serial[i]) {
				t.Fatalf("par=%d point %d: %+v != serial %+v", par, i, res[i], serial[i])
			}
			var a, b bytes.Buffer
			if err := res[i].Report.WriteJSON(&a); err != nil {
				t.Fatal(err)
			}
			if err := serial[i].Report.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("par=%d point %d: report differs from serial\n%s\n--- vs ---\n%s",
					par, i, a.String(), b.String())
			}
		}
	}
}

// TestPointRunDeterministic re-runs the same point and requires identical
// results: the seed discipline plus machine reuse must replay exactly.
func TestPointRunDeterministic(t *testing.T) {
	p := Point{
		App:     AppCounter,
		Bar:     Bar{Policy: proto.PolicyINV, Prim: locks.PrimCAS, LoadEx: true},
		Scale:   RunOpts{Procs: 8, Rounds: 4},
		Pattern: apps.Pattern{Contention: 8, Rounds: 4},
	}
	first := p.Run(false)
	for i := 0; i < 3; i++ {
		if got := p.Run(false); got != first {
			t.Fatalf("re-run %d: %+v != %+v", i, got, first)
		}
	}
}

// TestPointSeedSelectsRun checks the explicit seed changes the run (and
// zero keeps the default).
func TestPointSeedSelectsRun(t *testing.T) {
	p := Point{
		App:   AppTClosure,
		Bar:   Bar{Policy: proto.PolicyUNC, Prim: locks.PrimFAP},
		Scale: RunOpts{Procs: 4, TCSize: 10},
	}
	def := p.Run(false)
	p.Seed = 11 // the default TClosure seed, set explicitly
	if got := p.Run(false); got != def {
		t.Fatalf("seed 11 should match the default run: %+v != %+v", got, def)
	}
	p.Seed = 99
	if got := p.Run(false); got == def {
		t.Fatalf("seed 99 replayed the default run exactly: %+v", got)
	}
}

func TestSyntheticPlanLayout(t *testing.T) {
	o := RunOpts{Procs: 4, Rounds: 1}
	bars, pats := SyntheticBars(), Patterns(o)
	pl := SyntheticPlan(AppTTS, o)
	if len(pl.Points) != len(bars)*len(pats) {
		t.Fatalf("plan has %d points, want %d", len(pl.Points), len(bars)*len(pats))
	}
	// Pattern-major: point pi*len(bars)+bi is bar bi under pattern pi.
	for pi, pat := range pats {
		for bi, bar := range bars {
			p := pl.Points[pi*len(bars)+bi]
			if p.App != AppTTS || p.Bar != bar || p.Pattern != pat {
				t.Fatalf("point (%d,%d) = %+v, want bar %q pattern %v", pi, bi, p, bar.Label(), pat)
			}
		}
	}
}

func TestCollectToggle(t *testing.T) {
	pl := SyntheticPlan(AppCounter, RunOpts{Procs: 4, Rounds: 1})
	pl.Points = pl.Points[:2]
	for _, r := range Run(pl) {
		if r.Report != nil {
			t.Fatal("Collect=false attached a report")
		}
	}
	pl.Collect = true
	for _, r := range Run(pl) {
		if r.Report == nil {
			t.Fatal("Collect=true produced a nil report")
		}
		if r.Report.Procs != 4 {
			t.Fatalf("report procs = %d, want 4", r.Report.Procs)
		}
	}
}

// TestCollectedReportSurvivesPoolReuse pins the aliasing contract: a
// collected report must stay valid after its machine is reset and reused
// by later points.
func TestCollectedReportSurvivesPoolReuse(t *testing.T) {
	o := RunOpts{Procs: 8, Rounds: 2}
	hot := Point{
		App: AppCounter, Bar: Bar{Policy: proto.PolicyINV, Prim: locks.PrimFAP},
		Scale: o, Pattern: apps.Pattern{Contention: 8, Rounds: o.Rounds},
	}
	first := hot.Run(true)
	total := first.Report.Contention.Total()
	mean := first.Report.Contention.Mean()
	// Reuse the machine for different runs that would clobber a live alias.
	cold := hot
	cold.Pattern = apps.Pattern{Contention: 1, Rounds: o.Rounds}
	for i := 0; i < 4; i++ {
		cold.Run(false)
	}
	if first.Report.Contention.Total() != total || first.Report.Contention.Mean() != mean {
		t.Fatalf("report histogram mutated by machine reuse: total %d->%d mean %.3f->%.3f",
			total, first.Report.Contention.Total(), mean, first.Report.Contention.Mean())
	}
}

// TestWorkloadPlanParallelMatchesSerial extends the determinism contract
// to the lock-free workload library: every workload app under every
// synthetic bar, serial vs fanned-out, byte-identical reports.
func TestWorkloadPlanParallelMatchesSerial(t *testing.T) {
	o := RunOpts{Procs: 8, Rounds: 3}
	base := Plan{Collect: true}
	for _, app := range []App{AppMSQueue, AppStack, AppRCU, AppTournament, AppDissemination} {
		for _, bar := range SyntheticBars() {
			base.Points = append(base.Points, Point{
				App: app, Bar: bar, Scale: o,
				Pattern: apps.Pattern{Contention: 4, Rounds: o.Rounds},
			})
		}
	}
	run := func(par int) []Result {
		pl := base
		pl.Par = par
		return Run(pl)
	}
	serial := run(1)
	res := run(0)
	for i := range res {
		if headline(res[i]) != headline(serial[i]) {
			t.Fatalf("point %d (%s): %+v != serial %+v",
				i, base.Points[i].App, res[i], serial[i])
		}
		var a, b bytes.Buffer
		if err := res[i].Report.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := serial[i].Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("point %d (%s): report differs from serial", i, base.Points[i].App)
		}
		if res[i].Ops == 0 {
			t.Fatalf("point %d (%s): zero operations", i, base.Points[i].App)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for i, name := range AppNames() {
		got, err := ParseApp(name)
		if err != nil || got != App(i) || got.Name() != name {
			t.Fatalf("ParseApp(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseApp("nope"); err == nil {
		t.Fatal("ParseApp accepted junk")
	}

	// Policies, primitive families and CAS variants: every value's String
	// parses back to it, the *Names list is the Strings in value order, and
	// WireName interns each one.
	for _, c := range []struct {
		what  string
		n     int
		name  func(i int) string
		parse func(s string) (int, error)
		names []string
	}{
		{"policy", proto.NumPolicies,
			func(i int) string { return proto.Policy(i).String() },
			func(s string) (int, error) { v, err := ParsePolicy(s); return int(v), err },
			PolicyNames()},
		{"primitive", locks.NumPrims,
			func(i int) string { return locks.Prim(i).String() },
			func(s string) (int, error) { v, err := ParsePrim(s); return int(v), err },
			PrimNames()},
		{"CAS variant", proto.NumCASVariants,
			func(i int) string { return proto.CASVariant(i).String() },
			func(s string) (int, error) { v, err := ParseVariant(s); return int(v), err },
			VariantNames()},
	} {
		if len(c.names) != c.n {
			t.Errorf("%s names %q, want %d", c.what, c.names, c.n)
		}
		for i := range c.n {
			name := c.name(i)
			if got, err := c.parse(name); err != nil || got != i {
				t.Errorf("parse %s %q = %d, %v; want %d", c.what, name, got, err, i)
			}
			if i < len(c.names) && c.names[i] != name {
				t.Errorf("%s names[%d] = %q, want %q", c.what, i, c.names[i], name)
			}
			if got, ok := WireName([]byte(name)); !ok || got != name {
				t.Errorf("WireName(%q) = %q, %v", name, got, ok)
			}
		}
		if _, err := c.parse("nope"); err == nil {
			t.Errorf("parse %s accepted junk", c.what)
		}
	}
}
