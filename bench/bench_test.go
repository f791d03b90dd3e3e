package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

const testGolden = "../internal/figures/testdata/golden_small.txt"

func tiny(seed uint64, items int) config {
	return config{seed: seed, items: items, limit: time.Minute, golden: testGolden}
}

func lookupDef(t *testing.T, name string) def {
	t.Helper()
	i := slices.IndexFunc(defs, func(d def) bool { return d.name == name })
	if i < 0 {
		t.Fatalf("no workload %q", name)
	}
	return defs[i]
}

// requestBodies is the sequence of request bodies a workload sends.
func requestBodies(w workload) [][]byte {
	var out [][]byte
	switch w := w.(type) {
	case *sweepWL:
		out = w.bodies
	case *serveWL:
		for _, e := range w.list {
			out = append(out, w.body(e))
		}
	case *fleetWL:
		for _, k := range w.list {
			out = append(out, w.bodies[k])
		}
	}
	return out
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"sweep_contended", "serve_dup90", "fleet_zipf"} {
		d := lookupDef(t, name)
		a := requestBodies(d.make(tiny(1, 300)))
		b := requestBodies(d.make(tiny(1, 300)))
		c := requestBodies(d.make(tiny(2, 300)))
		if len(a) != 300 {
			t.Fatalf("%s: %d requests, want 300", name, len(a))
		}
		if !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: same seed gave different request lists", name)
		}
		if slices.EqualFunc(a, c, bytes.Equal) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    int
		want float64
	}{
		{hundred, 50, 50}, {hundred, 90, 90}, {hundred, 99, 99}, {hundred, 100, 100},
		{[]float64{1, 2, 3, 4, 5}, 50, 3}, {[]float64{1, 2, 3, 4, 5}, 1, 1},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%d samples, p%d) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {999, 95}, {384, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {5, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

// TestScaleUsesEachWindowsSpeed scales two windows by the mean of the
// speed samples on either side of each.
func TestScaleUsesEachWindowsSpeed(t *testing.T) {
	ms := time.Millisecond
	p := &pass{
		win: []window{{0, 2, 4 * time.Second}, {2, 3, 2 * time.Second}},
		lat: []time.Duration{10 * ms, 30 * ms, 20 * ms},
	}
	elapsed, lat := scale(p, []float64{0.5, 0.5, 1.5})
	if elapsed != 4*0.5+2*1.0 {
		t.Errorf("elapsed %v s, want 4", elapsed)
	}
	if want := []float64{5, 15, 20}; !slices.Equal(lat, want) {
		t.Errorf("latencies %v ms, want %v", lat, want)
	}
}

// TestRefKernelAllocatesNothing: a collection during the kernel would
// charge the program's garbage to the host's speed.
func TestRefKernelAllocatesNothing(t *testing.T) {
	slab := make([]uint64, refSlabWords)
	if n := testing.AllocsPerRun(3, func() { refKernel(slab, 10_000) }); n != 0 {
		t.Errorf("refKernel allocates %v times per call", n)
	}
}

func TestFlippedGoldenByteFails(t *testing.T) {
	want, err := os.ReadFile(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	want[len(want)/2] ^= 1
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c := tiny(1, 1)
	c.golden = path
	w := lookupDef(t, "figures_small").make(c)
	st, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{n: 1, windows: 1}
	w.run(st, p, nil)
	if p.bad == nil || p.bad.item != 0 || !strings.Contains(p.bad.what, "golden") {
		t.Fatalf("a golden copy with one flipped byte passed the check: %+v", p.bad)
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

func resultNames(r result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestWorkloadsEndToEnd runs every workload untraced at a tiny size and
// requires a correct result carrying exactly the end-to-end metrics.
func TestWorkloadsEndToEnd(t *testing.T) {
	sizes := map[string]int{"figures_small": 1, "sweep_contended": 2, "serve_dup90": 400, "fleet_zipf": 400}
	for _, d := range defs {
		var out bytes.Buffer
		r, err := untraced(d, tiny(1, sizes[d.name]), &sink{w: &out, workload: d.name, values: map[string]float64{}})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted != sizes[d.name] {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", d.name, r.Correct, r.Attempted, r.Failed)
		}
		if got, want := resultNames(r), metricNames(endToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: metrics %v, want %v", d.name, got, want)
		}
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", d.name, name, m.Value)
			}
		}
		if !strings.HasPrefix(out.String(), d.name+" ") {
			t.Errorf("%s: output lines do not start with the workload name:\n%s", d.name, out.String())
		}
	}
}

// TestTracedRun runs the traced mode on a tiny serve_dup90 list: the
// per-layer metrics, a replay that simulated something, and a valid
// Chrome trace.
func TestTracedRun(t *testing.T) {
	d := lookupDef(t, "serve_dup90")
	dir := t.TempDir()
	s := &sink{w: &bytes.Buffer{}, workload: d.name, values: map[string]float64{}}
	r, err := traced(d, d.make(tiny(1, 400)), options{traceDir: dir}, s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatal("traced run reported wrong output")
	}
	if got, want := resultNames(r), metricNames(perLayer); !slices.Equal(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	for _, name := range []string{"sim.events", "machine.proc_ops", "exper.points", "serve.hits", "sim.ns_per_event"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-serve_dup90.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) || !bytes.Contains(b, []byte(`"name":"exper.RunOn"`)) {
		t.Error("trace file is not Chrome trace JSON with RunOn spans")
	}
}

func TestLaneOfCallingGoroutine(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.lane("client")
			for range 100 {
				if tr.current() != l {
					t.Errorf("goroutine %d: current() is another goroutine's lane", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(defs))
	}
	for i, w := range spec.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, here %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, here %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, here %+v", i, m, d)
		}
	}
}
