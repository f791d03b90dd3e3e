// Command bench is the repository's benchmark: four fixed-work workloads
// over the simulator and its serving stack, driven in process through the
// layers' exported APIs, with every output checked for correctness.
//
//	bash bench/run.sh                         # all workloads, seed 1
//	bash bench/run.sh --workload serve_dup90 --seed 2 --seconds 20
//	bash bench/run.sh --workload fleet_zipf --trace 1
//
// Each workload prints its metrics as "workload metric value unit" lines,
// then one JSON line {"correct","attempted","failed","metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1. A
// traced run also writes a Chrome trace to --trace-dir. Without
// --workload every workload runs in its own child process. A wrong output
// exits 1 and names the workload and the work item. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many throwaway stacks an untraced run sets up before
// each window.
const setupReps = 3

// goldenPath is figures_small's expected output, relative to the
// repository root the benchmark runs from.
const goldenPath = "internal/figures/testdata/golden_small.txt"

// options are the command-line settings of one workload run.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed the work lists are generated from")
		seconds = flag.Float64("seconds", 20, "run length on the reference host; sizes each workload's fixed work")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		dir     = flag.String("trace-dir", ".bench_build", "directory for the Chrome trace of a traced run")
	)
	flag.Parse()
	if *name == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	i := slices.IndexFunc(defs, func(d def) bool { return d.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad flags (workloads: %v)\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(clients)
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *dir}
	res, err := runWorkload(defs[i], o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process with the same
// flags, passing their output through, and fails if any child does.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rc := 0
	for _, d := range defs {
		cmd := exec.Command(exe, append([]string{"--workload", d.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.name, err)
			rc = 1
		}
	}
	return rc
}

func workloadNames() []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sink prints "workload metric value unit" lines and keeps the values.
type sink struct {
	w        io.Writer
	workload string
	values   map[string]float64
}

func (s *sink) put(name string, v float64, unit string) {
	fmt.Fprintf(s.w, "%s %s %v %s\n", s.workload, name, v, unit)
	s.values[name] = v
}

// result assembles the JSON line from the declared metrics; a declared
// metric the workload has no work for is 0.
func (s *sink) result(defs []metricDef, passes ...*pass) result {
	r := result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{s.values[d.name], d.unit}
	}
	for _, p := range passes {
		r.Attempted += len(p.lat)
		r.Failed += int(p.failed.Load())
		if p.bad != nil {
			r.Correct = false
			where := fmt.Sprintf("request %d", p.bad.item)
			if p.bad.item < 0 {
				where = "warm-up"
			}
			fmt.Fprintf(os.Stderr, "bench: %s: wrong output at %s: %s\n", s.workload, where, p.bad.what)
		}
	}
	s.put("error_rate", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	return r
}

// runWorkload runs d as o asks, printing its metrics to out.
func runWorkload(d def, o options, out io.Writer) (result, error) {
	c := config{
		seed:   o.seed,
		items:  max(1, int(d.rate*o.seconds+0.5)),
		limit:  min(time.Duration(4*o.seconds*float64(time.Second)), 100*time.Second),
		golden: goldenPath,
	}
	s := &sink{w: out, workload: d.name, values: make(map[string]float64)}
	if o.trace {
		return traced(d, d.make(c), o, s)
	}
	return untraced(d, c, s)
}

// windows is how many equal slices of its work list an untraced run times
// one after the other.
const windows = 10

// untraced generates the work list from the seed, builds and warms the
// stack, and drives the whole list through it in windows. Before every
// window it sets up setupReps throwaway stacks, so set-up is sampled
// across the whole run, and then measures the host's speed (see
// refspeed.go); it measures it once more after the last window. It
// reports the end-to-end metrics scaled to host speed 1, and prints the
// unscaled ones beside them.
func untraced(d def, c config, s *sink) (result, error) {
	w := d.make(c)
	pr := newProbe()
	var (
		setups []float64 // scaled
		speeds []float64 // before each window, and after the last
		err    error
	)
	setUp := func() (stack, float64) {
		// Two collections also empty sync.Pool caches (the second frees the
		// victim cache), so every repetition sets up as cold as the first.
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		st, e := w.setup(nil)
		if e != nil {
			err = e
		}
		return st, time.Since(t0).Seconds()
	}
	st, first := setUp()
	if err != nil {
		return result{}, err
	}
	p := &pass{n: w.items(), windows: min(windows, w.items())}
	p.between = func() {
		var raw []float64
		for range setupReps {
			if extra, t := setUp(); extra != nil {
				extra.close()
				raw = append(raw, t)
			}
		}
		runtime.GC()
		sp := pr.speed()
		speeds = append(speeds, sp)
		for _, t := range raw {
			setups = append(setups, t*sp)
		}
	}
	w.run(st, p, nil)
	runtime.GC()
	speeds = append(speeds, pr.speed())
	st.close()
	if err != nil {
		return result{}, err
	}
	setups = append(setups, first*speeds[0])
	p.verify()

	elapsed, lat := scale(p, speeds)
	raw := sortedIn(p.lat, time.Millisecond)
	tail := tailPercentile(len(lat))
	s.put("setup_s", median(setups), "s")
	s.put("throughput_per_s", ratio(float64(p.units), elapsed), "1/s")
	s.put("latency_p50_ms", percentile(lat, 50), "ms")
	s.put("latency_tail_ms", percentile(lat, tail), "ms")
	s.put("max_rss_mb", maxRSSMB(), "MB")
	s.put("latency_samples", float64(len(lat)), d.latency+"s")
	s.put("latency_tail_percentile", float64(tail), "p")
	s.put("setup_samples", float64(len(setups)), "set-ups")
	s.put("host_speed", median(speeds), "ratio")
	s.put("unscaled_throughput_per_s", ratio(float64(p.units), p.elapsed.Seconds()), "1/s")
	s.put("unscaled_latency_p50_ms", percentile(raw, 50), "ms")
	s.put("unscaled_latency_tail_ms", percentile(raw, tail), "ms")
	s.put("work_units", float64(p.units), d.unit)
	s.put("elapsed_s", p.elapsed.Seconds(), "s")
	return s.result(endToEnd, p), nil
}

// scale returns a pass's elapsed seconds and its sorted item latencies in
// milliseconds, each window's scaled by the host speed around it: window
// k ran between speed samples k and k+1.
func scale(p *pass, speeds []float64) (float64, []float64) {
	var elapsed float64
	lat := make([]float64, 0, len(p.lat))
	for k, x := range p.win {
		sp := (speeds[k] + speeds[k+1]) / 2
		elapsed += x.elapsed.Seconds() * sp
		for _, l := range p.lat[x.lo:x.hi] {
			lat = append(lat, float64(l)/float64(time.Millisecond)*sp)
		}
	}
	slices.Sort(lat)
	return elapsed, lat
}

// traced measures the per-layer metrics:
//
//  1. calibrate the per-unit costs of the engine, the handshake, the mesh
//     and a serve hit;
//  2. drive a prefix of the work list (a quarter, at most 50k items)
//     through a fresh stack untraced, then through another fresh stack
//     traced; the difference of their times, each scaled by the host speed
//     measured around it, is the tracing overhead, and the traced pass
//     gives the span self times and the serve/fleet counters;
//  3. replay every distinct simulated point of the prefix on a
//     benchmark-owned machine slot for the exact simulated counts, and
//     price them with the calibrations (the ledger).
func traced(d def, w workload, o options, s *sink) (result, error) {
	cal, err := calibrate()
	if err != nil {
		return result{}, err
	}
	n := min(max(1, w.items()/4), 50_000)
	pr := newProbe()
	// timed drives the prefix through st and returns its elapsed seconds
	// scaled by the host speed before and after.
	timed := func(st stack, p *pass, tr *tracer) float64 {
		runtime.GC()
		before := pr.speed()
		w.run(st, p, tr)
		runtime.GC()
		return p.elapsed.Seconds() * (before + pr.speed()) / 2
	}
	st, err := w.setup(nil)
	if err != nil {
		return result{}, err
	}
	plain := &pass{n: n, windows: 1}
	plainS := timed(st, plain, nil)
	st.close()

	tr := newTracer()
	if st, err = w.setup(tr); err != nil {
		return result{}, err
	}
	p := &pass{n: n, windows: 1}
	tracedS := timed(st, p, tr)
	layer := st.counters()
	st.close()
	cnt := replay(w.points(n), tr.lane("replay"))
	plain.verify()
	p.verify()

	sp := tr.stats()
	p50 := func(name string) float64 { return spanPct(sp, name, false, 50) }
	runs := sortedSpan(sp, "exper.RunOn", false)
	runTail := tailPercentile(len(runs))
	runOnMS := sum(runs) / 1e3

	s.put("sim.events", float64(cnt.events), "count")
	s.put("sim.cycles", float64(cnt.cycles), "cycles")
	s.put("sim.ns_per_event", cal.nsPerEvent, "ns")
	s.put("machine.proc_ops", float64(cnt.procOps), "count")
	s.put("machine.ops_per_event", ratio(float64(cnt.procOps), float64(cnt.events)), "ratio")
	s.put("machine.handshake_ns", cal.handshakeNS, "ns")
	s.put("exper.points", float64(cnt.points), "count")
	s.put("exper.slot_builds", float64(cnt.slotBuilds), "count")
	s.put("exper.setup_us_p50", p50("exper.machine"), "us")
	s.put("exper.run_us_p50", percentile(runs, 50), "us")
	s.put("exper.run_us_tail", percentile(runs, runTail), "us")
	s.put("exper.run_tail_percentile", float64(runTail), "p")
	s.put("core.requests", float64(cnt.requests), "count")
	s.put("core.local_hits", float64(cnt.localHits), "count")
	s.put("core.naks", float64(cnt.naks), "count")
	s.put("core.retries", float64(cnt.retries), "count")
	s.put("core.invals", float64(cnt.invals), "count")
	s.put("core.updates", float64(cnt.updates), "count")
	s.put("core.nak_ratio", ratio(float64(cnt.naks), float64(cnt.requests)), "ratio")
	s.put("mem.queue_wait_cycles", float64(cnt.queueWait), "cycles")
	s.put("mesh.messages", float64(cnt.messages), "count")
	s.put("mesh.flits", float64(cnt.flits), "count")
	s.put("mesh.inject_wait_cycles", float64(cnt.injectWait), "cycles")
	s.put("mesh.eject_wait_cycles", float64(cnt.ejectWait), "cycles")
	s.put("mesh.ns_per_msg", cal.nsPerMsg, "ns")
	s.put("report.collect_us_p50", p50("report.Collect"), "us")
	s.put("report.encode_us_p50", p50("report.Encode"), "us")
	for _, m := range perLayer {
		if v, ok := layer[m.name]; ok {
			s.put(m.name, v, m.unit)
		}
	}
	s.put("serve.hit_us_p50", cal.serveHitUS, "us")

	// Host-time self times of this workload's own spans. They exist only
	// where the workload does that kind of work, so they are printed but
	// are not part of the JSON line, whose metrics every workload shares.
	for _, name := range []string{"request", "serve", "serve.hit", "serve.miss", "route", "backend",
		"figures.tceff", "figures.table1", "figures.fig2", "figures.fig3", "figures.fig4", "figures.fig5", "figures.fig6"} {
		if _, ok := sp[name]; ok {
			s.put("span."+name+".self_us_p50", spanPct(sp, name, true, 50), "us")
			s.put("span."+name+".us_p50", p50(name), "us")
		}
	}

	lg := price(cnt, cal, runOnMS)
	s.put("ledger.engine_ms", lg.engineMS, "ms")
	s.put("ledger.handshake_ms", lg.handshakeMS, "ms")
	s.put("ledger.mesh_ms", lg.meshMS, "ms")
	s.put("ledger.predicted_ms", lg.predictedMS, "ms")
	s.put("ledger.runon_ms", lg.runOnMS, "ms")
	s.put("ledger.residual_pct", lg.residualPct, "%")
	s.put("trace.overhead_pct", 100*(ratio(tracedS, plainS)-1), "%")
	s.put("trace.items", float64(len(p.lat)), d.latency+"s")

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(o.traceDir, "trace-"+d.name+".json")
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(s.w, "%s trace_file %s path\n", d.name, path)
	return s.result(perLayer, plain, p), nil
}

// sortedSpan returns the sorted durations (or self times) of the spans
// named name, in microseconds.
func sortedSpan(sp map[string]*spanStats, name string, self bool) []float64 {
	st := sp[name]
	if st == nil {
		return nil
	}
	xs := st.dur
	if self {
		xs = st.self
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs
}

func spanPct(sp map[string]*spanStats, name string, self bool, p int) float64 {
	return percentile(sortedSpan(sp, name, self), p)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
