package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/figures"
	"dsm/internal/fleet"
	"dsm/internal/locks"
	"dsm/internal/serve"
)

// clients is the closed-loop client count, the serve worker count, and
// the plan width of every workload: the two cores of the reference host.
const clients = 2

// A workload is one traffic mix. Its work list is generated from the
// seed before anything is timed, so the set of simulations it asks for
// is fixed by the seed and the run length. setup builds a fresh stack,
// run drives the first p.n items of the list through it, and points
// names the distinct simulated points of those items for the traced
// replay.
type workload interface {
	items() int
	setup(tr *tracer) (stack, error)
	run(st stack, p *pass, tr *tracer)
	points(n int) []replayPoint
}

// stack is the system under test as one setup built it.
type stack interface {
	close()
	counters() map[string]float64 // serve and fleet layer counters
}

// replayPoint is one simulated point and the work item that first asked
// for it.
type replayPoint struct {
	pt  exper.Point
	req int
}

// config is what a workload is generated from.
type config struct {
	seed   uint64
	items  int           // work items in the list
	limit  time.Duration // a pass stops handing out items after this long
	golden string        // figures_small's expected output
}

// def describes one workload. rate sizes its work: a run of --seconds s
// does round(rate*s) items, which takes about s on the reference host at
// the host speeds common there (see refspeed.go), longer when it is slower.
type def struct {
	name, why string
	unit      string // what throughput_per_s counts
	latency   string // what one latency sample times
	rate      float64
	make      func(config) workload
}

var defs = []def{
	{
		name: "figures_small", unit: "regenerations", latency: "regeneration", rate: 1.0 / 4,
		why:  "the paper's artifact path at the golden scale; simulator-bound (MCS handshakes, real apps), serve and fleet idle",
		make: func(c config) workload { return &figuresWL{c} },
	},
	{
		name: "sweep_contended", unit: "points", latency: "plan", rate: 20,
		why:  "fresh 64-proc high-contention points via /v1/sweep; protocol- and mesh-bound, serve miss path only",
		make: func(c config) workload { return newSweep(c) },
	},
	{
		name: "serve_dup90", unit: "requests", latency: "request", rate: 100000,
		why:  "90% hits on a warm 16-spec set, 10% tiny fresh sims; serve cache and per-run machine setup, little simulation",
		make: func(c config) workload { return newServe(c) },
	},
	{
		name: "fleet_zipf", unit: "requests", latency: "request", rate: 24000,
		why:  "Zipf traffic through the fleet router over a working set larger than the caches; eviction, peer fill, replication",
		make: func(c config) workload { return newFleet(c) },
	},
}

// pass asks for the first n items of a work list to be driven through a
// stack as equal slices ("windows") timed one after the other, and holds
// the outcome.
type pass struct {
	n       int
	windows int    // at least 1; no more than n
	between func() // if set, runs untimed before every window
	perItem int    // throughput units per item; 0 means 1

	elapsed time.Duration   // the windows' time together
	win     []window        // the windows driven, in order
	lat     []time.Duration // per completed item, in item order
	units   int             // throughput units completed
	failed  atomic.Int64    // items answered with an error status

	mu      sync.Mutex
	bad     *mismatch // wrong output at the lowest item index seen
	samples []sample  // served results to recompute untimed
}

// window is one timed slice of a pass: items [lo, hi).
type window struct {
	lo, hi  int
	elapsed time.Duration
}

// mismatch names the first work item whose output was wrong.
type mismatch struct {
	item int
	what string
}

// sample is a served result to check against a fresh computation.
type sample struct {
	item int
	spec serve.Spec
	body []byte
}

func (p *pass) fail(item int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bad == nil || item < p.bad.item {
		p.bad = &mismatch{item, fmt.Sprintf(format, args...)}
	}
}

func (p *pass) sample(item int, spec serve.Spec, body []byte) {
	p.mu.Lock()
	p.samples = append(p.samples, sample{item, spec, bytes.Clone(body)})
	p.mu.Unlock()
}

// verify recomputes every sample through serve.Run and requires the
// served bytes identical (cached = computed).
func (p *pass) verify() {
	for _, s := range p.samples {
		want, err := serve.Run(s.spec).Encode()
		if err != nil || !bytes.Equal(s.body, want) {
			p.fail(s.item, "served bytes differ from a fresh serve.Run of the same spec")
		}
	}
}

// drive runs do(c, l, i) for items [0, p.n) on nc closed-loop clients: a
// client takes the next index only after its previous item finished.
// Each window's clients start together and the window ends when the last
// of them finishes. Each item is one "request" span on its client's lane.
// Once the windows have taken limit no new items start, so the completed
// items are always a prefix.
func drive(p *pass, nc int, limit time.Duration, tr *tracer, do func(c int, l *lane, i int)) {
	lat := make([]time.Duration, p.n)
	done := 0
	for k := range p.windows {
		lo, hi := k*p.n/p.windows, (k+1)*p.n/p.windows
		if p.between != nil {
			p.between()
		}
		next := atomic.Int64{}
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for c := range nc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l := tr.lane(fmt.Sprintf("client %d", c))
				for p.elapsed+time.Since(start) < limit {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					t0 := time.Now()
					s := l.request(i)
					do(c, l, i)
					l.end(s)
					lat[i] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		el := time.Since(start)
		p.elapsed += el
		done = min(int(next.Load()), hi)
		p.win = append(p.win, window{lo, done, el})
		if done < hi {
			break
		}
	}
	p.lat = lat[:done]
	p.units = done * max(p.perItem, 1)
	if done < p.n {
		fmt.Fprintf(os.Stderr, "bench: pass cut at %d of %d items after %v\n", done, p.n, limit)
	}
}

// ---------------------------------------------------------- figures_small --

// goldenOpts is the scale internal/figures/testdata/golden_small.txt is
// recorded at, with the benchmark's plan width.
var goldenOpts = exper.RunOpts{Procs: 16, Rounds: 6, TCSize: 12, Par: clients}

// tcBar is the bar cmd/figures measures TC efficiency under: UNC
// fetch_and_add, the paper's recommendation for counters.
var tcBar = exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}

// figuresWL regenerates the cmd/figures -all text in process and
// compares it byte for byte with the golden output. Every item is the
// same regeneration, so the work list does not depend on the seed.
type figuresWL struct{ config }

type figuresStack struct{ want []byte }

func (*figuresStack) close()                       {}
func (*figuresStack) counters() map[string]float64 { return nil }

func (w *figuresWL) items() int { return w.config.items }

// setup loads the golden output. It holds Table 1 with its measured
// column, so the byte comparison also pins Table 1's exact counts.
func (w *figuresWL) setup(*tracer) (stack, error) {
	want, err := os.ReadFile(w.golden)
	if err != nil {
		return nil, fmt.Errorf("golden output: %w", err)
	}
	return &figuresStack{want}, nil
}

func (w *figuresWL) run(st stack, p *pass, tr *tracer) {
	want := st.(*figuresStack).want
	drive(p, 1, w.limit, tr, func(_ int, l *lane, i int) {
		var got bytes.Buffer
		regenerate(&got, goldenOpts, l)
		if at := firstDiff(got.Bytes(), want); at >= 0 {
			p.fail(i, "regenerated figures differ from the golden output at byte %d", at)
		}
	})
}

// regenerate writes what cmd/figures -all prints at scale o: the TC
// efficiency line, Table 1, then Figures 2-6, each followed by a blank
// line. Each section is one span.
func regenerate(w io.Writer, o exper.RunOpts, l *lane) {
	section := func(name string, render func()) {
		s := l.begin(name)
		render()
		l.end(s)
		fmt.Fprintln(w)
	}
	section("figures.tceff", func() {
		fmt.Fprintf(w, "Transitive Closure parallel efficiency at p=%d, n=%d: %.1f%%\n",
			o.Procs, o.TCSize, 100*exper.TCEfficiency(o, tcBar))
	})
	section("figures.table1", func() { figures.WriteTable1Par(w, o.Par) })
	section("figures.fig2", func() { figures.Fig2(w, o) })
	section("figures.fig3", func() { figures.Fig3(w, o) })
	section("figures.fig4", func() { figures.Fig4(w, o) })
	section("figures.fig5", func() { figures.Fig5(w, o) })
	section("figures.fig6", func() { figures.Fig6(w, o) })
}

// points lists the points one regeneration simulates, in the order the
// sections run them: the two TC efficiency runs, the figure 2 grid (real
// apps x INV/UNC/UPD under FAP), the figure 3-5 synthetic plans, and the
// figure 6 grid (every bar x real app). Table 1 builds its coherence
// situations by hand and is not a list of points.
func (w *figuresWL) points(int) []replayPoint {
	o := goldenOpts
	single := o
	single.Procs = 1
	pts := []exper.Point{
		{App: exper.AppTClosure, Bar: tcBar, Scale: single},
		{App: exper.AppTClosure, Bar: tcBar, Scale: o},
	}
	for _, app := range exper.RealApps() {
		for _, pol := range []core.Policy{core.PolicyINV, core.PolicyUNC, core.PolicyUPD} {
			pts = append(pts, exper.Point{App: app, Bar: exper.Bar{Policy: pol, Prim: locks.PrimFAP}, Scale: o})
		}
	}
	for _, app := range []exper.App{exper.AppCounter, exper.AppTTS, exper.AppMCS} {
		pts = append(pts, exper.SyntheticPlan(app, o).Points...)
	}
	for _, bar := range exper.SyntheticBars() {
		for _, app := range exper.RealApps() {
			pts = append(pts, exper.Point{App: app, Bar: bar, Scale: o})
		}
	}
	out := make([]replayPoint, len(pts))
	for i, pt := range pts {
		out[i] = replayPoint{pt, 0}
	}
	return out
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// -------------------------------------------------------- sweep_contended --

// sweepPlanPoints is the size of every sweep plan.
const sweepPlanPoints = 8

// sweepPlan is a /v1/sweep request body.
type sweepPlan struct {
	Points []serve.Spec `json:"points"`
}

// sweepWL POSTs 8-point plans to /v1/sweep. Every point is new to the
// server: the paper's high-contention corner at machine size, {counter,
// msqueue, stack} x {INV, UPD, UNC} x {CAS, LLSC} at 64 processors with
// contention 16 or 64, each point with its own seed.
type sweepWL struct {
	config
	bodies [][]byte
	specs  [][]serve.Spec // normalized, per plan
	keys   [][]string
}

func newSweep(c config) *sweepWL {
	rng := rand.New(rand.NewPCG(c.seed, 0x5eee9))
	w := &sweepWL{config: c}
	// 36 combinations, each equally often over the run, so the total
	// simulation work hardly depends on the seed.
	combos := balanced(rng, c.items*sweepPlanPoints, 36)
	for i := range c.items {
		var plan sweepPlan
		var keys []string
		for j := range sweepPlanPoints {
			k := i*sweepPlanPoints + j
			x := combos[k]
			sp := mustNormalize(serve.Spec{
				App:        []string{"counter", "msqueue", "stack"}[x%3],
				Policy:     []string{"INV", "UPD", "UNC"}[x/3%3],
				Prim:       []string{"CAS", "LLSC"}[x/9%2],
				Procs:      64,
				Contention: []int{16, 64}[x/18],
				Rounds:     2,
				Seed:       freshSeed(c.seed, k),
			})
			plan.Points = append(plan.Points, sp)
			keys = append(keys, sp.Key())
		}
		w.bodies = append(w.bodies, mustJSON(plan))
		w.specs = append(w.specs, plan.Points)
		w.keys = append(w.keys, keys)
	}
	return w
}

func (w *sweepWL) items() int { return len(w.bodies) }

// setup starts a server and runs one warm-up plan, one point per worker,
// so both workers hold a built 64-processor machine before timing starts.
// The warm-up seeds lie past the work list's.
func (w *sweepWL) setup(*tracer) (stack, error) {
	st := &serveStack{srv: serve.New(serve.Config{Workers: clients})}
	var plan sweepPlan
	for k := range clients {
		plan.Points = append(plan.Points, serve.Spec{App: "counter", Procs: 64, Contention: 64,
			Rounds: 1, Seed: freshSeed(w.seed, w.config.items*sweepPlanPoints+k)})
	}
	if code, _ := newCaller(st.srv.Handler(), "/v1/sweep").post(mustJSON(plan)); code != http.StatusOK {
		st.close()
		return nil, fmt.Errorf("warm-up plan answered %d", code)
	}
	return st, nil
}

func (w *sweepWL) run(st stack, p *pass, tr *tracer) {
	callers := newCallers(st.(*serveStack).srv.Handler(), "/v1/sweep")
	p.perItem = sweepPlanPoints
	drive(p, clients, w.limit, tr, func(c int, l *lane, i int) {
		s := l.begin("serve")
		code, body := callers[c].post(w.bodies[i])
		l.end(s)
		if code != http.StatusOK {
			p.failed.Add(1)
			return
		}
		// One NDJSON line per point, in plan order.
		for j, key := range w.keys[i] {
			k := bytes.IndexByte(body, '\n')
			if k < 0 {
				p.fail(i, "plan answered %d lines, want %d", j, sweepPlanPoints)
				return
			}
			line := body[:k+1]
			body = body[k+1:]
			if got := outcomeKey(line); got != key {
				p.fail(i, "line %d is not point %d's outcome (key %q)", j, j, got)
				return
			}
			if pt := i*sweepPlanPoints + j; pt%sampleEvery == 0 {
				p.sample(i, w.specs[i][j], line)
			}
		}
		if len(body) != 0 {
			p.fail(i, "plan answered more than %d lines", sweepPlanPoints)
		}
	})
}

func (w *sweepWL) points(n int) []replayPoint {
	var out []replayPoint
	for i, plan := range w.specs[:n] {
		for _, sp := range plan {
			out = append(out, replayPoint{sp.Point(), i})
		}
	}
	return out
}

// outcomeKey returns the content address an outcome line carries ("" for
// an error line).
func outcomeKey(line []byte) string {
	const field = `"key":"`
	if !bytes.HasPrefix(line, []byte(`{"spec":`)) {
		return ""
	}
	i := bytes.Index(line, []byte(field))
	if i < 0 || len(line) < i+len(field)+64 {
		return ""
	}
	return string(line[i+len(field) : i+len(field)+64])
}

// ------------------------------------------------------------ serve_dup90 --

// workingSetSize and dupShare are the dsmload profile of record: 90% of
// requests draw from a warmed 16-spec working set, 10% are never seen.
const (
	workingSetSize = 16
	dupShare       = 0.9
)

// sampleEvery is the stride at which served results are recomputed.
const sampleEvery = 64

// serveWL POSTs single specs to /v1/sim. Entry e of the spec table is a
// working-set spec for e < workingSetSize and a fresh "counter procs=8
// c=8 rounds=3" spec otherwise; the request list indexes the table. The
// request bodies sit back to back in one buffer, and fresh specs are
// derived again from their index when needed, so the work list adds
// almost nothing for the server's collector to scan.
type serveWL struct {
	config
	ws   []serve.Spec // the working set
	buf  []byte       // entry e's body is buf[off[e]:off[e+1]]
	off  []int32
	list []int32
}

func newServe(c config) *serveWL {
	rng := rand.New(rand.NewPCG(c.seed, 0xd0b90))
	w := &serveWL{config: c, list: make([]int32, c.items), off: []int32{0}}
	policies := []string{"INV", "UPD", "UNC"}
	prims := []string{"FAP", "CAS", "LLSC"}
	conts := []int{1, 2, 4, 8}
	for i := range workingSetSize { // cmd/dsmload's working set
		w.ws = append(w.ws, mustNormalize(serve.Spec{App: "counter", Policy: policies[i%3], Prim: prims[(i/3)%3],
			Procs: 8, Contention: conts[(i/9)%4], Rounds: 3}))
		w.add(w.ws[i])
	}
	for i := range w.list {
		if rng.Float64() < dupShare {
			w.list[i] = int32(rng.IntN(workingSetSize))
			continue
		}
		e := int32(len(w.off) - 1)
		w.list[i] = e
		w.add(w.spec(e))
	}
	return w
}

func (w *serveWL) add(sp serve.Spec) {
	w.buf = append(w.buf, mustJSON(sp)...)
	w.off = append(w.off, int32(len(w.buf)))
}

// spec returns table entry e.
func (w *serveWL) spec(e int32) serve.Spec {
	if e < workingSetSize {
		return w.ws[e]
	}
	return mustNormalize(serve.Spec{App: "counter", Procs: 8, Contention: 8, Rounds: 3,
		Seed: freshSeed(w.seed, int(e))})
}

func (w *serveWL) body(e int32) []byte { return w.buf[w.off[e]:w.off[e+1]] }

func (w *serveWL) items() int { return len(w.list) }

// serveStack is one serve.Server, with the first response of every
// warmed spec.
type serveStack struct {
	srv   *serve.Server
	first [][]byte
}

func (s *serveStack) close() { s.srv.Close() }

func (s *serveStack) counters() map[string]float64 { return serveCounters(s.srv.Metrics()) }

func (w *serveWL) setup(*tracer) (stack, error) {
	st := &serveStack{srv: serve.New(serve.Config{Workers: clients})}
	c := newCaller(st.srv.Handler(), "/v1/sim")
	for e := range workingSetSize {
		code, body := c.post(w.body(int32(e)))
		if code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("warming spec %d answered %d", e, code)
		}
		st.first = append(st.first, bytes.Clone(body))
	}
	return st, nil
}

func (w *serveWL) run(st stack, p *pass, tr *tracer) {
	ss := st.(*serveStack)
	callers := newCallers(ss.srv.Handler(), "/v1/sim")
	drive(p, clients, w.limit, tr, func(c int, l *lane, i int) {
		e := w.list[i]
		s := l.begin("serve")
		code, body := callers[c].post(w.body(e))
		if l != nil {
			l.rename(s, "serve."+callers[c].cache())
		}
		l.end(s)
		switch {
		case code != http.StatusOK:
			p.failed.Add(1)
		case e < workingSetSize:
			if !bytes.Equal(body, ss.first[e]) {
				p.fail(i, "hit on working-set spec %d differs from its first response", e)
			}
		case (int(e)-workingSetSize)%sampleEvery == 0:
			p.sample(i, w.spec(e), body)
		}
	})
	for e, body := range ss.first {
		p.sample(-1, w.ws[e], body)
	}
}

// points lists the working set and every fresh spec of the first n items.
func (w *serveWL) points(n int) []replayPoint {
	var out []replayPoint
	for _, sp := range w.ws {
		out = append(out, replayPoint{sp.Point(), -1})
	}
	for i, e := range w.list[:n] {
		if e >= workingSetSize {
			out = append(out, replayPoint{w.spec(e).Point(), i})
		}
	}
	return out
}

// ------------------------------------------------------------- fleet_zipf --

// fleetSetSize is the fleet working set: four times one backend's default
// 1024-entry cache, twice the two backends' caches together.
const (
	fleetSetSize  = 4096
	fleetBackends = 2
	fleetZipfS    = 1.1
)

// fleetWL POSTs Zipf-skewed draws from a seeded spec set to /v1/sim on a
// fleet.Router in front of two single-worker backends.
type fleetWL struct {
	config
	specs  []serve.Spec
	bodies [][]byte
	list   []int32
}

func newFleet(c config) *fleetWL {
	rng := rand.New(rand.NewPCG(c.seed, 0xf1ee7))
	w := &fleetWL{config: c, list: make([]int32, c.items)}
	// 144 combinations spread evenly over the set.
	for k, x := range balanced(rng, fleetSetSize, 144) {
		sp := mustNormalize(serve.Spec{
			App:        []string{"counter", "tts", "msqueue", "stack"}[x%4],
			Policy:     []string{"INV", "UPD", "UNC"}[x/4%3],
			Prim:       []string{"FAP", "CAS", "LLSC"}[x/12%3],
			Procs:      8,
			Contention: []int{1, 2, 4, 8}[x/36],
			Rounds:     3,
			Seed:       freshSeed(c.seed, k),
		})
		w.specs = append(w.specs, sp)
		w.bodies = append(w.bodies, mustJSON(sp))
	}
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetSetSize-1)
	for i := range w.list {
		w.list[i] = int32(zipf.Uint64())
	}
	return w
}

func (w *fleetWL) items() int { return len(w.list) }

// fleetStack is a router, its backends, and the first response the
// clients saw for each spec.
type fleetStack struct {
	rt       *fleet.Router
	backends []*serve.Server
	first    []atomic.Pointer[firstResponse]
}

type firstResponse struct {
	item int
	body []byte
}

func (s *fleetStack) close() {
	s.rt.Close()
	for _, b := range s.backends {
		b.Close()
	}
}

func (s *fleetStack) counters() map[string]float64 {
	var sum serve.Snapshot
	for _, b := range s.backends {
		m := b.Metrics()
		sum.CacheHits += m.CacheHits
		sum.ProbeHits += m.ProbeHits
		sum.CacheMisses += m.CacheMisses
		sum.FlightMerges += m.FlightMerges
		sum.Runs += m.Runs
		sum.Rejected += m.Rejected
		sum.CacheEvictions += m.CacheEvictions
	}
	out := serveCounters(sum)
	m := s.rt.Metrics()
	var calls uint64
	for _, n := range m.BackendRequests {
		calls += n
	}
	out["fleet.hits"] = float64(m.Hits)
	out["fleet.misses"] = float64(m.Misses)
	out["fleet.peer_fills"] = float64(m.PeerFills)
	out["fleet.replications"] = float64(m.Replications)
	out["fleet.coalesced"] = float64(m.Coalesced)
	out["fleet.hit_ratio"] = ratio(float64(m.Hits), float64(m.Hits+m.Misses))
	out["fleet.backend_calls_per_req"] = ratio(float64(calls), float64(m.Requests))
	return out
}

func (w *fleetWL) setup(tr *tracer) (stack, error) {
	t := &transport{backends: make(map[string]http.Handler), tr: tr}
	st := &fleetStack{first: make([]atomic.Pointer[firstResponse], fleetSetSize)}
	var urls []string
	for b := range fleetBackends {
		srv := serve.New(serve.Config{Workers: 1})
		host := fmt.Sprintf("b%d.fleet", b)
		t.backends[host] = srv.Handler()
		st.backends = append(st.backends, srv)
		urls = append(urls, "http://"+host)
	}
	rt, err := fleet.New(fleet.Config{Backends: urls, Transport: t})
	if err != nil {
		st.close()
		return nil, err
	}
	st.rt = rt
	return st, nil
}

func (w *fleetWL) run(st stack, p *pass, tr *tracer) {
	fs := st.(*fleetStack)
	callers := newCallers(fs.rt.Handler(), "/v1/sim")
	drive(p, clients, w.limit, tr, func(c int, l *lane, i int) {
		k := w.list[i]
		s := l.begin("route")
		code, body := callers[c].post(w.bodies[k])
		l.end(s)
		if code != http.StatusOK {
			p.failed.Add(1)
			return
		}
		first := fs.first[k].Load()
		if first == nil {
			mine := &firstResponse{i, bytes.Clone(body)}
			if fs.first[k].CompareAndSwap(nil, mine) {
				return
			}
			first = fs.first[k].Load()
		}
		if !bytes.Equal(body, first.body) {
			p.fail(i, "routed body for spec %d differs from its first response (request %d)", k, first.item)
		}
	})
	for k := 0; k < fleetSetSize; k += sampleEvery {
		if first := fs.first[k].Load(); first != nil {
			p.sample(first.item, w.specs[k], first.body)
		}
	}
}

// points lists each spec of the first n items once, in order of first
// request.
func (w *fleetWL) points(n int) []replayPoint {
	seen := make([]bool, fleetSetSize)
	var out []replayPoint
	for i, k := range w.list[:n] {
		if !seen[k] {
			seen[k] = true
			out = append(out, replayPoint{w.specs[k].Point(), i})
		}
	}
	return out
}

// ---------------------------------------------------------------- helpers --

// serveCounters maps a serve metrics snapshot to the serve layer metrics.
func serveCounters(m serve.Snapshot) map[string]float64 {
	hits := m.CacheHits + m.SweepHits + m.ProbeHits
	misses := m.CacheMisses + m.SweepMisses
	return map[string]float64{
		"serve.hits":      float64(hits),
		"serve.misses":    float64(misses),
		"serve.coalesced": float64(m.FlightMerges),
		"serve.runs":      float64(m.Runs),
		"serve.rejected":  float64(m.Rejected),
		"serve.evictions": float64(m.CacheEvictions),
		"serve.hit_ratio": ratio(float64(hits), float64(hits+misses)),
	}
}

// freshSeed is the simulation seed of the k-th generated spec: distinct
// for every (seed, k), never 0 (0 selects an app's default seed).
func freshSeed(seed uint64, k int) uint64 { return seed<<32 | uint64(k+1) }

// balanced returns n draws from [0, k) in seeded random order, every
// value equally often up to the last partial block of k.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

func mustNormalize(sp serve.Spec) serve.Spec {
	n, err := sp.Normalize()
	if err != nil {
		panic(err) // the generators only build valid specs
	}
	return n
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
