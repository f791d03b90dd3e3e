// Command dsmload is a closed-loop load generator for dsmserve: N client
// goroutines issue simulation requests back to back, drawing each request
// from a fixed working set with probability -dup (these become cache hits
// once warm) and from never-seen specs otherwise (these cost a real
// simulation). It prints achieved throughput, latency percentiles, and the
// client-observed cache-hit ratio, and with -o writes the run as JSON.
// It drives a real server over real sockets; the in-process benchmark of
// record is bench/ (bash bench/run.sh), whose serve_dup90 workload uses
// dsmload's default profile.
//
//	dsmserve &
//	dsmload -addr http://localhost:8080 -c 32 -d 10s -dup 0.9 -o run.json
//	dsmload -sweep -batch 8 -c 32 -d 10s -dup 0.9 -o sweep.json
//
// A 429 rejection is retried up to 5 times, honoring the server's
// Retry-After with capped exponential backoff; retries are recorded in the
// JSON run record as retries_429. With -sweep each request is a -batch
// point plan POSTed to /v1/sweep, and the per-point cache profile comes
// from the X-Sweep-* response headers.
//
// Working-set draws are uniform by default; -zipf s (s > 1) skews them
// Zipf-fashion so a few specs dominate, as bench/'s fleet_zipf workload
// does through dsmrouter. All randomness derives from -seed, so a
// recorded run names the exact request sequence that produced it. -targets
// takes a comma-separated URL list and round-robins requests across it
// (client-side spreading without a router in the path); the distribution,
// seed, and target list land in the -o JSON provenance. -procs pins the
// client's GOMAXPROCS; the run record carries both the effective client
// gomaxprocs and the server's worker count (from /metrics), so a recorded
// run states the core budget on both sides of the connection.
//
// A flag no run can use (-c or -specs below 1, -batch outside
// 1..serve.MaxSweepPoints with -sweep, -dup outside [0,1], a -d that is not
// positive, a -zipf that is neither 0 nor above 1) is rejected with a
// usage message and exit status 2.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsm/internal/serve"
)

// Connection accounting: every request carries an httptrace that counts
// whether its connection came fresh off a dial or out of the idle pool.
// The split lands in the run record (conns_new / conns_reused), so a
// throughput regression is attributable — connection churn on the client
// vs time spent on the server.
var connsNew, connsReused atomic.Uint64

var traceCtx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
	GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			connsReused.Add(1)
		} else {
			connsNew.Add(1)
		}
	},
})

// workingSet builds the duplicate pool: n specs spread across the paper's
// design space (policy x primitive x contention), all at a reduced scale
// (8 processors, 3 rounds). Every dsmload invocation generates the same
// set, so back-to-back runs against a warm server hit immediately.
func workingSet(n int) []string {
	policies := []string{"INV", "UPD", "UNC"}
	prims := []string{"FAP", "CAS", "LLSC"}
	conts := []int{1, 2, 4, 8}
	specs := make([]string, 0, n)
	for i := 0; len(specs) < n; i++ {
		specs = append(specs, fmt.Sprintf(
			`{"app":"counter","policy":%q,"prim":%q,"procs":8,"c":%d,"rounds":3}`,
			policies[i%len(policies)], prims[(i/3)%len(prims)], conts[(i/9)%len(conts)]))
	}
	return specs
}

// picker draws one client's request stream: a working-set spec with
// probability dup (uniform, or Zipf-skewed when zipfS > 1 — rank 0
// hottest), a never-seen spec otherwise. Each (seed, worker) pair names a
// deterministic sequence, so a run is reproducible from its JSON record.
type picker struct {
	rng    *rand.Rand
	specs  []string
	dup    float64
	zipf   *rand.Zipf
	unique uint64
}

func newPicker(seed int64, worker int, specs []string, dup, zipfS float64) *picker {
	rng := rand.New(rand.NewSource(seed<<20 + int64(worker)))
	p := &picker{
		rng:    rng,
		specs:  specs,
		dup:    dup,
		unique: uint64(worker) << 32, // per-client unique-seed space
	}
	if zipfS > 1 {
		p.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(specs)-1))
	}
	return p
}

func (p *picker) draw() string {
	if p.rng.Float64() < p.dup {
		if p.zipf != nil {
			return p.specs[p.zipf.Uint64()]
		}
		return p.specs[p.rng.Intn(len(p.specs))]
	}
	p.unique++
	return fmt.Sprintf(`{"app":"counter","procs":8,"c":8,"rounds":3,"seed":%d}`, p.unique)
}

// result is one request's outcome as the client saw it.
type result struct {
	latency    time.Duration
	status     int
	cache      string // X-Cache header: hit, miss, coalesced ("" on error)
	retryAfter string // Retry-After header of a 429 response
	retries    int    // 429 responses retried before this outcome

	// Sweep mode: per-point accounting decoded from the X-Sweep-* headers
	// of one batch response (points > 0 marks a batch result).
	points, hits, coalesced int
	lines                   int // NDJSON lines actually received
}

type loadStats struct {
	Addr        string  `json:"addr"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	DupRate     float64 `json:"dup_rate"`
	SpecSet     int     `json:"spec_set"`

	// Provenance: the seed all client randomness derives from, the Zipf
	// exponent when working-set draws were skewed (0: uniform), and the
	// full target list when requests were spread client-side.
	Seed    int64    `json:"seed"`
	ZipfS   float64  `json:"zipf_s,omitempty"`
	Targets []string `json:"targets,omitempty"`

	SweepBatch int `json:"sweep_batch,omitempty"` // points per /v1/sweep plan (0: /v1/sim mode)

	Requests   uint64 `json:"requests"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`    // 429s that exhausted their retries (also counted in Failed)
	Retries429 uint64 `json:"retries_429"` // 429 responses retried after honoring Retry-After
	Hits       uint64 `json:"hits"`
	Coalesced  uint64 `json:"coalesced"`
	Misses     uint64 `json:"misses"`

	ReqPerSec float64 `json:"req_per_sec"`
	HitRatio  float64 `json:"hit_ratio"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`

	// Client-side cost of the run: connections dialed vs reused (httptrace
	// on every request; a healthy closed loop dials ~concurrency conns and
	// reuses the rest) and the client process's own allocation rate across
	// the measured window (runtime.MemStats delta / HTTP requests issued).
	ConnsNew           uint64  `json:"conns_new"`
	ConnsReused        uint64  `json:"conns_reused"`
	ClientAllocsPerReq float64 `json:"client_allocs_per_req"`
	ClientBytesPerReq  float64 `json:"client_bytes_per_req"`
}

type output struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the client's effective setting (after -procs, when
	// given); ServerWorkers is the serving side's worker count as reported
	// by /metrics (0 when the metrics fetch failed).
	GOMAXPROCS    int             `json:"gomaxprocs"`
	ServerWorkers int             `json:"server_workers"`
	Load          loadStats       `json:"load"`
	ServerMetrics *serve.Snapshot `json:"server_metrics,omitempty"`
}

func main() {
	var (
		addr  = flag.String("addr", "http://localhost:8080", "dsmserve base URL")
		conc  = flag.Int("c", 32, "concurrent closed-loop clients")
		dur   = flag.Duration("d", 10*time.Second, "load duration")
		dup   = flag.Float64("dup", 0.9, "probability a request repeats the working set")
		nset  = flag.Int("specs", 16, "working-set size (distinct duplicate specs)")
		out   = flag.String("o", "", "write the run as JSON to this file (- for stdout)")
		sweep = flag.Bool("sweep", false, "issue batch plans to /v1/sweep instead of single sims")
		batch = flag.Int("batch", 8, "points per sweep plan (with -sweep)")
		procs = flag.Int("procs", 0, "pin client GOMAXPROCS for scaling runs (0: runtime default)")
		seed  = flag.Int64("seed", 1, "seed for all client randomness (reproducible request streams)")
		zipfS = flag.Float64("zipf", 0, "Zipf exponent s > 1 for working-set draws (0: uniform)")
		multi = flag.String("targets", "", "comma-separated base URLs to round-robin across (overrides -addr)")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dsmload: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *conc < 1:
		fail("-c %d below 1", *conc)
	case *nset < 1:
		fail("-specs %d below 1", *nset)
	case *sweep && (*batch < 1 || *batch > serve.MaxSweepPoints):
		fail("-batch %d out of range 1-%d", *batch, serve.MaxSweepPoints)
	case !(*dup >= 0 && *dup <= 1):
		fail("-dup %v out of range 0-1", *dup)
	case *dur <= 0:
		fail("-d %v not positive", *dur)
	case !(*zipfS == 0 || *zipfS > 1):
		fail("-zipf %v needs s > 1 (the Zipf exponent)", *zipfS)
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	targets := []string{strings.TrimSuffix(*addr, "/")}
	if *multi != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*multi, ",") {
			if t = strings.TrimSuffix(strings.TrimSpace(t), "/"); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "dsmload: -targets has no URLs")
			os.Exit(1)
		}
	}

	specs := workingSet(*nset)
	// One idle slot per client per target: DefaultTransport keeps only two
	// idle conns per host, so at -c 32 thirty clients would redial every
	// request — the conns_new/conns_reused split in the run record is how
	// that misconfiguration shows up.
	transport := &http.Transport{
		MaxIdleConns:        2 * *conc * len(targets),
		MaxIdleConnsPerHost: *conc,
	}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	path := "/v1/sim"
	if *sweep {
		path = "/v1/sweep"
	}

	// Warm-up probe: fail fast when any target is not listening.
	for _, t := range targets {
		if _, err := issue(client, t+"/v1/sim", specs[0]); err != nil {
			fmt.Fprintf(os.Stderr, "dsmload: cannot reach %s: %v\n", t, err)
			os.Exit(1)
		}
	}

	// The warm-up probes above are not part of the measured window: reset
	// the connection counters, then bracket the loop with MemStats so the
	// run record carries the client's own allocation rate.
	connsNew.Store(0)
	connsReused.Store(0)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	results := make([][]result, *conc)
	deadline := time.Now().Add(*dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := newPicker(*seed, w, specs, *dup, *zipfS)
			rr := w // round-robin cursor, offset per worker so targets warm evenly
			for time.Now().Before(deadline) {
				url := targets[rr%len(targets)] + path
				rr++
				var r result
				var err error
				t0 := time.Now()
				if *sweep {
					points := make([]string, *batch)
					for i := range points {
						points[i] = p.draw()
					}
					plan := `{"points":[` + strings.Join(points, ",") + `]}`
					r, err = issueSweep(client, url, plan)
				} else {
					r, err = issueRetry(client, url, p.draw(), deadline)
				}
				r.latency = time.Since(t0)
				if err != nil {
					r.status = 0
				}
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	stats := reduce(results, elapsed)
	stats.ConnsNew = connsNew.Load()
	stats.ConnsReused = connsReused.Load()
	// Per-HTTP-round-trip client cost: GotConn fires once per round trip,
	// so the counter sum is the denominator (sweep plans are one round trip
	// for -batch points; retried 429s each count).
	if trips := stats.ConnsNew + stats.ConnsReused; trips > 0 {
		stats.ClientAllocsPerReq = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(trips)
		stats.ClientBytesPerReq = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(trips)
	}
	stats.Addr = targets[0]
	stats.Concurrency = *conc
	stats.DupRate = *dup
	stats.SpecSet = len(specs)
	stats.Seed = *seed
	stats.ZipfS = *zipfS
	if len(targets) > 1 {
		stats.Targets = targets
	}
	if *sweep {
		stats.SweepBatch = *batch
	}

	fmt.Printf("dsmload: %d requests in %.2fs = %.0f req/s (%d clients, dup %.2f)\n",
		stats.Requests, elapsed.Seconds(), stats.ReqPerSec, *conc, *dup)
	fmt.Printf("  latency: p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		stats.P50Ms, stats.P90Ms, stats.P99Ms, stats.MaxMs)
	fmt.Printf("  cache:   %.1f%% hits, %d coalesced, %d misses\n",
		100*stats.HitRatio, stats.Coalesced, stats.Misses)
	fmt.Printf("  errors:  %d failed (%d rejected with 429, %d retried)\n",
		stats.Failed, stats.Rejected, stats.Retries429)
	fmt.Printf("  client:  %d conns dialed, %d reused; %.0f allocs (%.0f B) per round trip\n",
		stats.ConnsNew, stats.ConnsReused, stats.ClientAllocsPerReq, stats.ClientBytesPerReq)

	rep := output{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Load:       stats,
	}
	if snap, err := fetchMetrics(client, targets[0]+"/metrics"); err == nil {
		rep.ServerMetrics = snap
		rep.ServerWorkers = snap.Workers
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmload:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dsmload:", err)
			os.Exit(1)
		}
	}
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

// post issues one traced POST: the shared httptrace counts the connection
// as dialed or reused before the request body goes out.
func post(client *http.Client, url, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(traceCtx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

// issue posts one spec and drains the response body (keep-alive requires
// reading to EOF before reuse).
func issue(client *http.Client, url, spec string) (result, error) {
	resp, err := post(client, url, spec)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return result{
		status:     resp.StatusCode,
		cache:      resp.Header.Get("X-Cache"),
		retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// Backoff bounds for retried 429s: the server's Retry-After is honored as
// a floor, doubled per consecutive rejection, and capped.
const (
	retryBase = 50 * time.Millisecond
	retryCap  = 2 * time.Second
	retryMax  = 5 // rejections tolerated per request before giving up
)

// issueRetry posts one spec, honoring 429 + Retry-After with capped
// exponential backoff: a rejected request sleeps max(Retry-After, the
// current backoff step) and reissues, up to retryMax rejections or the
// run deadline. The final result carries how many 429s were absorbed, so
// the run record separates retried rejections from failed ones.
func issueRetry(client *http.Client, url, spec string, deadline time.Time) (result, error) {
	backoff := retryBase
	retries := 0
	for {
		r, err := issue(client, url, spec)
		r.retries = retries
		if err != nil || r.status != http.StatusTooManyRequests {
			return r, err
		}
		if retries >= retryMax {
			return r, nil // give up; reduce counts it as rejected
		}
		wait := backoff
		if ra, err := strconv.Atoi(r.retryAfter); err == nil && ra > 0 {
			if server := time.Duration(ra) * time.Second; server > wait {
				wait = server
			}
		}
		if wait > retryCap {
			wait = retryCap
		}
		if time.Now().Add(wait).After(deadline) {
			return r, nil // no budget left to retry into
		}
		time.Sleep(wait)
		retries++
		backoff *= 2
	}
}

// issueSweep posts one plan to /v1/sweep and reduces the NDJSON stream to
// its per-point accounting: the X-Sweep-* headers carry the cache profile
// computed at dispatch, and the line count checks the one-line-per-point
// framing.
func issueSweep(client *http.Client, url, plan string) (result, error) {
	resp, err := post(client, url, plan)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		lines++
	}
	r := result{status: resp.StatusCode, lines: lines}
	atoi := func(name string) int {
		v, _ := strconv.Atoi(resp.Header.Get(name))
		return v
	}
	r.points = atoi("X-Sweep-Points")
	r.hits = atoi("X-Sweep-Hits")
	r.coalesced = atoi("X-Sweep-Coalesced")
	return r, sc.Err()
}

func fetchMetrics(client *http.Client, url string) (*serve.Snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// reduce aggregates per-client results into the run's statistics.
func reduce(results [][]result, elapsed time.Duration) loadStats {
	var s loadStats
	s.DurationSec = elapsed.Seconds()
	var lats []time.Duration
	for _, rs := range results {
		for _, r := range rs {
			lats = append(lats, r.latency)
			s.Retries429 += uint64(r.retries)
			if r.points > 0 {
				// One sweep batch: every point is a request; the dispatch
				// headers carry the per-point cache profile. A line count
				// short of the point count marks lost responses.
				s.Requests += uint64(r.points)
				if r.status == http.StatusOK && r.lines == r.points {
					s.Hits += uint64(r.hits)
					s.Coalesced += uint64(r.coalesced)
					s.Misses += uint64(r.points - r.hits - r.coalesced)
				} else {
					s.Failed += uint64(r.points)
				}
				continue
			}
			s.Requests++
			switch {
			case r.status == http.StatusOK:
				switch r.cache {
				case "hit":
					s.Hits++
				case "coalesced":
					s.Coalesced++
				default:
					s.Misses++
				}
			case r.status == http.StatusTooManyRequests:
				s.Rejected++
				s.Failed++
			default:
				s.Failed++
			}
		}
	}
	if s.Requests > 0 {
		s.ReqPerSec = float64(s.Requests) / elapsed.Seconds()
		s.HitRatio = float64(s.Hits) / float64(s.Requests)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	if n := len(lats); n > 0 {
		s.P50Ms = ms(lats[n*50/100])
		s.P90Ms = ms(lats[min(n*90/100, n-1)])
		s.P99Ms = ms(lats[min(n*99/100, n-1)])
		s.MaxMs = ms(lats[n-1])
	}
	return s
}
