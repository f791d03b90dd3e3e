package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsm/internal/exper"
)

// quickSpec is small enough that a simulation completes in well under a
// millisecond, keeping the handler tests fast.
const quickSpec = `{"app":"counter","procs":4,"rounds":2}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func doJSON(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func doGet(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// ----------------------------------------------------------------- spec --

func TestNormalizeDefaults(t *testing.T) {
	sp, err := Spec{}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	want := Spec{App: "counter", Policy: "INV", Prim: "FAP", Variant: "INV",
		Procs: 16, Contention: 1, WriteRun: 1, Rounds: 6}
	if sp != want {
		t.Fatalf("Normalize = %+v, want %+v", sp, want)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{App: "nope"},
		{Policy: "inv"},
		{Prim: "XADD"},
		{Variant: "INVx"},
		{Procs: 65},
		{Procs: -1},
		{Contention: 20, Procs: 16},
		{WriteRun: 0.5},
		{WriteRun: math.NaN()},
		{Rounds: 1000},
		{App: "tclosure", Size: 1},
	}
	for _, sp := range bad {
		if _, err := sp.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", sp)
		}
	}
}

func TestNormalizeCanonicalizesIrrelevantFields(t *testing.T) {
	// Real apps ignore the synthetic pattern; contended synthetics ignore
	// the write-run length. Both must collapse onto one cache key.
	a, err := Spec{App: "cholesky", Contention: 8, WriteRun: 3, Rounds: 9, Size: 20}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{App: "cholesky"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("cholesky keys differ: %+v vs %+v", a, b)
	}
	c, _ := Spec{Contention: 4, WriteRun: 2}.Normalize()
	d, _ := Spec{Contention: 4, WriteRun: 7}.Normalize()
	if c.Key() != d.Key() {
		t.Fatal("write-run leaked into contended synthetic key")
	}
	e, _ := Spec{WriteRun: 2}.Normalize()
	f, _ := Spec{WriteRun: 3}.Normalize()
	if e.Key() == f.Key() {
		t.Fatal("distinct write-runs share a key under c=1")
	}
}

// TestNormalizeWriteRunOnlyWhereRead checks the write run splits cache
// keys only for the apps that read it: rcu and the barrier apps ignore it,
// so their a=1 and a=3 specs request one result and share one key, while
// the counter's and the queue's do not.
func TestNormalizeWriteRunOnlyWhereRead(t *testing.T) {
	key := func(app string, a float64) string {
		sp, err := Spec{App: app, Procs: 8, Rounds: 3, WriteRun: a}.Normalize()
		if err != nil {
			t.Fatalf("%s a=%g: %v", app, a, err)
		}
		return sp.Key()
	}
	for _, app := range []string{"rcu", "tournament", "dissemination"} {
		if key(app, 1) != key(app, 3) {
			t.Errorf("%s: a=1 and a=3 have different keys", app)
		}
	}
	for _, app := range []string{"counter", "msqueue"} {
		if key(app, 1) == key(app, 3) {
			t.Errorf("%s: a=1 and a=3 share a key", app)
		}
	}
}

// TestNormalizeWorkloadApps checks the lock-free workload structures are
// pattern-driven specs: the sharing-pattern fields survive normalization
// (and default like the synthetics), while tclosure's size is zeroed and
// the write run is kept only by the apps that read it.
func TestNormalizeWorkloadApps(t *testing.T) {
	for _, app := range []string{"msqueue", "stack", "rcu", "tournament", "dissemination"} {
		sp, err := Spec{App: app, Size: 20}.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		wantA := 1.0
		if app == "rcu" || app == "tournament" || app == "dissemination" {
			wantA = 0
		}
		if sp.Contention != 1 || sp.WriteRun != wantA || sp.Rounds != 6 || sp.Size != 0 {
			t.Fatalf("%s normalized to %+v", app, sp)
		}
		a, _ := Spec{App: app, Contention: 4}.Normalize()
		b, _ := Spec{App: app, Contention: 8}.Normalize()
		if a.Key() == b.Key() {
			t.Fatalf("%s: distinct contention levels share a key", app)
		}
	}
}

// -------------------------------------------------------------- handler --

func TestSimMissThenHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	first := doJSON(s, quickSpec)
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q", got)
	}
	second := doJSON(s, quickSpec)
	if second.Code != http.StatusOK {
		t.Fatalf("second = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("hit differs from miss:\n%s\nvs\n%s", first.Body, second.Body)
	}

	// The program decodes no report, so the report stays raw JSON here.
	var out struct {
		Outcome
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &out); err != nil {
		t.Fatalf("body not an Outcome: %v", err)
	}
	if out.Spec.App != "counter" || out.Spec.Procs != 4 {
		t.Fatalf("echoed spec = %+v", out.Spec)
	}
	if out.Elapsed == 0 || out.Ops == 0 || len(out.Report) == 0 || string(out.Report) == "null" {
		t.Fatalf("outcome incomplete: %+v", out)
	}
	if out.Key != first.Header().Get("X-Spec-Key") {
		t.Fatal("body key != header key")
	}
	m := s.Metrics()
	if m.Requests != 2 || m.CacheHits != 1 || m.CacheMisses != 1 || m.Runs != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestGetQuerySpecMatchesPostSpec(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	viaGet := doGet(s, "/v1/sim?app=counter&procs=4&rounds=2")
	if viaGet.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", viaGet.Code, viaGet.Body)
	}
	viaPost := doJSON(s, quickSpec)
	if !bytes.Equal(viaGet.Body.Bytes(), viaPost.Body.Bytes()) {
		t.Fatal("GET and POST encodings of the same spec differ")
	}
	if viaPost.Header().Get("X-Cache") != "hit" {
		t.Fatal("POST after identical GET was not a cache hit")
	}
}

// TestCanonicalBodyHitMatchesParsedHit checks that the three forms of one
// spec share one cache entry: its canonical JSON (probed as raw bytes), the
// same body with its fields reordered and trailing whitespace (parsed,
// normalized, then probed), and the GET query. Whichever form simulates
// first, all three then get byte-identical hit bodies and headers, and
// the server ran one simulation.
func TestCanonicalBodyHitMatchesParsedHit(t *testing.T) {
	const (
		canonical = `{"app":"counter","policy":"INV","prim":"FAP","cas":"INV","procs":4,"c":1,"a":1,"rounds":2}`
		reordered = `{"rounds":2,"a":1,"c":1,"procs":4,"cas":"INV","prim":"FAP","policy":"INV","app":"counter"} ` + "\n"
		query     = "/v1/sim?app=counter&procs=4&rounds=2"
	)
	sp, err := Spec{App: "counter", Procs: 4, Rounds: 2}.Normalize()
	if err != nil || string(sp.AppendJSON(nil)) != canonical {
		t.Fatalf("canonical JSON = %s, %v; want %s", sp.AppendJSON(nil), err, canonical)
	}
	forms := []func(*Server) *httptest.ResponseRecorder{
		func(s *Server) *httptest.ResponseRecorder { return doJSON(s, canonical) },
		func(s *Server) *httptest.ResponseRecorder { return doJSON(s, reordered) },
		func(s *Server) *httptest.ResponseRecorder { return doGet(s, query) },
	}
	for first := range forms {
		s := newTestServer(t, Config{Workers: 1})
		miss := forms[first](s)
		if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
			t.Fatalf("form %d first: %d X-Cache=%q", first, miss.Code, miss.Header().Get("X-Cache"))
		}
		var hits []*httptest.ResponseRecorder
		for _, form := range forms {
			hits = append(hits, form(s))
		}
		for i, w := range hits {
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
				t.Fatalf("form %d after form %d: %d X-Cache=%q", i, first, w.Code, w.Header().Get("X-Cache"))
			}
			if !bytes.Equal(w.Body.Bytes(), miss.Body.Bytes()) {
				t.Fatalf("form %d after form %d: body differs from the simulated one", i, first)
			}
			if fmt.Sprint(w.Header()) != fmt.Sprint(hits[0].Header()) {
				t.Fatalf("form %d after form %d: headers %v, form 0 got %v", i, first, w.Header(), hits[0].Header())
			}
		}
		if m := s.Metrics(); m.Runs != 1 || m.CacheHits != 3 {
			t.Fatalf("after form %d first: runs %d, hits %d; want 1 and 3", first, m.Runs, m.CacheHits)
		}
	}
}

func TestIdenticalSpecSeedAcrossServersByteIdentical(t *testing.T) {
	// Same spec + seed on two independent servers (disjoint caches and
	// machine-pool histories) must produce byte-identical JSON: the
	// determinism guarantee behind content-addressed caching.
	spec := `{"app":"tts","policy":"UPD","prim":"CAS","procs":8,"c":4,"rounds":3,"seed":99}`
	s1 := newTestServer(t, Config{Workers: 2})
	s2 := newTestServer(t, Config{Workers: 2})
	r1 := doJSON(s1, spec)
	r2 := doJSON(s2, spec)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", r1.Code, r2.Code)
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatalf("independent servers disagree:\n%s\nvs\n%s", r1.Body, r2.Body)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{Workers: 1, Queue: 4})
	// Park the only worker so the leader's simulation cannot start; every
	// concurrent identical request must then join the same flight call.
	gate := make(chan struct{})
	if !s.pool.submit(func(*exper.MachineSlot) { <-gate }) {
		t.Fatal("could not park worker")
	}
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(s, quickSpec)
			codes[i], bodies[i] = w.Code, w.Body.Bytes()
		}(i)
	}
	// Wait until all n have registered (1 leader miss + n-1 coalesced).
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if m.CacheMisses == 1 && m.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests did not coalesce: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	m := s.Metrics()
	if m.Runs != 1 {
		t.Fatalf("Runs = %d, want exactly 1 underlying simulation", m.Runs)
	}
	if m.CacheMisses != 1 || m.Coalesced != n-1 || m.Requests != n {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestQueueFullAnswers429WithRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 1})
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	if !s.pool.submit(func(*exper.MachineSlot) { close(started); <-gate }) { // park the worker
		t.Fatal("could not park worker")
	}
	<-started                                        // the parked job is running, not queued
	if !s.pool.submit(func(*exper.MachineSlot) {}) { // fill the queue
		t.Fatal("could not fill queue")
	}
	w := doJSON(s, quickSpec)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("Rejected = %d", m.Rejected)
	}
}

func TestDeadlineAnswers504(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 4, Timeout: 5 * time.Millisecond})
	gate := make(chan struct{})
	defer close(gate)
	if !s.pool.submit(func(*exper.MachineSlot) { <-gate }) {
		t.Fatal("could not park worker")
	}
	w := doJSON(s, quickSpec)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d: %s", w.Code, w.Body)
	}
	if m := s.Metrics(); m.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", m.Timeouts)
	}
}

func TestLRUEvictionBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheEntries: 2})
	specFor := func(rounds int) string {
		return fmt.Sprintf(`{"app":"counter","procs":4,"rounds":%d}`, rounds)
	}
	for _, r := range []int{1, 2, 3} {
		if w := doJSON(s, specFor(r)); w.Code != http.StatusOK {
			t.Fatalf("rounds=%d: %d", r, w.Code)
		}
	}
	m := s.Metrics()
	if m.CacheEntries != 2 || m.CacheEvictions != 1 {
		t.Fatalf("cache stats = %+v", m)
	}
	// The evicted (oldest) entry must rerun — and byte-identically so.
	w1 := doJSON(s, specFor(1))
	if w1.Header().Get("X-Cache") != "miss" {
		t.Fatalf("evicted entry served as %q", w1.Header().Get("X-Cache"))
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"unknown app", func() *httptest.ResponseRecorder { return doJSON(s, `{"app":"quicksort"}`) }, 400},
		{"unknown policy", func() *httptest.ResponseRecorder { return doJSON(s, `{"policy":"MESI"}`) }, 400},
		{"unknown field", func() *httptest.ResponseRecorder { return doJSON(s, `{"nodes":4}`) }, 400},
		{"bad JSON", func() *httptest.ResponseRecorder { return doJSON(s, `{`) }, 400},
		{"procs range", func() *httptest.ResponseRecorder { return doJSON(s, `{"procs":128}`) }, 400},
		{"bad query int", func() *httptest.ResponseRecorder { return doGet(s, "/v1/sim?procs=many") }, 400},
		{"bad query seed", func() *httptest.ResponseRecorder { return doGet(s, "/v1/sim?seed=-1") }, 400},
		{"method", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodDelete, "/v1/sim", nil)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			return w
		}, 405},
	}
	for _, tc := range cases {
		w := tc.do()
		if w.Code != tc.want {
			t.Errorf("%s: code = %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
		var e map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body = %s", tc.name, w.Body)
		}
	}
	if m := s.Metrics(); m.BadRequests == 0 {
		t.Fatal("bad requests not counted")
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := New(Config{Workers: 1})
	if w := doGet(s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %s", w.Code, w.Body)
	}
	doJSON(s, quickSpec)
	w := doGet(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics body: %v (%s)", err, w.Body)
	}
	if snap.Requests != 1 || snap.Runs != 1 || snap.Workers != 1 || snap.LatencyCount != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	s.Close()
	if w := doGet(s, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d", w.Code)
	}
	if w := doJSON(s, quickSpec); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sim after Close = %d", w.Code)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 4})
	gate := make(chan struct{})
	if !s.pool.submit(func(*exper.MachineSlot) { <-gate }) {
		t.Fatal("could not park worker")
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doJSON(s, quickSpec) }()
	// Wait for the request to be queued behind the parked worker.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().CacheMisses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	s.Close() // must wait for the queued simulation to complete
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("drained request = %d: %s", w.Code, w.Body)
	}
	if m := s.Metrics(); m.Runs != 1 {
		t.Fatalf("Runs = %d", m.Runs)
	}
}
