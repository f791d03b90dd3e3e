package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsm/internal/serve"
)

// quickSpec finishes in well under a millisecond, keeping handler tests
// fast (same reduced scale the serve tests use).
const quickSpec = `{"app":"counter","procs":4,"rounds":2}`

// testFleet is N real serve backends on loopback listeners behind one
// Router driven in-process.
type testFleet struct {
	backends []*serve.Server
	servers  []*httptest.Server
	urls     []string
	rt       *Router
}

// newTestFleet boots n backends, optionally wrapping each handler (wrap
// may be nil), and fronts them with a router built from cfg (Backends is
// filled in here).
func newTestFleet(t *testing.T, n int, cfg Config, wrap func(http.Handler) http.Handler) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		b := serve.New(serve.Config{Workers: 2})
		h := http.Handler(b.Handler())
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		f.backends = append(f.backends, b)
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, srv.URL)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.servers[i].Close()
			f.backends[i].Close()
		}
	})
	cfg.Backends = append([]string(nil), f.urls...)
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	f.rt = rt
	return f
}

func (f *testFleet) do(method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	f.rt.Handler().ServeHTTP(w, req)
	return w
}

// backendFor returns the test-fleet index of a backend URL.
func (f *testFleet) backendFor(url string) int {
	for i, u := range f.urls {
		if u == url {
			return i
		}
	}
	return -1
}

func (f *testFleet) totalRuns() uint64 {
	var runs uint64
	for _, b := range f.backends {
		runs += b.Metrics().Runs
	}
	return runs
}

func specKey(t *testing.T, spec string) string {
	t.Helper()
	var sp serve.Spec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return sp.Key()
}

func TestRouterMissThenHitByteIdenticalToBackend(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)

	first := f.do(http.MethodPost, "/v1/sim", quickSpec)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first = %d X-Cache=%q: %s", first.Code, first.Header().Get("X-Cache"), first.Body)
	}
	second := f.do(http.MethodPost, "/v1/sim", quickSpec)
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second = %d X-Cache=%q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("router hit differs from router miss")
	}

	// The routed response must be byte-identical to what the owning
	// backend answers directly.
	owner := f.rt.Owner(specKey(t, quickSpec))
	resp, err := http.Post(owner+"/v1/sim", "application/json", strings.NewReader(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var direct bytes.Buffer
	direct.ReadFrom(resp.Body)
	if !bytes.Equal(direct.Bytes(), first.Body.Bytes()) {
		t.Fatalf("router body differs from direct backend body:\n%s\nvs\n%s", first.Body, &direct)
	}
	if first.Header().Get("X-Fleet-Backend") != owner {
		t.Fatalf("served by %q, ring owner is %q", first.Header().Get("X-Fleet-Backend"), owner)
	}
	if runs := f.totalRuns(); runs != 1 {
		t.Fatalf("fleet ran %d simulations, want 1", runs)
	}
	m := f.rt.Metrics()
	if m.Requests != 2 || m.Misses != 1 || m.Hits != 1 {
		t.Fatalf("router metrics = %+v", m)
	}
}

func TestRouterGetAndHeadProbe(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	if w := f.do(http.MethodHead, "/v1/sim?app=counter&procs=4&rounds=2", ""); w.Code != http.StatusNotFound {
		t.Fatalf("cold fleet HEAD = %d", w.Code)
	}
	if w := f.do(http.MethodGet, "/v1/sim?app=counter&procs=4&rounds=2", ""); w.Code != http.StatusOK {
		t.Fatalf("GET via router = %d: %s", w.Code, w.Body)
	}
	w := f.do(http.MethodHead, "/v1/sim?app=counter&procs=4&rounds=2", "")
	if w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("warm fleet HEAD = %d body=%q", w.Code, w.Body)
	}
	if runs := f.totalRuns(); runs != 1 {
		t.Fatalf("probes cost %d extra simulations", runs-1)
	}
}

func TestFleetWideSingleFlight(t *testing.T) {
	// Park every backend's /v1/sim path so concurrent identical router
	// requests must pile onto one flight call: exactly one upstream
	// request fleet-wide.
	gate := make(chan struct{})
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sim" {
				<-gate
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 2, Config{}, wrap)

	const n = 8
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = f.do(http.MethodPost, "/v1/sim", quickSpec)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.rt.Metrics().Coalesced != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("requests did not coalesce: %+v", f.rt.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	caches := map[string]int{}
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d body differs", i)
		}
		caches[w.Header().Get("X-Cache")]++
	}
	if caches["miss"] != 1 || caches["coalesced"] != n-1 {
		t.Fatalf("X-Cache spread = %v", caches)
	}
	if runs := f.totalRuns(); runs != 1 {
		t.Fatalf("fleet ran %d simulations for one key, want 1", runs)
	}
	// The backends saw exactly one /v1/sim request: followers never went
	// upstream.
	var upstreamSims uint64
	for _, b := range f.backends {
		upstreamSims += b.Metrics().Requests
	}
	if upstreamSims != 1 {
		t.Fatalf("backends saw %d simulate requests, want 1", upstreamSims)
	}
}

func TestRouter429PropagatesUnchanged(t *testing.T) {
	// A backend at capacity answers 429 + Retry-After; the router must
	// relay both untouched so client backoff (dsmload's capped
	// exponential) engages end-to-end.
	body := `{"error":"simulation queue full (1 queued); retry shortly"}` + "\n"
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(body))
	}))
	defer busy.Close()
	rt, err := New(Config{Backends: []string{busy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader(quickSpec))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's 7", got)
	}
	if w.Body.String() != body {
		t.Fatalf("429 body rewritten: %q", w.Body)
	}
	if m := rt.Metrics(); m.Rejected != 1 {
		t.Fatalf("Rejected = %d", m.Rejected)
	}
}

func TestRouterBadRequestsAndDrain(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	if w := f.do(http.MethodPost, "/v1/sim", `{"app":"quicksort"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad app = %d", w.Code)
	}
	if w := f.do(http.MethodDelete, "/v1/sim", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("method = %d", w.Code)
	}
	if w := f.do(http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	var snap Snapshot
	if w := f.do(http.MethodGet, "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil || snap.Backends != 2 {
		t.Fatalf("metrics body: %v (%s)", err, w.Body)
	}
	f.rt.Close()
	if w := f.do(http.MethodGet, "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d", w.Code)
	}
	if w := f.do(http.MethodPost, "/v1/sim", quickSpec); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sim after Close = %d", w.Code)
	}
	if w := f.do(http.MethodPost, "/v1/sweep", `{"points":[{}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sweep after Close = %d", w.Code)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"not a url"}}); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}

func TestNewLeavesCallerBackendsUnchanged(t *testing.T) {
	backends := []string{"http://a/"}
	rt, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	if backends[0] != "http://a/" {
		t.Fatalf("New rewrote the caller's slice to %q", backends[0])
	}
	if got := rt.Owner("k"); got != "http://a" {
		t.Fatalf("Owner = %q, want the trimmed URL", got)
	}
}

// TestRouterOneUpstreamCallPerRequest pins the route: a miss, an identity
// hit and a gzip hit each cost exactly one upstream call, to the key's
// owner, and the router counts each by the owner's X-Cache answer.
func TestRouterOneUpstreamCallPerRequest(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	owner := f.backendFor(f.rt.Owner(specKey(t, quickSpec)))
	steps := []struct {
		name, cache string
		do          func() *httptest.ResponseRecorder
		hits, miss  uint64
	}{
		{"miss", "miss", func() *httptest.ResponseRecorder { return f.do(http.MethodPost, "/v1/sim", quickSpec) }, 0, 1},
		{"identity hit", "hit", func() *httptest.ResponseRecorder { return f.do(http.MethodPost, "/v1/sim", quickSpec) }, 1, 1},
		{"gzip hit", "hit", func() *httptest.ResponseRecorder { return f.doGzip(http.MethodPost, "/v1/sim", quickSpec) }, 2, 1},
	}
	for i, st := range steps {
		w := st.do()
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != st.cache {
			t.Fatalf("%s = %d X-Cache=%q", st.name, w.Code, w.Header().Get("X-Cache"))
		}
		m := f.rt.Metrics()
		var calls uint64
		for _, n := range m.BackendRequests {
			calls += n
		}
		if calls != uint64(i+1) || m.BackendRequests[owner] != uint64(i+1) {
			t.Fatalf("after %s: backend requests %v, want %d in total, all to backend %d",
				st.name, m.BackendRequests, i+1, owner)
		}
		if m.Hits != st.hits || m.Misses != st.miss {
			t.Fatalf("after %s: hits %d misses %d, want %d and %d", st.name, m.Hits, m.Misses, st.hits, st.miss)
		}
	}
}

// TestRouterAndBackendRejectBadPlansIdentically checks that a bad sweep
// plan gets the same 400 from the router as from a backend, byte for
// byte: both decode through serve.ParsePlan.
func TestRouterAndBackendRejectBadPlansIdentically(t *testing.T) {
	f := newTestFleet(t, 1, Config{}, nil)
	tooMany := `{"points":[` + strings.TrimSuffix(strings.Repeat(`{},`, serve.MaxSweepPoints+1), ",") + `]}`
	for _, tc := range []struct{ name, body string }{
		{"not JSON", `not json`},
		{"unknown field", `{"points":[{}],"extra":1}`},
		{"unknown point field", `{"points":[{"bogus":1}]}`},
		{"empty", `{"points":[]}`},
		{"no points", `{}`},
		{"too many", tooMany},
		{"bad app", `{"points":[{},{"app":"quicksort"}]}`},
		{"bad procs", `{"points":[{"procs":65}]}`},
		{"too large", `{"points":[` + strings.Repeat(" ", serve.MaxPlanBytes) + `]}`},
	} {
		routed := f.do(http.MethodPost, "/v1/sweep", tc.body)
		direct := httptest.NewRecorder()
		f.backends[0].Handler().ServeHTTP(direct,
			httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(tc.body)))
		if routed.Code != http.StatusBadRequest || direct.Code != http.StatusBadRequest {
			t.Fatalf("%s: router %d, backend %d, want 400 from both", tc.name, routed.Code, direct.Code)
		}
		if !bytes.Equal(routed.Body.Bytes(), direct.Body.Bytes()) ||
			routed.Header().Get("Content-Type") != direct.Header().Get("Content-Type") {
			t.Fatalf("%s: router answered %q (%s), backend %q (%s)", tc.name,
				routed.Body, routed.Header().Get("Content-Type"), direct.Body, direct.Header().Get("Content-Type"))
		}
	}
	if m := f.rt.Metrics(); m.BadRequests != 9 || m.BackendRequests[0] != 0 {
		t.Fatalf("router metrics = %+v", m)
	}
}

func fleetPlan(n int) string {
	points := make([]string, n)
	for i := range points {
		points[i] = fmt.Sprintf(`{"app":"counter","procs":4,"rounds":2,"seed":%d}`, i+1)
	}
	return `{"points":[` + strings.Join(points, ",") + `]}`
}

func TestRouterSweepByteIdenticalToSingleBackend(t *testing.T) {
	plan := fleetPlan(8)

	// Reference: one standalone backend, no router anywhere.
	solo := serve.New(serve.Config{Workers: 2})
	defer solo.Close()
	ref := httptest.NewRecorder()
	solo.Handler().ServeHTTP(ref, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(plan)))
	if ref.Code != http.StatusOK {
		t.Fatalf("solo sweep = %d: %s", ref.Code, ref.Body)
	}

	// Routed: the same plan split across two backends and re-interleaved.
	f := newTestFleet(t, 2, Config{}, nil)
	w := f.do(http.MethodPost, "/v1/sweep", plan)
	if w.Code != http.StatusOK {
		t.Fatalf("routed sweep = %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("routed sweep differs from single-backend sweep:\n%s\nvs\n%s", w.Body, ref.Body)
	}
	if got, want := w.Header().Get("X-Sweep-Points"), ref.Header().Get("X-Sweep-Points"); got != want {
		t.Fatalf("X-Sweep-Points = %s, want %s", got, want)
	}
	// Both backends actually participated: the plan really was split.
	m := f.rt.Metrics()
	if m.BackendRequests[0] == 0 || m.BackendRequests[1] == 0 {
		t.Fatalf("plan not split across backends: %v", m.BackendRequests)
	}

	// A re-POST is all hits and still byte-identical.
	again := f.do(http.MethodPost, "/v1/sweep", plan)
	if again.Header().Get("X-Sweep-Hits") != "8" {
		t.Fatalf("warm sweep hits = %s", again.Header().Get("X-Sweep-Hits"))
	}
	if !bytes.Equal(again.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatal("warm routed sweep drifted")
	}
}

func TestRouterSweepSurvivesBackendFailure(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)

	// The ring hashes the backends' random test ports, so which backend
	// owns a point varies per run: pick points until each backend is the
	// primary owner of four, then kill one backend.
	var points []string
	var owned [2]int
	for seed := 1; len(points) < 8; seed++ {
		pt := fmt.Sprintf(`{"app":"counter","procs":4,"rounds":2,"seed":%d}`, seed)
		b := f.backendFor(f.rt.Owner(specKey(t, pt)))
		if owned[b] < 4 {
			owned[b]++
			points = append(points, pt)
		}
	}
	plan := `{"points":[` + strings.Join(points, ",") + `]}`
	f.servers[1].Close()

	w := f.do(http.MethodPost, "/v1/sweep", plan)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep with dead backend = %d", w.Code)
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want one per point", len(lines))
	}
	okLines, errLines := 0, 0
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line not JSON: %q", ln)
		}
		if _, isErr := obj["error"]; isErr {
			errLines++
			if obj["key"] == "" {
				t.Fatalf("error line without key: %q", ln)
			}
		} else {
			okLines++
		}
	}
	if okLines == 0 || errLines == 0 {
		t.Fatalf("expected a mix of served and failed points, got %d ok / %d err", okLines, errLines)
	}
}
