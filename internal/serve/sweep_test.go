package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsm/internal/exper"
)

func doSweep(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// sweepPlan is four quick points across the design space, including
// distinct policies so every line is a distinct simulation.
const sweepPlan = `{"points":[
	{"app":"counter","procs":4,"rounds":2},
	{"app":"counter","policy":"UNC","procs":4,"rounds":2},
	{"app":"counter","policy":"UPD","procs":4,"rounds":2},
	{"app":"counter","prim":"CAS","procs":4,"rounds":2}
]}`

// TestSweepLinesByteIdenticalToSingleSim is the batch endpoint's core
// contract: each NDJSON line must be byte-for-byte the /v1/sim response
// body for the same spec.
func TestSweepLinesByteIdenticalToSingleSim(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := doSweep(s, sweepPlan)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 4:\n%s", len(lines), w.Body.String())
	}
	singles := []string{
		`{"app":"counter","procs":4,"rounds":2}`,
		`{"app":"counter","policy":"UNC","procs":4,"rounds":2}`,
		`{"app":"counter","policy":"UPD","procs":4,"rounds":2}`,
		`{"app":"counter","prim":"CAS","procs":4,"rounds":2}`,
	}
	for i, spec := range singles {
		sw := doJSON(s, spec)
		if sw.Code != http.StatusOK {
			t.Fatalf("single sim %d status = %d", i, sw.Code)
		}
		single := bytes.TrimSuffix(sw.Body.Bytes(), []byte("\n"))
		if !bytes.Equal(lines[i], single) {
			t.Fatalf("sweep line %d differs from single /v1/sim body:\n%s\n--- vs ---\n%s",
				i, lines[i], single)
		}
	}
}

// TestSweepRePostAllHits checks a repeated plan is served entirely from
// the result cache, with the dispatch profile in the response headers.
func TestSweepRePostAllHits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	first := doSweep(s, sweepPlan)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep status = %d", first.Code)
	}
	if h := first.Header().Get("X-Sweep-Points"); h != "4" {
		t.Fatalf("X-Sweep-Points = %q, want 4", h)
	}
	second := doSweep(s, sweepPlan)
	if second.Code != http.StatusOK {
		t.Fatalf("second sweep status = %d", second.Code)
	}
	if h := second.Header().Get("X-Sweep-Hits"); h != "4" {
		t.Fatalf("re-POST X-Sweep-Hits = %q, want 4", h)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("re-POSTed sweep body differs from the first")
	}
	snap := s.Metrics()
	if snap.Sweeps != 2 || snap.SweepPoints != 8 || snap.SweepHits != 4 {
		t.Fatalf("metrics = %+v", snap)
	}
}

// TestSweepDuplicatePointsCoalesce checks duplicates within one cold plan
// merge on the plan's own single-flight leader: 1 miss, N-1 coalesced.
func TestSweepDuplicatePointsCoalesce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Park the only worker until the whole plan has dispatched, so the
	// leader's simulation cannot finish (and turn its duplicates into
	// cache hits) before they join its flight.
	gate := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.submit(func(*exper.MachineSlot) { close(started); <-gate }) {
		t.Fatal("could not park worker")
	}
	<-started
	res := make(chan *httptest.ResponseRecorder)
	go func() { res <- doSweep(s, `{"points":[`+quickSpec+`,`+quickSpec+`,`+quickSpec+`]}`) }()
	deadline := time.Now().Add(5 * time.Second)
	for m := s.Metrics(); m.SweepHits+m.SweepMisses+m.SweepCoalesced < 3; m = s.Metrics() {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("plan did not dispatch: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	w := <-res
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if h := w.Header().Get("X-Sweep-Coalesced"); h != "2" {
		t.Fatalf("X-Sweep-Coalesced = %q, want 2", h)
	}
	lines := bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !bytes.Equal(lines[0], lines[1]) || !bytes.Equal(lines[1], lines[2]) {
		t.Fatal("duplicate points produced different lines")
	}
	if snap := s.Metrics(); snap.SweepCoalesced != 2 || snap.FlightMerges != 2 {
		t.Fatalf("metrics = %+v", snap)
	}
}

// TestSweepLargerThanQueueDrains checks a plan larger than the worker
// queue completes instead of bouncing: dispatch waits for queue space.
func TestSweepLargerThanQueueDrains(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Queue: 2})
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		// Distinct seeds force 12 real simulations through a queue of 2.
		fmt.Fprintf(&b, `{"app":"counter","procs":4,"rounds":2,"seed":%d}`, i+1)
	}
	b.WriteString(`]}`)
	w := doSweep(s, b.String())
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	lines := bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 12 {
		t.Fatalf("got %d lines, want 12", len(lines))
	}
	for i, ln := range lines {
		if bytes.Contains(ln, []byte(`"error"`)) {
			t.Fatalf("line %d is an error: %s", i, ln)
		}
	}
}

func TestSweepRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		body string
		want int
	}{
		{`{"points":[]}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"points":[{"app":"nope"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := doSweep(s, tc.body); w.Code != tc.want {
			t.Errorf("sweep(%q) status = %d, want %d", tc.body, w.Code, tc.want)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep status = %d", w.Code)
	}
}

// workloadPlan sweeps one lock-free workload structure per line — the new
// exper.App values riding through the serve layer with no serve-side
// dispatch changes.
const workloadPlan = `{"points":[
	{"app":"msqueue","prim":"CAS","procs":4,"c":2,"rounds":2},
	{"app":"stack","prim":"LLSC","procs":4,"c":2,"rounds":2},
	{"app":"rcu","policy":"UPD","prim":"CAS","procs":4,"rounds":2},
	{"app":"tournament","prim":"FAP","procs":4,"c":2,"rounds":2},
	{"app":"dissemination","prim":"LLSC","procs":4,"c":2,"rounds":2}
]}`

// TestSweepWorkloadAppsMissThenHit drives the workload library through
// /v1/sweep: a cold plan simulates every point, a re-POST is served
// entirely from cache, and the bodies are byte-identical — the same
// contract the synthetic apps are held to.
func TestSweepWorkloadAppsMissThenHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	first := doSweep(s, workloadPlan)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep status = %d: %s", first.Code, first.Body.String())
	}
	if h := first.Header().Get("X-Sweep-Hits"); h != "0" {
		t.Fatalf("cold sweep X-Sweep-Hits = %q, want 0", h)
	}
	lines := bytes.Split(bytes.TrimSuffix(first.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("got %d NDJSON lines, want 5:\n%s", len(lines), first.Body.String())
	}
	// Each line is byte-identical to the single-sim response for its spec.
	singles := []string{
		`{"app":"msqueue","prim":"CAS","procs":4,"c":2,"rounds":2}`,
		`{"app":"stack","prim":"LLSC","procs":4,"c":2,"rounds":2}`,
		`{"app":"rcu","policy":"UPD","prim":"CAS","procs":4,"rounds":2}`,
		`{"app":"tournament","prim":"FAP","procs":4,"c":2,"rounds":2}`,
		`{"app":"dissemination","prim":"LLSC","procs":4,"c":2,"rounds":2}`,
	}
	for i, spec := range singles {
		sw := doJSON(s, spec)
		if sw.Code != http.StatusOK {
			t.Fatalf("single sim %d status = %d: %s", i, sw.Code, sw.Body.String())
		}
		if !bytes.Equal(lines[i], bytes.TrimSuffix(sw.Body.Bytes(), []byte("\n"))) {
			t.Fatalf("sweep line %d differs from single /v1/sim body:\n%s\n--- vs ---\n%s",
				i, lines[i], sw.Body.Bytes())
		}
	}
	second := doSweep(s, workloadPlan)
	if second.Code != http.StatusOK {
		t.Fatalf("second sweep status = %d", second.Code)
	}
	if h := second.Header().Get("X-Sweep-Hits"); h != "5" {
		t.Fatalf("re-POST X-Sweep-Hits = %q, want 5", h)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("re-POSTed workload sweep body differs from the first")
	}
}
