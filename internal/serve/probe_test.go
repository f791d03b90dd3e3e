package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doProbe(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestProbeNeverSimulates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// Cold probe: 404 + X-Cache miss, and crucially no simulation ran.
	miss := doProbe(s, http.MethodPost, "/v1/sim?probe=1", quickSpec)
	if miss.Code != http.StatusNotFound || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold probe = %d X-Cache=%q", miss.Code, miss.Header().Get("X-Cache"))
	}
	headMiss := doProbe(s, http.MethodHead, "/v1/sim?app=counter&procs=4&rounds=2", "")
	if headMiss.Code != http.StatusNotFound || headMiss.Body.Len() != 0 {
		t.Fatalf("cold HEAD = %d body=%q", headMiss.Code, headMiss.Body)
	}
	if m := s.Metrics(); m.Runs != 0 || m.Probes != 2 || m.ProbeHits != 0 || m.Requests != 0 {
		t.Fatalf("metrics after cold probes = %+v", m)
	}

	// Simulate for real, then probe again: 200 with the exact cached bytes.
	real := doJSON(s, quickSpec)
	if real.Code != http.StatusOK {
		t.Fatalf("sim = %d: %s", real.Code, real.Body)
	}
	hit := doProbe(s, http.MethodPost, "/v1/sim?probe=1", quickSpec)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("warm probe = %d X-Cache=%q", hit.Code, hit.Header().Get("X-Cache"))
	}
	if !bytes.Equal(hit.Body.Bytes(), real.Body.Bytes()) {
		t.Fatal("probe body differs from the simulated response")
	}
	headHit := doProbe(s, http.MethodHead, "/v1/sim?app=counter&procs=4&rounds=2", "")
	if headHit.Code != http.StatusOK || headHit.Body.Len() != 0 {
		t.Fatalf("warm HEAD = %d body=%q", headHit.Code, headHit.Body)
	}
	if m := s.Metrics(); m.Runs != 1 || m.Probes != 4 || m.ProbeHits != 2 {
		t.Fatalf("metrics after warm probes = %+v", m)
	}

	// A canonical body answers a probe from its raw bytes; a canonical
	// body for an uncached spec is still a miss naming its content address.
	sp, _ := Spec{App: "counter", Procs: 4, Rounds: 2}.Normalize()
	rawHit := doProbe(s, http.MethodPost, "/v1/sim?probe=1", string(sp.AppendJSON(nil)))
	if rawHit.Code != http.StatusOK || !bytes.Equal(rawHit.Body.Bytes(), real.Body.Bytes()) {
		t.Fatalf("canonical probe = %d, body equal %v", rawHit.Code, bytes.Equal(rawHit.Body.Bytes(), real.Body.Bytes()))
	}
	sp.Seed = 9
	rawMiss := doProbe(s, http.MethodPost, "/v1/sim?probe=1", string(sp.AppendJSON(nil)))
	if rawMiss.Code != http.StatusNotFound || rawMiss.Header().Get("X-Spec-Key") != sp.Key() {
		t.Fatalf("cold canonical probe = %d X-Spec-Key=%q, want 404 %q",
			rawMiss.Code, rawMiss.Header().Get("X-Spec-Key"), sp.Key())
	}
	if m := s.Metrics(); m.Runs != 1 || m.Probes != 6 || m.ProbeHits != 3 {
		t.Fatalf("metrics after canonical probes = %+v", m)
	}
}
