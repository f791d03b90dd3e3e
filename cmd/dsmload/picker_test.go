package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dsm/internal/fleet"
)

func TestPickerDeterministicFromSeed(t *testing.T) {
	specs := workingSet(16)
	a := newPicker(7, 3, specs, 0.5, 0)
	b := newPicker(7, 3, specs, 0.5, 0)
	for i := 0; i < 200; i++ {
		if da, db := a.draw(), b.draw(); da != db {
			t.Fatalf("draw %d diverged for identical (seed, worker)", i)
		}
	}
	// A different seed names a different stream.
	c := newPicker(8, 3, specs, 0.5, 0)
	same := 0
	for i := 0; i < 200; i++ {
		if a.draw() == c.draw() {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed 7 and seed 8 produced identical streams")
	}
}

func TestPickerZipfSkewsWorkingSet(t *testing.T) {
	specs := workingSet(16)
	p := newPicker(1, 0, specs, 1.0, 1.5) // every draw from the working set
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[p.draw()]++
	}
	// Rank 0 must dominate: well above the uniform share and above the
	// coldest spec.
	if counts[specs[0]] < 2*n/len(specs) {
		t.Fatalf("rank-0 drew %d of %d: no skew", counts[specs[0]], n)
	}
	if counts[specs[0]] <= counts[specs[len(specs)-1]] {
		t.Fatalf("rank 0 (%d) not hotter than rank %d (%d)",
			counts[specs[0]], len(specs)-1, counts[specs[len(specs)-1]])
	}
	// Uniform picker at the same dup rate stays flat-ish by comparison.
	u := newPicker(1, 0, specs, 1.0, 0)
	ucounts := make(map[string]int)
	for i := 0; i < n; i++ {
		ucounts[u.draw()]++
	}
	if ucounts[specs[0]] >= 2*n/len(specs) {
		t.Fatalf("uniform picker skewed: rank-0 drew %d of %d", ucounts[specs[0]], n)
	}
}

// TestBackoffEngagesThroughRouter pins satellite behavior end-to-end: a
// backend sheds load with 429 + Retry-After, the fleet router relays both
// unchanged, and dsmload's capped exponential backoff absorbs the
// rejections and lands the request.
func TestBackoffEngagesThroughRouter(t *testing.T) {
	var sims atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch sims.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		case 2: // no Retry-After: the client's own backoff step applies
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	rt, err := fleet.New(fleet.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	spec := workingSet(1)[0]
	t0 := time.Now()
	res, err := issueRetry(client, router.URL+"/v1/sim", spec, time.Now().Add(30*time.Second))
	waited := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("final status = %d after retries", res.status)
	}
	if res.retries != 2 {
		t.Fatalf("absorbed %d rejections, want 2", res.retries)
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("backend saw %d simulate attempts, want 3", got)
	}
	if m := rt.Metrics(); m.Rejected != 2 {
		t.Fatalf("router relayed %d rejections, want 2", m.Rejected)
	}
	// The first rejection's Retry-After: 1 reached the client through the
	// router and was honored as a backoff floor.
	if waited < time.Second {
		t.Fatalf("request completed in %v: the relayed Retry-After floor was ignored", waited)
	}
}
