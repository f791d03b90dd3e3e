package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsm/internal/exper"
)

// textKey builds a distinct cache key of the form the server uses (a
// spec's canonical JSON) from an integer.
func textKey(i int) string {
	sp := Spec{Seed: uint64(i)}
	return string(sp.AppendJSON(nil))
}

// TestCacheConcurrentStress hammers the cache with concurrent puts
// (disjoint key ranges) and gets, then checks the LRU's invariants: map
// and recency list agree, the budget holds, and every insertion is
// accounted for as either a resident entry or an eviction.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		budget  = 512
		workers = 8
		perW    = 400 // 3200 distinct keys >> budget, so the cache evicts
	)
	c := newResultCache(budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := textKey(w*perW + i)
				c.put(k, "addr", []byte(k))
				// Mix in reads of this worker's earlier keys: hits must
				// return exactly the bytes stored under that key.
				if e, ok := c.get(textKey(w*perW + i/2)); ok && string(e.data) != textKey(w*perW+i/2) {
					t.Errorf("get returned bytes for the wrong key")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	entries, evictions := c.stats()
	if entries != budget {
		t.Fatalf("entries = %d, want the full budget %d", entries, budget)
	}
	const inserted = workers * perW
	if uint64(entries)+evictions != inserted {
		t.Fatalf("entries %d + evictions %d != %d insertions", entries, evictions, inserted)
	}
	if len(c.items) != c.ll.Len() {
		t.Fatalf("map has %d entries, list has %d", len(c.items), c.ll.Len())
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if c.items[e.key] != el {
			t.Fatalf("list entry %s is not the map's element for its key", e.key)
		}
	}
}

// TestFlightConcurrentLeaders drives concurrent bursts through one
// Flight on a shared key set: each burst must elect exactly one leader,
// Complete must count every join after the leader's, every follower must
// read the leader's value, and no call may stay resident afterwards.
func TestFlightConcurrentLeaders(t *testing.T) {
	const (
		nKeys   = 32
		joiners = 8
	)
	var f Flight[[]byte]
	leaders := make([]atomic.Uint32, nKeys)
	followers := make([]atomic.Int32, nKeys)
	joined := make([]sync.WaitGroup, nKeys)
	var wg sync.WaitGroup
	for k := 0; k < nKeys; k++ {
		key := textKey(k)
		want := []byte(key)
		joined[k].Add(joiners)
		for j := 0; j < joiners; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, leader := f.Join(key)
				joined[k].Done()
				if leader {
					// Hold the call open until the whole burst has joined;
					// completion removes the key, so finishing early would
					// let late joiners legitimately elect a fresh leader.
					joined[k].Wait()
					leaders[k].Add(1)
					followers[k].Store(int32(f.Complete(key, c, want, nil)))
					return
				}
				<-c.Done()
				if !bytes.Equal(c.Val, want) || c.Err != nil {
					t.Errorf("key %d: follower read (%q, %v), want leader's bytes", k, c.Val, c.Err)
				}
			}()
		}
	}
	wg.Wait()
	for k := range leaders {
		if n := leaders[k].Load(); n != 1 {
			t.Fatalf("key %d elected %d leaders, want exactly 1", k, n)
		}
		if n := followers[k].Load(); n != joiners-1 {
			t.Fatalf("key %d: Complete counted %d followers, want %d", k, n, joiners-1)
		}
	}
	if n := len(f.calls); n != 0 {
		t.Fatalf("flight still holds %d calls after completion", n)
	}
}

// TestDistinctSpecsCoalescePerKey checks coalescing stays per key: bursts of requests for several distinct specs must merge within
// each spec (one run per key) and never across specs.
func TestDistinctSpecsCoalescePerKey(t *testing.T) {
	const (
		nSpecs = 8
		dup    = 4
	)
	s := newTestServer(t, Config{Workers: 1, Queue: nSpecs + 2})
	gate := make(chan struct{})
	if !s.pool.submit(func(*exper.MachineSlot) { <-gate }) {
		t.Fatal("could not park worker")
	}
	specs := make([]string, nSpecs)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"app":"counter","procs":4,"rounds":2,"seed":%d}`, i+1)
	}
	var wg sync.WaitGroup
	codes := make([][]int, nSpecs)
	bodies := make([][][]byte, nSpecs)
	for i := range specs {
		codes[i] = make([]int, dup)
		bodies[i] = make([][]byte, dup)
		for j := 0; j < dup; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				w := doJSON(s, specs[i])
				codes[i][j], bodies[i][j] = w.Code, w.Body.Bytes()
			}(i, j)
		}
	}
	// One leader per spec, the rest of each burst coalesced onto it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if m.CacheMisses == nSpecs && m.Coalesced == nSpecs*(dup-1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bursts did not coalesce per key: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := range specs {
		for j := 0; j < dup; j++ {
			if codes[i][j] != http.StatusOK {
				t.Fatalf("spec %d request %d = %d", i, j, codes[i][j])
			}
			if !bytes.Equal(bodies[i][j], bodies[i][0]) {
				t.Fatalf("spec %d request %d body differs within its burst", i, j)
			}
		}
		for k := 0; k < i; k++ {
			if bytes.Equal(bodies[i][0], bodies[k][0]) {
				t.Fatalf("specs %d and %d produced identical bodies; bursts merged across keys", i, k)
			}
		}
	}
	if m := s.Metrics(); m.Runs != nSpecs {
		t.Fatalf("Runs = %d, want exactly %d (one per distinct spec)", m.Runs, nSpecs)
	}
}
