package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real spec keys: hex SHA-256 content addresses.
		sum := sha256.Sum256([]byte(fmt.Sprintf("spec-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func backendNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://b%d.fleet:8080", i)
	}
	return out
}

func TestRingOwnerStable(t *testing.T) {
	backends := backendNames(4)
	r := newRing(backends)
	counts := make([]int, len(backends))
	for _, key := range ringKeys(200) {
		o := r.owner(key)
		if o < 0 || o >= len(backends) {
			t.Fatalf("owner(%s) = %d", key, o)
		}
		if again := newRing(backends).owner(key); again != o {
			t.Fatalf("owner(%s) unstable: %d vs %d", key, o, again)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d owns none of 200 keys: %v", i, counts)
		}
	}
	// A single-backend ring owns every key.
	solo := newRing(backendNames(1))
	for _, key := range ringKeys(20) {
		if o := solo.owner(key); o != 0 {
			t.Fatalf("solo owner(%s) = %d", key, o)
		}
	}
}

// TestRingOwnerZeroAlloc pins the per-request ring lookup to no heap
// allocation.
func TestRingOwnerZeroAlloc(t *testing.T) {
	r := newRing(backendNames(4))
	key := ringKeys(1)[0]
	if n := testing.AllocsPerRun(1000, func() { r.owner(key) }); n != 0 {
		t.Fatalf("owner allocates %.1f times per call, want 0", n)
	}
}

// TestHash64MatchesFNV pins the inlined FNV-1a to hash/fnv: a change here
// would move every key to a different backend.
func TestHash64MatchesFNV(t *testing.T) {
	for _, s := range append(ringKeys(50), "", "http://b0:1#0") {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		if got := hash64(s); got != x {
			t.Fatalf("hash64(%q) = %#x, want %#x", s, got, x)
		}
	}
}

func TestRingPlacementIgnoresListOrder(t *testing.T) {
	// Placement must hash backend names, not positions: the same fleet
	// listed in a different order gives every key the same primary.
	a := []string{"http://b0:1", "http://b1:1", "http://b2:1"}
	b := []string{"http://b2:1", "http://b0:1", "http://b1:1"}
	ra, rb := newRing(a), newRing(b)
	for _, key := range ringKeys(500) {
		pa := a[ra.owner(key)]
		pb := b[rb.owner(key)]
		if pa != pb {
			t.Fatalf("key %s: primary %s vs %s after reorder", key, pa, pb)
		}
	}
}

func TestRingRemapBoundedOnRemove(t *testing.T) {
	backends := backendNames(4)
	keys := ringKeys(2000)
	before := newRing(backends)
	after := newRing(backends[:3]) // backend 3 removed

	moved := 0
	for _, key := range keys {
		pOld := before.owner(key)
		pNew := after.owner(key)
		if pOld != 3 {
			// Consistent hashing's defining guarantee: a key not owned by
			// the removed backend must keep its primary exactly.
			if pNew != pOld {
				t.Fatalf("key %s moved %d -> %d though backend 3 was removed", key, pOld, pNew)
			}
			continue
		}
		moved++
	}
	// The removed backend's share of the keyspace: ~1/4, with slack for
	// vnode placement variance.
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("remap fraction %.3f outside [0.10, 0.45]: ring badly balanced", frac)
	}
}

func TestRingRemapBoundedOnAdd(t *testing.T) {
	keys := ringKeys(2000)
	before := newRing(backendNames(4))
	after := newRing(backendNames(5)) // backend 4 added

	moved := 0
	for _, key := range keys {
		pOld := before.owner(key)
		pNew := after.owner(key)
		if pNew != pOld {
			// Keys may only move *to* the new backend.
			if pNew != 4 {
				t.Fatalf("key %s moved %d -> %d, not to the new backend", key, pOld, pNew)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.08 || frac > 0.40 {
		t.Fatalf("remap fraction %.3f outside [0.08, 0.40] after add", frac)
	}
}

func TestRingBalance(t *testing.T) {
	backends := backendNames(4)
	r := newRing(backends)
	counts := make([]int, len(backends))
	keys := ringKeys(4000)
	for _, key := range keys {
		counts[r.owner(key)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("backend %d owns %.3f of the keyspace: %v", i, frac, counts)
		}
	}
}
