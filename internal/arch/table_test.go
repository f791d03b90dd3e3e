package arch

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

func TestTableAtAndGet(t *testing.T) {
	var tb Table[int]
	if tb.Get(0) != nil || tb.Get(1<<20) != nil {
		t.Fatal("empty table returned a slot")
	}
	p := tb.At(5)
	if *p != 0 {
		t.Fatalf("fresh slot = %d, want 0", *p)
	}
	*p = 42
	if tb.At(5) != p || tb.Get(5) != p {
		t.Fatal("same key, different slot")
	}
	// A neighbour on the same page reads as zero; a key on an untouched
	// page has no slot.
	if q := tb.Get(6); q == nil || *q != 0 {
		t.Fatalf("same-page neighbour = %v", q)
	}
	if tb.Get(leafSize) != nil {
		t.Fatal("Get found a slot on an untouched page")
	}
	if tb.Get(1<<30) != nil {
		t.Fatal("Get found a slot above the root")
	}
}

func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var tb Table[uint32]
	ref := make(map[uint32]uint32)
	for i := 0; i < 20000; i++ {
		var k uint32
		switch i % 3 {
		case 0:
			k = rng.Uint32N(1 << 12)
		case 1:
			k = rng.Uint32N(1 << 20)
		default:
			k = rng.Uint32()
		}
		v := rng.Uint32()
		*tb.At(k) = v
		ref[k] = v
	}
	for k, v := range ref {
		if p := tb.Get(k); p == nil || *p != v {
			t.Fatalf("Get(%#x) = %v, want %d", k, p, v)
		}
	}
	for i := 0; i < 20000; i++ {
		k := rng.Uint32()
		p := tb.Get(k)
		if v, ok := ref[k]; ok && (p == nil || *p != v) {
			t.Fatalf("Get(%#x) = %v, want %d", k, p, v)
		}
		if _, ok := ref[k]; !ok && p != nil && *p != 0 {
			t.Fatalf("Get(%#x) = %d for a key never written", k, *p)
		}
	}
}

func TestTablePointersStableAcrossGrowth(t *testing.T) {
	var tb Table[uint64]
	keys := []uint32{0, 63, 64, 1 << 12, 1 << 16, 1 << 22, 1 << 26, 0xffffffff}
	ptrs := make([]*uint64, len(keys))
	for i, k := range keys {
		ptrs[i] = tb.At(k)
		*ptrs[i] = uint64(k) + 1
		// Every earlier slot keeps its address and value while the root
		// rises and new pages and nodes are appended.
		for j := 0; j <= i; j++ {
			if got := tb.At(keys[j]); got != ptrs[j] || *got != uint64(keys[j])+1 {
				t.Fatalf("after touching %#x: slot %#x moved or changed", k, keys[j])
			}
		}
	}
	for i := uint32(0); i < 4096; i++ {
		tb.At(i * 977)
	}
	for j, k := range keys {
		if tb.Get(k) != ptrs[j] {
			t.Fatalf("slot %#x moved after bulk growth", k)
		}
	}
}

func TestTableEach(t *testing.T) {
	var tb Table[int]
	*tb.At(200) = 1
	*tb.At(3) = 2
	*tb.At(70000) = 3
	type kv struct {
		k uint32
		v int
	}
	var got []kv
	tb.Each(func(k uint32, v *int) {
		if *v != 0 {
			got = append(got, kv{k, *v})
		}
	})
	// Pages in first-touch order, keys increasing within a page.
	want := []kv{{200, 1}, {3, 2}, {70000, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	n := 0
	tb.Each(func(k uint32, v *int) {
		if p := tb.Get(k); p != v {
			t.Fatalf("Each passed slot %p for key %#x, Get returns %p", v, k, p)
		}
		n++
	})
	if n != 3*leafSize {
		t.Fatalf("Each visited %d slots, want every slot of 3 pages (%d)", n, 3*leafSize)
	}
}

func TestTableClearKeepsPages(t *testing.T) {
	var tb Table[int]
	p := tb.At(1000)
	*p = 7
	*tb.At(1 << 24) = 8
	tb.Clear()
	if *p != 0 || *tb.At(1 << 24) != 0 {
		t.Fatal("Clear left a value")
	}
	if tb.Get(1000) != p {
		t.Fatal("Clear dropped a page")
	}
	if n := testing.AllocsPerRun(10, func() {
		tb.Clear()
		*tb.At(1000) = 1
		*tb.At(1 << 24) = 2
	}); n != 0 {
		t.Fatalf("refilling a cleared table allocates %.1f times, want 0", n)
	}
}

// TestTableHighKeyBound pins the memory bound: the largest key on an empty
// table costs one page and the interior nodes above it, not a dense
// top-level array sized by the key.
func TestTableHighKeyBound(t *testing.T) {
	var before, after runtime.MemStats
	var tb Table[BlockData]
	runtime.ReadMemStats(&before)
	*tb.At(0xffffffff) = BlockData{1}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("touching key 0xffffffff allocated %d bytes, want < 64 KB", n)
	}
	if tb.Get(0xffffffff)[0] != 1 || tb.Get(0xfffffffe)[0] != 0 || tb.Get(0) != nil {
		t.Fatal("high key reads wrong")
	}
}

func TestLocalBlockPacksEachHome(t *testing.T) {
	for _, nodes := range []uint32{1, 8, 64} {
		next := make([]uint32, nodes) // each home's next local index
		for b := uint32(0); b < 8*nodes; b++ {
			a := Addr(b*BlockBytes + 4)
			home := b % nodes
			if got := LocalBlock(a, nodes); got != next[home] {
				t.Fatalf("nodes %d: block %d at home %d has local index %d, want %d",
					nodes, b, home, got, next[home])
			}
			next[home]++
		}
	}
}
