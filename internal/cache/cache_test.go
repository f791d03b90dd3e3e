package cache

import (
	"testing"
	"testing/quick"

	"dsm/internal/arch"
)

// newCache returns an empty cache, built as production builds one.
func newCache(cfg Config) *Cache {
	c := &Cache{}
	c.Init(cfg)
	return c
}

func blockAt(w0 arch.Word) arch.BlockData {
	var d arch.BlockData
	d[0] = w0
	return d
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := newCache(DefaultConfig())
	if c.Lookup(0x100) != nil {
		t.Fatal("hit in empty cache")
	}
}

func TestInsertThenHit(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x104, SharedRO, blockAt(7))
	l := c.Lookup(0x108) // same block
	if l == nil || l.State != SharedRO || l.Base != 0x100 || l.Data[0] != 7 {
		t.Fatalf("lookup = %+v", l)
	}
	if c.Lookup(0x120) != nil {
		t.Fatal("adjacent block hit")
	}
}

func TestInsertSameBlockUpdatesInPlace(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x100, SharedRO, blockAt(1))
	l, v := c.Insert(0x100, ExclusiveRW, blockAt(2))
	if v != nil {
		t.Fatal("in-place update produced a victim")
	}
	if l.State != ExclusiveRW || l.Data[0] != 2 {
		t.Fatalf("line = %+v", l)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(Config{Sets: 1, Assoc: 2})
	c.Insert(0x00, SharedRO, blockAt(1))
	c.Insert(0x20, SharedRO, blockAt(2))
	c.Lookup(0x00) // make 0x20 the LRU
	_, v := c.Insert(0x40, SharedRO, blockAt(3))
	if v == nil || v.Base != 0x20 {
		t.Fatalf("victim = %+v, want block 0x20", v)
	}
	if c.Peek(0x00) == nil || c.Peek(0x40) == nil || c.Peek(0x20) != nil {
		t.Fatal("post-eviction contents wrong")
	}
	if c.Stats().Evictions != 1 || c.Stats().DirtyEvictions != 0 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestDirtyEvictionCounted(t *testing.T) {
	c := newCache(Config{Sets: 1, Assoc: 1})
	c.Insert(0x00, ExclusiveRW, blockAt(1))
	_, v := c.Insert(0x20, SharedRO, blockAt(2))
	if v == nil || v.State != ExclusiveRW || v.Data[0] != 1 {
		t.Fatalf("victim = %+v", v)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := newCache(Config{Sets: 1, Assoc: 2})
	c.Insert(0x00, SharedRO, blockAt(1))
	c.Insert(0x20, SharedRO, blockAt(2))
	c.Peek(0x00) // would protect 0x00 if it touched LRU
	_, v := c.Insert(0x40, SharedRO, blockAt(3))
	if v == nil || v.Base != 0x00 {
		t.Fatalf("victim = %+v, want LRU block 0x00", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x100, ExclusiveRW, blockAt(9))
	v := c.Invalidate(0x10c)
	if v == nil || v.State != ExclusiveRW || v.Data[0] != 9 {
		t.Fatalf("invalidate returned %+v", v)
	}
	if c.Peek(0x100) != nil {
		t.Fatal("line survived invalidation")
	}
	if c.Invalidate(0x100) != nil {
		t.Fatal("second invalidate returned data")
	}
}

func TestDowngrade(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x100, ExclusiveRW, blockAt(3))
	l := c.Downgrade(0x100)
	if l == nil || l.State != SharedRO {
		t.Fatalf("downgraded line = %+v", l)
	}
	// Downgrading a shared line keeps it shared.
	if c.Downgrade(0x100).State != SharedRO {
		t.Fatal("downgrade of shared line changed state")
	}
	if c.Downgrade(0x200) != nil {
		t.Fatal("downgrade of absent line returned a line")
	}
}

func TestLineWordAccessors(t *testing.T) {
	c := newCache(DefaultConfig())
	l, _ := c.Insert(0x100, ExclusiveRW, arch.BlockData{})
	l.SetWord(0x110, 42)
	if l.Word(0x110) != 42 || l.Data[4] != 42 {
		t.Fatal("word accessors broken")
	}
}

func TestLineWordPanicsOutsideLine(t *testing.T) {
	c := newCache(DefaultConfig())
	l, _ := c.Insert(0x100, SharedRO, arch.BlockData{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-line address")
		}
	}()
	l.Word(0x200)
}

func TestReservationLifecycle(t *testing.T) {
	c := newCache(DefaultConfig())
	if c.ReservedOn(0) {
		t.Fatal("fresh cache holds a reservation")
	}
	c.SetReservation(0x104)
	if !c.ReservedOn(0x100) {
		t.Fatal("reservation does not cover its block base")
	}
	if !c.ReservedOn(0x11c) || c.ReservedOn(0x120) {
		t.Fatal("ReservedOn block matching wrong")
	}
	// A second reservation displaces the first (one per processor).
	c.SetReservation(0x200)
	if c.ReservedOn(0x100) || !c.ReservedOn(0x200) {
		t.Fatal("reservation displacement wrong")
	}
	c.ClearReservation()
	if c.ReservedOn(0x200) {
		t.Fatal("ClearReservation did not clear")
	}
}

func TestInvalidationClearsMatchingReservation(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x100, SharedRO, blockAt(1))
	c.SetReservation(0x100)
	c.Invalidate(0x300) // unrelated
	if !c.ReservedOn(0x100) {
		t.Fatal("unrelated invalidation cleared reservation")
	}
	c.Invalidate(0x100)
	if c.ReservedOn(0x100) {
		t.Fatal("matching invalidation kept reservation")
	}
}

func TestInvalidationOfUncachedReservedBlockClearsReservation(t *testing.T) {
	// The reservation can outlive the cached copy (e.g. the line was never
	// cached exclusively); an invalidation for that address must still
	// clear it.
	c := newCache(DefaultConfig())
	c.SetReservation(0x100)
	c.Invalidate(0x100)
	if c.ReservedOn(0x100) {
		t.Fatal("reservation survived invalidation of uncached block")
	}
}

func TestEvictionClearsReservation(t *testing.T) {
	c := newCache(Config{Sets: 1, Assoc: 1})
	c.Insert(0x00, SharedRO, blockAt(1))
	c.SetReservation(0x00)
	c.Insert(0x20, SharedRO, blockAt(2))
	if c.ReservedOn(0x00) {
		t.Fatal("reservation survived eviction of its line")
	}
}

func TestForEachVisitsAllValidLines(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Insert(0x000, SharedRO, blockAt(1))
	c.Insert(0x020, ExclusiveRW, blockAt(2))
	c.Insert(0x040, SharedRO, blockAt(3))
	c.Invalidate(0x020)
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d lines, want 2", n)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{{Sets: 0, Assoc: 1}, {Sets: 3, Assoc: 1}, {Sets: 4, Assoc: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			newCache(cfg)
		}()
	}
}

func TestInsertInvalidStatePanics(t *testing.T) {
	c := newCache(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Invalid insert")
		}
	}()
	c.Insert(0x100, Invalid, arch.BlockData{})
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || SharedRO.String() != "S" || ExclusiveRW.String() != "E" {
		t.Fatal("state names wrong")
	}
}

func TestPropertyLookupFindsWhatInsertPut(t *testing.T) {
	c := newCache(DefaultConfig())
	f := func(aRaw uint16, w uint32) bool {
		a := arch.Addr(aRaw) * 4
		c.Insert(a, ExclusiveRW, blockAt(arch.Word(w)))
		l := c.Lookup(a)
		return l != nil && l.Base == arch.BlockBase(a) && l.Data[0] == arch.Word(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertySingleCopyPerBlock(t *testing.T) {
	// Repeated inserts of the same block never duplicate it.
	c := newCache(Config{Sets: 2, Assoc: 4})
	for i := 0; i < 100; i++ {
		st := SharedRO
		if i%2 == 0 {
			st = ExclusiveRW
		}
		c.Insert(arch.Addr(i%6)*32, st, blockAt(arch.Word(i)))
	}
	seen := map[arch.Addr]int{}
	c.ForEach(func(l *Line) { seen[l.Base]++ })
	for base, n := range seen {
		if n != 1 {
			t.Fatalf("block %#x cached %d times", base, n)
		}
	}
}
