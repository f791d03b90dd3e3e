package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dsm/internal/arch"
)

// replayGeometries are the geometries the replay and allocation tests
// cover: the paper's cache, and three with fewer sets than one page.
var replayGeometries = []Config{
	{Sets: 512, Assoc: 4},
	{Sets: 1, Assoc: 2},
	{Sets: 2, Assoc: 1},
	{Sets: 4, Assoc: 8},
}

// replayAddr draws an address that lands in one of a few sets spread over
// the whole cache, with enough distinct tags per set to force evictions.
func replayAddr(r *rand.Rand, cfg Config) arch.Addr {
	sets := min(cfg.Sets, 8)
	si := r.IntN(sets) * (cfg.Sets / sets)
	tag := r.IntN(2*cfg.Assoc + 1)
	block := tag*cfg.Sets + si
	return arch.Addr(block*arch.BlockBytes + r.IntN(arch.WordsPerBlock)*arch.WordBytes)
}

// replayStep applies one random operation to c and describes what it
// returned, so two caches driven by the same stream can be compared step
// by step.
func replayStep(r *rand.Rand, c *Cache) string {
	a := replayAddr(r, c.cfg)
	line := func(l *Line) string {
		if l == nil {
			return "nil"
		}
		return fmt.Sprintf("%#x/%v/%v", l.Base, l.State, l.Data)
	}
	victim := func(v *Victim) string {
		if v == nil {
			return "nil"
		}
		return fmt.Sprintf("%#x/%v/%v", v.Base, v.State, v.Data)
	}
	var out string
	switch op := r.IntN(9); op {
	case 0, 1, 2:
		st := SharedRO
		if r.IntN(2) == 0 {
			st = ExclusiveRW
		}
		var d arch.BlockData
		for i := range d {
			d[i] = arch.Word(r.Uint32())
		}
		l, v := c.Insert(a, st, d)
		out = "insert " + line(l) + " victim " + victim(v)
	case 3:
		out = "lookup " + line(c.Lookup(a))
	case 4:
		out = "peek " + line(c.Peek(a))
	case 5:
		out = "invalidate " + victim(c.Invalidate(a))
	case 6:
		out = "downgrade " + line(c.Downgrade(a))
	case 7:
		c.SetReservation(a)
		out = "set-resv"
	case 8:
		c.ClearReservation()
		out = "clear-resv"
	}
	return fmt.Sprintf("%#x %s; stats %+v; resv %#x %v; reserved-on %v",
		a, out, c.Stats(), c.resvAddr, c.resvValid, c.ReservedOn(a))
}

// contents lists every valid line in ForEach order.
func contents(c *Cache) []string {
	var out []string
	c.ForEach(func(l *Line) {
		out = append(out, fmt.Sprintf("%#x/%v/%v", l.Base, l.State, l.Data))
	})
	return out
}

// TestResetCacheReplaysFresh drives the same random operation stream into
// a fresh cache and into one that ran a different stream and was then
// Reset: every returned line and victim, the stats, the reservation and
// the ForEach order must agree at every step.
func TestResetCacheReplaysFresh(t *testing.T) {
	for _, cfg := range replayGeometries {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", cfg.Sets, cfg.Assoc, seed), func(t *testing.T) {
				used := newCache(cfg)
				dirty := rand.New(rand.NewPCG(seed, 99))
				for i := 0; i < 300; i++ {
					replayStep(dirty, used)
				}
				used.Reset()

				fresh := newCache(cfg)
				rf := rand.New(rand.NewPCG(seed, 1))
				ru := rand.New(rand.NewPCG(seed, 1))
				for i := 0; i < 400; i++ {
					want := replayStep(rf, fresh)
					if got := replayStep(ru, used); got != want {
						t.Fatalf("step %d: reset cache %s, fresh cache %s", i, got, want)
					}
				}
				want, got := contents(fresh), contents(used)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("ForEach: reset cache %v, fresh cache %v", got, want)
				}
			})
		}
	}
}

// TestNoAllocOnUntouchedPages checks that misses on pages no Insert has
// reached allocate nothing, and leave those pages unallocated.
func TestNoAllocOnUntouchedPages(t *testing.T) {
	for _, cfg := range replayGeometries {
		c := newCache(cfg)
		r := rand.New(rand.NewPCG(7, 7))
		addrs := make([]arch.Addr, 64)
		for i := range addrs {
			addrs[i] = replayAddr(r, cfg)
		}
		c.SetReservation(addrs[0])
		n := testing.AllocsPerRun(10, func() {
			for _, a := range addrs {
				c.Lookup(a)
				c.Peek(a)
				c.Invalidate(a)
				c.Downgrade(a)
			}
		})
		if n != 0 {
			t.Errorf("%+v: misses allocate %.1f times per run, want 0", cfg, n)
		}
		for i, p := range c.pages {
			if p != nil {
				t.Errorf("%+v: a miss allocated page %d", cfg, i)
			}
		}
	}
}

// TestNoAllocRefillAfterReset checks that refilling the blocks of an
// earlier run after Reset reuses that run's pages.
func TestNoAllocRefillAfterReset(t *testing.T) {
	for _, cfg := range replayGeometries {
		c := newCache(cfg)
		r := rand.New(rand.NewPCG(5, 5))
		addrs := make([]arch.Addr, 64)
		for i := range addrs {
			addrs[i] = replayAddr(r, cfg)
		}
		fill := func() {
			c.Reset()
			for i, a := range addrs {
				c.Insert(a, SharedRO, blockAt(arch.Word(i)))
			}
		}
		fill()
		if n := testing.AllocsPerRun(10, fill); n != 0 {
			t.Errorf("%+v: refill after Reset allocates %.1f times per run, want 0", cfg, n)
		}
	}
}

// TestPagesFollowFills pins the layout: the default cache allocates no
// line at Init, one page per group of touched sets, and ForEach still
// visits lines in set order.
func TestPagesFollowFills(t *testing.T) {
	c := newCache(DefaultConfig())
	for i, p := range c.pages {
		if p != nil {
			t.Fatalf("Init allocated page %d", i)
		}
	}
	sets := DefaultConfig().Sets
	// Blocks in sets 300, 5, 6 and 511; sets 5 and 6 share a page.
	for _, si := range []int{300, 5, 6, 511} {
		c.Insert(arch.Addr((sets+si)*arch.BlockBytes), SharedRO, blockAt(arch.Word(si)))
	}
	pages := 0
	for _, p := range c.pages {
		if p != nil {
			pages++
		}
	}
	if pages != 3 {
		t.Fatalf("%d pages allocated, want 3", pages)
	}
	var order []arch.Word
	c.ForEach(func(l *Line) { order = append(order, l.Data[0]) })
	if fmt.Sprint(order) != "[5 6 300 511]" {
		t.Fatalf("ForEach order %v, want set order [5 6 300 511]", order)
	}
}
