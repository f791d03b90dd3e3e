package sim

import (
	"slices"
	"testing"
)

// chainRun runs a random tree of events around a periodic chain started
// at cycle 3 and woken by one of the tree's events, and returns the order
// in which real events ran, the chain's woken event among them as -1. With
// parked, the chain is parked on the engine; otherwise each of its events
// is a real one that schedules the next. With forceHeap, every real event
// waits in the overflow heap instead of the wheel.
func chainRun(seed uint64, step0, step1 Time, parked, forceHeap bool) (order []int, events uint64, passed uint64) {
	e := NewEngine()
	e.forceHeap = forceHeap
	var rng RNG
	rng.Seed(seed)
	var c Chain
	woken := false
	wakeAt := 5 + rng.Intn(30)
	var spawn func(id int) func()
	next := 0
	spawn = func(id int) func() {
		return func() {
			order = append(order, id)
			if id == wakeAt && e.Now() <= 3 {
				wakeAt++
			} else if id == wakeAt {
				if parked {
					e.Wake(&c, func() { order = append(order, -1) })
				}
				woken = true
			}
			k := rng.Intn(3)
			if id < 20 {
				k++ // grow the tree past the wake
			}
			for ; k > 0 && next < 120; k-- {
				next++
				e.After(Time(rng.Intn(4)), spawn(next))
			}
		}
	}
	var n uint64
	var link func()
	link = func() {
		if woken {
			order = append(order, -1)
			return
		}
		n++
		e.After([2]Time{step0, step1}[n%2], link)
	}
	e.At(0, spawn(0))
	e.At(3, func() {
		if parked {
			e.Park(&c, step0, step1)
		} else {
			e.After(step0, link)
		}
	})
	for e.Now() < 1000 && e.Step() {
	}
	if parked {
		return order, e.EventsExecuted(), c.Passed()
	}
	return order, e.EventsExecuted(), n
}

// TestChainMatchesRealEvents: a parked chain's woken event runs exactly
// where the chain's real event would, every other event keeps its order,
// and the events executed fall by the chain events passed virtually. The
// forced-heap runs test passUntil's tie-break against real events held in
// the overflow heap rather than the wheel.
func TestChainMatchesRealEvents(t *testing.T) {
	compared := 0
	for _, forceHeap := range []bool{false, true} {
		for seed := uint64(1); seed <= 300; seed++ {
			for _, st := range [][2]Time{{1, 1}, {2, 1}, {1, 2}, {3, 5}} {
				want, wantEvents, wantN := chainRun(seed, st[0], st[1], false, forceHeap)
				got, events, passed := chainRun(seed, st[0], st[1], true, forceHeap)
				if !slices.Contains(want, -1) {
					continue // the tree died out before the wake
				}
				compared++
				if !slices.Equal(got, want) {
					t.Fatalf("forceHeap %v seed %d steps %v: order\n%v, want\n%v", forceHeap, seed, st, got, want)
				}
				if passed != wantN || events+passed != wantEvents {
					t.Fatalf("forceHeap %v seed %d steps %v: %d events with %d passed, want %d events with %d links",
						forceHeap, seed, st, events, passed, wantEvents, wantN)
				}
			}
		}
	}
	if compared < 1800 {
		t.Fatalf("only %d of 2400 runs reached the wake", compared)
	}
}

// TestParkedChainAloneIsIdle: parked chains alone leave Step nothing to
// run, so a spin nobody wakes ends the run instead of looping.
func TestParkedChainAloneIsIdle(t *testing.T) {
	e := NewEngine()
	var c Chain
	e.At(5, func() { e.Park(&c, 2, 1) })
	if !e.Step() || e.Step() {
		t.Fatal("Step ran a parked chain's virtual event")
	}
	if e.live != 0 || c.Passed() != 0 {
		t.Fatalf("pending %d, passed %d; want 0, 0", e.live, c.Passed())
	}
}
