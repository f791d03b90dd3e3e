package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestPropertyEventsExecuteInTimeOrder schedules a random batch of events
// and verifies execution times are non-decreasing and ties respect
// scheduling order.
func TestPropertyEventsExecuteInTimeOrder(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var ran []rec
		for i, d := range delays {
			i, d := i, d
			e.At(Time(d), func() { ran = append(ran, rec{e.Now(), i}) })
		}
		for e.Step() {
		}
		if len(ran) != len(delays) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i].at < ran[i-1].at {
				return false
			}
			if ran[i].at == ran[i-1].at && ran[i].seq < ran[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// equivalenceWorkload runs one randomized workload — mixed At/AtArg/After/
// AfterArg, delays straddling the wheel horizon, nested scheduling from
// inside callbacks — on e and returns the firing trace as (event id, firing
// time) pairs plus the executed count. On an engine with forceHeap set,
// which bypasses the timing wheel entirely, the same seed exercises the
// heap-only scheduler on the identical workload.
func equivalenceWorkload(e *Engine, seed uint64) (trace []uint64, executed uint64) {
	r := NewRNG(seed)
	nextID := uint64(0)
	argFire := func(a any) { trace = append(trace, a.(uint64), uint64(e.Now())) }
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		// Delays from zero to well past the wheel horizon, so both the
		// bucket path and the overflow-heap path fire in every run.
		delay := Time(r.Intn(3 * wheelSpan))
		switch r.Intn(4) {
		case 0, 1:
			fire := func() {
				trace = append(trace, id, uint64(e.Now()))
				if depth < 3 && r.Intn(3) == 0 {
					schedule(depth + 1)
				}
			}
			if delay%2 == 0 {
				e.At(e.Now()+delay, fire)
			} else {
				e.After(delay, fire)
			}
		case 2:
			e.AtArg(e.Now()+delay, argFire, id)
		default:
			e.AfterArg(delay, argFire, id)
		}
	}
	for i := 0; i < 300; i++ {
		schedule(0)
	}
	for e.Step() {
	}
	return trace, e.EventsExecuted()
}

// TestPropertySchedulerEquivalence feeds identical randomized workloads to
// the wheel-fronted scheduler and the heap-only scheduler and requires
// identical firing order and EventsExecuted. This pins the tie-break
// invariant: the wheel must preserve the heap's exact (time, seq) total
// order, not just time order.
func TestPropertySchedulerEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		wheelTrace, wheelN := equivalenceWorkload(NewEngine(), seed)
		forced := NewEngine()
		forced.forceHeap = true
		heapTrace, heapN := equivalenceWorkload(forced, seed)
		if wheelN != heapN {
			t.Logf("seed %#x: executed %d (wheel) vs %d (heap)", seed, wheelN, heapN)
			return false
		}
		if !slices.Equal(wheelTrace, heapTrace) {
			t.Logf("seed %#x: traces diverge", seed)
			return false
		}
		return wheelN > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyResetReproducesFreshEngine interrupts a workload with chains
// parked, one of them woken with its event still to run, Resets the
// engine, and replays the workload on the same (recycled) engine; the
// trace must match a fresh engine exactly.
// This is what machine reuse in internal/exper depends on.
func TestPropertyResetReproducesFreshEngine(t *testing.T) {
	f := func(seed uint64, cut uint8) bool {
		fresh, freshN := equivalenceWorkload(NewEngine(), seed)

		e := NewEngine()
		r := NewRNG(seed ^ 0x9e3779b97f4a7c15)
		for i := 0; i < 200; i++ {
			e.AfterArg(Time(r.Intn(3*wheelSpan)), func(any) {}, nil)
		}
		// Park three chains, and wake one with its event still ahead.
		var chains [3]Chain
		e.At(0, func() {
			for i := range chains {
				e.Park(&chains[i], Time(1+i), 2)
			}
		})
		woken := false
		e.At(Time(cut), func() {
			e.Wake(&chains[int(cut)%3], func() { panic("woken chain ran after Reset") })
			woken = true
		})
		// Stop right after the wake, leaving events pending.
		for !woken && e.Step() {
		}
		e.Reset()
		if e.Now() != 0 || e.EventsExecuted() != 0 || e.Passed() != 0 || e.Step() {
			return false
		}
		for i := range chains {
			if chains[i].on {
				return false
			}
		}

		trace, n := equivalenceWorkload(e, seed)
		return n == freshN && slices.Equal(trace, fresh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNestedSchedulingNeverTravelsBack: events scheduled from
// inside events never run before their scheduling point.
func TestPropertyNestedSchedulingNeverTravelsBack(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		e := NewEngine()
		r := NewRNG(seed)
		violated := false
		var spawn func(depth int)
		spawn = func(depth int) {
			born := e.Now()
			e.After(Time(r.Intn(20)), func() {
				if e.Now() < born {
					violated = true
				}
				if depth < int(n%6) {
					spawn(depth + 1)
				}
			})
		}
		e.At(0, func() { spawn(0) })
		e.At(0, func() { spawn(0) })
		for e.Step() {
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
