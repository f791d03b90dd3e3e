package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	for e.Step() {
	}
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	for e.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending", order)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(7, func() { fired = e.Now() })
	})
	for e.Step() {
	}
	if fired != 107 {
		t.Fatalf("After fired at %d, want 107", fired)
	}
}

func TestEngineSchedulingInPastRunsNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(50, func() {
		e.At(10, func() { fired = e.Now() })
	})
	for e.Step() {
	}
	if fired != 50 {
		t.Fatalf("past event fired at %d, want clamped to 50", fired)
	}
}

// TestEngineResumesAfterBoundedSteps: a caller that stops stepping leaves
// the remaining events pending, and stepping again runs them in order.
func TestEngineResumesAfterBoundedSteps(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		e.At(at, func() { ran = append(ran, e.Now()) })
	}
	e.Step()
	e.Step()
	if !slices.Equal(ran, []Time{5, 10}) || e.Now() != 10 {
		t.Fatalf("two steps ran %v and left the clock at %d, want [5 10] and 10", ran, e.Now())
	}
	for e.Step() {
	}
	if !slices.Equal(ran, []Time{5, 10, 15, 20}) || e.EventsExecuted() != 4 {
		t.Fatalf("resumed run gave %v in %d events, want [5 10 15 20] in 4", ran, e.EventsExecuted())
	}
}

// TestEventPoolReusesFiredEvent: a fired event goes back to the free list,
// so a warmed engine schedules and fires without allocating, whether the
// event lands in a wheel bucket or on the overflow heap.
func TestEventPoolReusesFiredEvent(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	argFn := func(any) {}
	var payload int
	for _, d := range []Time{1, 2 * wheelSpan} {
		step := func() {
			e.After(d, fn)
			e.AfterArg(d, argFn, &payload)
			e.Step()
			e.Step()
		}
		step() // warm the free list and the heap's backing array
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Fatalf("delay %d: At, AtArg and two Steps allocated %.1f times per run, want 0", d, n)
		}
	}
}

// TestEngineEqualTimestampStress drives the wheel and a forced-heap engine
// through a large mix of duplicate timestamps and verifies the (time, seq)
// total order — the scheduling-order tie-break — survives the heap's sifts
// as well as the buckets' appends.
func TestEngineEqualTimestampStress(t *testing.T) {
	for _, forceHeap := range []bool{false, true} {
		e := NewEngine()
		e.forceHeap = forceHeap
		r := NewRNG(77)
		type rec struct {
			at  Time
			ord int
		}
		var got []rec
		for ord := 0; ord < 3000; ord++ {
			at := Time(r.Intn(17)) // heavy timestamp collisions
			e.At(at, func() { got = append(got, rec{at, ord}) })
		}
		for e.Step() {
		}
		if len(got) != 3000 {
			t.Fatalf("forceHeap %v: ran %d events, want 3000", forceHeap, len(got))
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || b.at == a.at && b.ord < a.ord {
				t.Fatalf("forceHeap %v: (time, order) %v ran after %v", forceHeap, b, a)
			}
		}
	}
}

// TestEnginePoolStressDeterminism interleaves scheduling and execution so
// events cycle through the pool many times, and checks the execution trace
// is reproducible.
func TestEnginePoolStressDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		r := NewRNG(9)
		var trace []Time
		var spawn func()
		n := 0
		spawn = func() {
			trace = append(trace, e.Now())
			n++
			if n >= 500 {
				return
			}
			e.After(Time(1+r.Intn(5)), spawn)
			e.After(Time(1+r.Intn(5)), func() { trace = append(trace, e.Now()) })
		}
		e.At(0, spawn)
		for e.Step() {
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

func TestEngineStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		r := NewRNG(42)
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 200 {
				e.After(Time(1+r.Intn(10)), spawn)
			}
		}
		e.At(0, spawn)
		e.At(0, spawn)
		for e.Step() {
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs coincide %d/100 times", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(123)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	var f1, f2 RNG
	r.ForkInto(&f1, 1)
	r.ForkInto(&f2, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked RNGs coincide %d/100 times", same)
	}
}

func TestRNGIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(2024)
	const n, trials = 8, 80000
	var buckets [n]int
	for i := 0; i < trials; i++ {
		buckets[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range buckets {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}
