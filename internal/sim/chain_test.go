package sim

import (
	"slices"
	"testing"
)

// A chainCase is chains among a random tree of real events: when each
// chain parks, its steps, and the seed that draws the tree, its wakes and
// the delays of its events. With repark, a woken chain parks again;
// with hold, a chain stays parked until end while it is the only one. A
// real event at end (chainEnd if 0) wakes every chain still parked.
type chainCase struct {
	seed   uint64
	park   []Time
	steps  [][2]Time
	repark bool
	hold   bool
	end    Time
}

const chainEnd = 1500

// run runs c on e and returns the order in which events ran (tree events
// by id, chain i's woken event as -1-i), the events executed and each
// chain's events passed. With parked, the chains are parked on the
// engine; otherwise each of their events is a real one that schedules the
// next, and the events a chain ran before the one its wake made real are
// its passes.
//
// The tree's events and the woken chain events draw from one RNG, so both
// runs draw alike as long as they run alike. An event may wake a chain or
// two, schedule a waker due on one of a chain's cycles, and spawn events
// a random delay or a chain's step later; a woken chain's event may wake
// the next chain and spawn events too.
func (c chainCase) run(e *Engine, parked bool) (order []int, events uint64, passed []uint64) {
	var rng RNG
	rng.Seed(c.seed)
	end := c.end
	if end == 0 {
		end = chainEnd
	}
	n := len(c.park)
	chains := make([]Chain, n)
	links := make([]uint64, n) // each chain's links, or passes, over its parks
	state := make([]int, n)    // 0 waiting to park, 1 parked, 2 woken
	var spawn func(id int) func()
	var woken, park func(i int) func()
	nodes, maxNodes := 0, int(400*end/chainEnd)
	delay := func() Time {
		if k := rng.Intn(8); k < 4 {
			return Time(k)
		} else if k < 7 {
			s := c.steps[rng.Intn(n)]
			return s[k%2] + Time(rng.Intn(2))
		}
		return Time(rng.Intn(80))
	}
	wake := func(i int) {
		if state[i] != 1 || c.hold && e.Now() < end && slices.Index(state[i+1:], 1) < 0 && slices.Index(state[:i], 1) < 0 {
			return
		}
		state[i] = 2
		if parked {
			e.Wake(&chains[i], woken(i))
		}
	}
	grow := func(k int) {
		for ; k > 0 && nodes < maxNodes; k-- {
			nodes++
			e.After(delay(), spawn(nodes))
		}
	}
	spawn = func(id int) func() {
		return func() {
			order = append(order, id)
			switch rng.Intn(10) {
			case 0:
				wake(rng.Intn(n))
			case 1:
				wake(rng.Intn(n))
				wake(rng.Intn(n))
			case 2:
				i := rng.Intn(n)
				s := c.steps[i]
				e.After(s[rng.Intn(2)], func() { order = append(order, 1000+i); wake(i) })
			}
			grow(rng.Intn(3))
		}
	}
	woken = func(i int) func() {
		return func() {
			order = append(order, -1-i)
			if parked {
				links[i] += chains[i].Passed()
			}
			if rng.Intn(3) == 0 {
				wake((i + 1) % n)
			}
			if c.repark && e.Now()+30 < end {
				e.After(Time(rng.Intn(20)), park(i))
			}
			grow(rng.Intn(3))
		}
	}
	park = func(i int) func() {
		var j uint64 // the real chain's events so far
		var link func()
		link = func() {
			if state[i] == 2 {
				woken(i)()
				return
			}
			links[i]++
			j++
			e.After(c.steps[i][j%2], link)
		}
		return func() {
			order = append(order, 2000+i)
			state[i] = 1
			if parked {
				e.Park(&chains[i], c.steps[i][0], c.steps[i][1])
			} else {
				e.After(c.steps[i][0], link)
			}
		}
	}
	for i := range n {
		e.At(c.park[i], park(i))
		// A waker on one of the chain's own cycles, scheduled before it
		// parks, and on the same cycle as chain 0's when i is odd.
		d := chainDesc{park: c.park[i], step: c.steps[i]}
		due := d.due(uint64(rng.Intn(40)))
		if i%2 == 1 {
			d0 := chainDesc{park: c.park[0], step: c.steps[0]}
			due = d0.due(d0.index(due))
		}
		if due < end {
			e.At(due, func() { order = append(order, 3000+i); wake(i) })
		}
	}
	for t := Time(0); t < end; t += 40 {
		nodes++
		e.At(t, spawn(nodes))
	}
	e.At(end, func() {
		for i := range n {
			wake(i)
		}
	})
	for e.Step() {
	}
	return order, e.EventsExecuted(), links
}

// check runs c parked and as real events and requires the same order of
// events, the same passes per chain, and the events executed plus the
// passes equal to the real chains' events. With forceHeap, every real
// event waits in the overflow heap instead of the wheel. It returns the
// engine the chains parked on.
func (c chainCase) check(t *testing.T, forceHeap bool) *Engine {
	t.Helper()
	real, e := NewEngine(), NewEngine()
	real.forceHeap, e.forceHeap = forceHeap, forceHeap
	want, wantEvents, wantLinks := c.run(real, false)
	got, events, passed := c.run(e, true)
	if !slices.Equal(got, want) {
		t.Fatalf("%+v forceHeap %v: order\n%v, want\n%v", c, forceHeap, got, want)
	}
	var sum uint64
	for _, p := range passed {
		sum += p
	}
	if !slices.Equal(passed, wantLinks) || events+sum != wantEvents {
		t.Fatalf("%+v forceHeap %v: %d events with %v passed, want %d events with %v links",
			c, forceHeap, events, passed, wantEvents, wantLinks)
	}
	return e
}

// newChainCase draws n chains (n in 1-8) parking in the first 400
// cycles, with steps in 1-maxStep (maxStep in 1-200); with lockstep, each
// odd chain parks on the cycle of the chain before it with its steps.
func newChainCase(seed uint64, n, maxStep int, lockstep, repark bool) chainCase {
	c := chainCase{seed: seed, repark: repark}
	r := NewRNG(seed ^ 0x5bd1e995)
	for i := range n {
		p := Time(1 + r.Intn(400))
		s := [2]Time{1 + Time(r.Intn(maxStep)), 1 + Time(r.Intn(maxStep))}
		if lockstep && i%2 == 1 {
			p, s = c.park[i-1], c.steps[i-1]
		}
		c.park, c.steps = append(c.park, p), append(c.steps, s)
	}
	return c
}

// TestChainMatchesRealEvents: a parked chain's woken event runs exactly
// where the chain's real event would, every other event keeps its order,
// and the events executed fall by the chain events passed virtually. The
// forced-heap runs test the tie-break against real events held in the
// overflow heap rather than the wheel.
func TestChainMatchesRealEvents(t *testing.T) {
	for _, forceHeap := range []bool{false, true} {
		for seed := uint64(1); seed <= 200; seed++ {
			for _, st := range [][2]Time{{1, 1}, {2, 1}, {1, 2}, {3, 5}} {
				c := chainCase{seed: seed, park: []Time{3}, steps: [][2]Time{st}}
				c.check(t, forceHeap)
			}
			newChainCase(seed, 1+int(seed%8), 3, seed%2 == 0, seed%5 < 2).check(t, forceHeap)
			newChainCase(seed, 1+int(seed%8), 200, seed%3 == 0, seed%5 > 2).check(t, forceHeap)
		}
	}
}

// FuzzChainMatchesRealEvents is TestChainMatchesRealEvents over drawn
// cases: 1-8 chains, steps in 1-200, lockstep pairs, wakes on a chain's
// cycle, two in one cycle and from a woken chain's event, chains that
// park again, forceHeap on and off.
func FuzzChainMatchesRealEvents(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), false, false, false)
	f.Add(uint64(7), uint8(4), uint8(2), true, true, false)
	f.Add(uint64(9), uint8(8), uint8(199), true, false, true)
	f.Add(uint64(3), uint8(5), uint8(5), false, true, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, maxStep uint8, lockstep, repark, forceHeap bool) {
		newChainCase(seed, 1+int(n%8), 1+int(maxStep%200), lockstep, repark).check(t, forceHeap)
	})
}

// TestChainLogTrims runs two chains that park again and again through a
// long run, one of them always parked, so that the log is trimmed with
// woken chains' events in it, some of them parked before the oldest live
// chain: the order must still match, and the log must end shorter than
// the run, which it would not without trimming.
func TestChainLogTrims(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := newChainCase(seed, 2, 3, seed%2 == 0, true)
		c.hold, c.end = true, 40*chainEnd
		e := c.check(t, false)
		if cap(e.log) >= int(e.EventsExecuted()) {
			t.Fatalf("seed %d: log of %d entries over %d events", seed, cap(e.log), e.EventsExecuted())
		}
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
	if c.Passed() != 0 {
		t.Fatalf("passed %d, want 0", c.Passed())
	}
}

// TestParkWakeZeroAlloc: once warm, parking a chain, waking it and
// stepping to its event allocate nothing, with another chain parked.
func TestParkWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	var a, b Chain
	ran := func() {}
	park := func() { e.Park(&a, 2, 1); e.Park(&b, 1, 1) }
	wakeA := func() { e.Wake(&a, ran) }
	wakeB := func() { e.Wake(&b, ran) }
	cycle := func() {
		e.After(1, park)
		e.After(9, wakeA)
		e.After(12, wakeB)
		for e.Step() {
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Park, Wake and Step allocate %.1f times per round", n)
	}
}
