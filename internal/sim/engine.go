// Package sim provides the discrete-event simulation engine that drives the
// DSM machine model: a virtual clock, an event queue with deterministic
// tie-breaking, and a seeded pseudo-random number source.
//
// All back-end components (caches, directories, memory modules, the mesh)
// run inside the engine's single event loop; determinism follows from the
// total order (time, sequence number) on events.
//
// The engine is the simulator's hot path: every memory reference, message
// delivery, and compute delay becomes at least one event, except the
// events of a parked chain (see Chain), which pass virtually. Scheduling is a
// two-level structure: a timing wheel of one-cycle buckets covers the near
// future (where nearly every delay in the machine model lands — hop, flit,
// memory, and retry delays are all tens of cycles) at amortized O(1) per
// event, and a concrete 4-ary min-heap holds the rare events beyond the
// wheel's horizon. Buckets are intrusive linked lists threaded through the
// events themselves, and fired or dead events are recycled through a free
// list, so a steady-state simulation schedules events without allocating.
package sim

// Time is the virtual clock, in processor cycles.
type Time uint64

// The timing wheel spans wheelSpan cycles of one-cycle buckets. An event
// scheduled less than wheelSpan cycles ahead is appended to the bucket
// (at & wheelMask) in O(1); anything farther out goes to the overflow heap.
// Because insertion is gated on the delta, a bucket holds live events of at
// most one distinct timestamp at any moment, and appending to the list tail
// preserves sequence order, so draining a bucket front to back fires events
// in exactly the heap's (time, seq) order.
const (
	wheelBits = 10
	wheelSpan = 1 << wheelBits
	wheelMask = wheelSpan - 1
)

// Event queue position markers (Event.idx).
const (
	idxNone  int32 = -1 // not queued
	idxWheel int32 = -2 // in a wheel bucket
)

// Event is a callback scheduled to run at a particular virtual time.
//
// The *Event returned by At/After is a live handle only until the event
// fires or is cancelled; the engine then recycles the Event for a future
// schedule. Cancelling a handle after its event has run is a no-op, but a
// handle must not be retained and cancelled after later At/After calls may
// have reused it.
//
// An event carries either a plain callback (At/After) or a
// (handler, payload) pair (AtArg/AfterArg). The latter lets callers with a
// long-lived handler — a controller's receive method — schedule per-message
// deliveries without allocating a closure per message.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	next  *Event // wheel bucket chain, or free-list chain
	eng   *Engine
	dead  bool
	idx   int32 // heap position, or idxWheel / idxNone
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled) is a no-op. Cancellation is lazy:
// the event stays in its bucket or heap slot and is discarded when the
// scheduler reaches it.
func (e *Event) Cancel() {
	if e == nil || e.dead || e.idx == idxNone {
		return
	}
	e.dead = true
	e.eng.live--
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	live     int    // scheduled events that have not been cancelled, and woken chains
	executed uint64 // events fired since construction (or the last Reset)
	free     *Event // recycled events, chained through Event.next

	// Near-future events. Bucket b holds an intrusive FIFO list
	// (head[b]..tail[b], chained through Event.next) of the events
	// scheduled for some time t with t & wheelMask == b and t within
	// wheelSpan cycles of now. wheelTime is the earliest time whose bucket
	// may still hold live entries (the scan cursor). wheelCount counts
	// events physically present in buckets, including cancelled ones.
	// bucketTime[b] records the timestamp bucket b was last filled for:
	// when the clock jumps over a bucket whose events were all cancelled,
	// the leftovers are reclaimed by the next append that finds a stale
	// stamp (see schedule).
	head       []*Event
	tail       []*Event
	bucketTime []Time
	wheelTime  Time
	wheelCount int

	// Far-future events (at - now >= wheelSpan at scheduling time): a 4-ary
	// min-heap ordered by (at, seq).
	far []*Event

	// forceHeap routes every event through the far heap, bypassing the
	// wheel. The scheduler-equivalence property test uses it to run the
	// heap-only scheduler against the wheel on identical workloads.
	forceHeap bool

	// Stopped is set by Stop and terminates Run at the next event boundary.
	stopped bool

	// Parked chains (see Chain): chains counts them, chainTime is the
	// earliest cycle whose slot may hold one, and slots is their wheel,
	// made at the first Park so engines that never park do not carry it.
	chains    int
	chainTime Time
	slots     *[chainSpan]chainSlot
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		head:       make([]*Event, wheelSpan),
		tail:       make([]*Event, wheelSpan),
		bucketTime: make([]Time, wheelSpan),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reset restores the engine to its post-NewEngine state — clock at zero, no
// pending events, counters cleared — while keeping the event free list, so
// a reused engine schedules without allocating.
func (e *Engine) Reset() {
	if e.wheelCount > 0 {
		for b := range e.head {
			for ev := e.head[b]; ev != nil; {
				next := ev.next
				e.recycle(ev)
				ev = next
			}
			e.head[b], e.tail[b] = nil, nil
		}
	}
	for _, ev := range e.far {
		ev.idx = idxNone
		e.recycle(ev)
	}
	e.far = e.far[:0]
	e.now, e.seq, e.live, e.executed = 0, 0, 0, 0
	e.wheelTime, e.wheelCount = 0, 0
	e.resetChains()
	e.stopped = false
}

// schedule enqueues a recycled or fresh event at absolute time t.
// Scheduling in the past (t less than Now) runs the event at the current
// time, preserving issue order.
func (e *Engine) schedule(t Time) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		ev.dead = false
	} else {
		ev = &Event{eng: e}
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	e.live++
	if t-e.now < wheelSpan && !e.forceHeap {
		b := int(t) & wheelMask
		if e.head[b] != nil && e.bucketTime[b] != t {
			// The bucket still holds events from an earlier lap of the
			// wheel. They are all cancelled — a live event would have
			// halted the cursor at its time instead of letting the clock
			// jump past — so reclaim them before appending.
			for old := e.head[b]; old != nil; {
				next := old.next
				e.wheelCount--
				e.recycle(old)
				old = next
			}
			e.head[b], e.tail[b] = nil, nil
		}
		e.bucketTime[b] = t
		ev.idx = idxWheel
		if e.tail[b] == nil {
			e.head[b] = ev
		} else {
			e.tail[b].next = ev
		}
		e.tail[b] = ev
		e.wheelCount++
		if t < e.wheelTime {
			// The event landed behind the scan cursor (the callback running
			// now scheduled closer than the previously-earliest bucket);
			// its bucket was necessarily empty, so rewinding is exact.
			e.wheelTime = t
		}
	} else {
		e.push(ev)
	}
	return ev
}

// At schedules fn to run at absolute time t.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.schedule(t)
	ev.fn = fn
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// AtArg schedules fn(arg) to run at absolute time t. Unlike At, the callback
// and its payload travel separately, so a preallocated handler (a method
// value created once) can be scheduled per message without building a new
// closure each time; when arg is a pointer, the call allocates nothing.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	ev := e.schedule(t)
	ev.argFn = fn
	ev.arg = arg
	return ev
}

// AfterArg schedules fn(arg) to run d cycles from now.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) *Event {
	return e.AtArg(e.now+d, fn, arg)
}

// Pending reports the number of scheduled events that have neither fired nor
// been cancelled. It is a counter maintained by schedule/Cancel/Step, not a
// queue traversal, so it costs O(1) regardless of how many cancelled events
// still occupy wheel buckets or heap slots awaiting lazy removal.
func (e *Engine) Pending() int { return e.live }

// EventsExecuted reports the number of events fired since the engine was
// constructed or last Reset. Cancelled events are never counted, and the
// counter is independent of the queue data structure — it advances once per
// callback invocation in Step, whether the event came from a wheel bucket
// or the overflow heap.
func (e *Engine) EventsExecuted() uint64 { return e.executed }

// Stop makes Run return after the event currently executing (if any).
func (e *Engine) Stop() { e.stopped = true }

// recycle returns a consumed event to the free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil // release the closure
	ev.argFn = nil
	ev.arg = nil
	ev.dead = true
	ev.idx = idxNone
	ev.next = e.free
	e.free = ev
}

// nextWheel returns the earliest live wheel event without removing it,
// advancing the scan cursor past empty buckets and lazily discarding
// cancelled events on the way. It returns nil when no live wheel event
// exists. The cursor only moves forward in time (or is rewound exactly by
// schedule), so scanning is amortized O(1) per event: each bucket is
// visited once per wheelSpan cycles of simulated time, and every list node
// popped here was pushed by exactly one schedule call.
func (e *Engine) nextWheel() *Event {
	for {
		if e.wheelCount == 0 {
			return nil
		}
		if e.wheelTime < e.now {
			// Buckets behind the clock hold no live events (events are
			// never scheduled in the past); fast-forward the cursor.
			// Cancelled stragglers left behind are reclaimed by schedule
			// when their bucket is refilled.
			e.wheelTime = e.now
		}
		b := int(e.wheelTime) & wheelMask
		for ev := e.head[b]; ev != nil; ev = e.head[b] {
			if !ev.dead && ev.at == e.wheelTime {
				return ev
			}
			// Cancelled, or a dead leftover from an earlier lap.
			e.popWheelHead(b)
			e.recycle(ev)
		}
		e.wheelTime++
	}
}

// popWheelHead unlinks the head event of bucket b.
func (e *Engine) popWheelHead(b int) {
	ev := e.head[b]
	e.head[b] = ev.next
	if ev.next == nil {
		e.tail[b] = nil
	}
	ev.next = nil
	e.wheelCount--
}

// nextFar returns the earliest live heap event without removing it,
// discarding cancelled events at the top.
func (e *Engine) nextFar() *Event {
	for len(e.far) > 0 {
		if !e.far[0].dead {
			return e.far[0]
		}
		e.recycle(e.pop())
	}
	return nil
}

// next returns the earliest live event across the wheel and the heap, or
// nil. Ties between the two structures resolve on sequence number, keeping
// the global (time, seq) order exact.
func (e *Engine) next() (ev *Event, fromWheel bool) {
	w := e.nextWheel()
	f := e.nextFar()
	if w == nil {
		return f, false
	}
	if f == nil || eventLess(w, f) {
		return w, true
	}
	return f, false
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, fromWheel := e.next()
	if e.chains > 0 {
		if c := e.passUntil(ev); c != nil {
			e.popChain()
			e.live--
			e.executed++
			e.now = c.at
			fn := c.fn
			c.fn, c.on = nil, false
			fn()
			return true
		}
	}
	if ev == nil {
		return false
	}
	if fromWheel {
		e.popWheelHead(int(e.wheelTime) & wheelMask)
	} else {
		e.pop()
	}
	e.live--
	e.executed++
	e.now = ev.at
	fn := ev.fn
	argFn := ev.argFn
	arg := ev.arg
	e.recycle(ev)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// nextDue reports when the event Step would execute next is due, if any.
func (e *Engine) nextDue() (Time, bool) {
	ev, _ := e.next()
	if e.chains > 0 {
		if c := e.passUntil(ev); c != nil {
			return c.at, true
		}
	}
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Run executes events until the queue drains, Stop is called, or the clock
// passes limit (limit zero means no limit). It returns the number of events
// executed.
func (e *Engine) Run(limit Time) uint64 {
	var n uint64
	e.stopped = false
	for !e.stopped {
		if limit != 0 {
			if at, ok := e.nextDue(); !ok || at > limit {
				break
			}
		}
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// ------------------------------------------------------------- 4-ary heap --

// The overflow heap is a 4-ary min-heap: children of node i are 4i+1 ..
// 4i+4. The wider fan-out roughly halves the tree depth relative to a
// binary heap, trading a few extra comparisons per level for fewer
// cache-missing levels. It only ever holds events scheduled at least
// wheelSpan cycles out (plus everything, in the property test's forced-heap
// mode), so its size stays small in the machine model.

// eventLess orders events by (time, sequence); the sequence tie-break makes
// same-cycle events run in scheduling order.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up from the bottom.
func (e *Engine) push(ev *Event) {
	e.far = append(e.far, ev)
	q := e.far
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.idx = int32(i)
		i = parent
	}
	q[i] = ev
	ev.idx = int32(i)
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *Event {
	q := e.far
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.far = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
	top.idx = idxNone
	return top
}

// siftDown places ev (conceptually at the root) at its final position.
func (e *Engine) siftDown(ev *Event) {
	q := e.far
	n := len(q)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if eventLess(q[j], q[min]) {
				min = j
			}
		}
		if !eventLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		q[i].idx = int32(i)
		i = min
	}
	q[i] = ev
	ev.idx = int32(i)
}
