// Package sim provides the discrete-event simulation engine that drives the
// DSM machine model: a virtual clock, an event queue with deterministic
// tie-breaking, and a seeded pseudo-random number source.
//
// All back-end components (caches, directories, memory modules, the mesh)
// run inside the engine's single event loop; determinism follows from the
// total order (time, sequence number) on events. Step, which fires the
// earliest event, is the only way to run them.
//
// The engine is the simulator's hot path: every memory reference, message
// delivery, and compute delay becomes at least one event, except the
// events of a parked chain (see Chain), which pass virtually and cost
// nothing until the chain is woken. Scheduling is a two-level structure:
// a timing wheel of one-cycle buckets covers the near future (where
// nearly every delay in the machine model lands — hop, flit, memory, and
// retry delays are all tens of cycles) at amortized O(1) per event, and a
// container/heap min-heap holds the rare events beyond the wheel's
// horizon. Buckets are intrusive linked lists threaded through the
// events themselves, and fired events are recycled through a free list, so
// a steady-state simulation schedules events without allocating.
package sim

import "container/heap"

// Time is the virtual clock, in processor cycles.
type Time uint64

// The timing wheel spans wheelSpan cycles of one-cycle buckets. An event
// scheduled less than wheelSpan cycles ahead is appended to the bucket
// (at & wheelMask) in O(1); anything farther out goes to the overflow heap.
// A bucket needs no timestamp check: every event in the wheel is due within
// wheelSpan cycles of now, so a bucket only ever holds pending events of a
// single time, and the scan cursor never passes a pending event. Appending
// to the list tail preserves sequence order, so draining a bucket front to
// back fires events in exactly the heap's (time, seq) order.
const (
	wheelBits = 10
	wheelSpan = 1 << wheelBits
	wheelMask = wheelSpan - 1
)

// An event is a callback scheduled to run at a particular virtual time. It
// carries either a plain callback (At/After) or a (handler, payload) pair
// (AtArg/AfterArg). The latter lets callers with a long-lived handler — a
// controller's receive method — schedule per-message deliveries without
// allocating a closure per message.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	next  *event // wheel bucket chain, or free-list chain
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64 // events fired since construction (or the last Reset)
	free     *event // recycled events, chained through event.next

	// Near-future events. Bucket b holds an intrusive FIFO list
	// (head[b]..tail[b], chained through event.next) of the events
	// scheduled for the one time t with t & wheelMask == b within
	// wheelSpan cycles of now. wheelTime is the scan cursor: no pending
	// wheel event is due before it. wheelCount counts the events in
	// buckets.
	head       []*event
	tail       []*event
	wheelTime  Time
	wheelCount int

	// Far-future events (at - now >= wheelSpan at scheduling time).
	far farHeap

	// forceHeap routes every event through the far heap, bypassing the
	// wheel. The scheduler-equivalence property test uses it to run the
	// heap-only scheduler against the wheel on identical workloads.
	forceHeap bool

	// Live chains (see Chain): chains counts the parked and woken ones,
	// listed firstChain..lastChain in the order they parked; woken holds
	// the woken ones, and passed counts the events Wake found passed.
	// While chains are live, log records each event run, the running one
	// last; fired holds the woken chains among them, fired[i] being
	// number firedBase+i.
	chains                int
	firstChain, lastChain *Chain
	woken                 []*Chain
	passed                uint64
	log                   []logEntry
	fired                 []firedChain
	firedBase, trimAt     int
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		head: make([]*event, wheelSpan),
		tail: make([]*event, wheelSpan),
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
		e.recycle(ev)
	}
	e.far = e.far[:0]
	e.now, e.seq, e.executed = 0, 0, 0
	e.wheelTime, e.wheelCount = 0, 0
	e.resetChains()
}

// schedule enqueues a recycled or fresh event at absolute time t.
// Scheduling in the past (t less than Now) runs the event at the current
// time, preserving issue order.
func (e *Engine) schedule(t Time) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	if t-e.now < wheelSpan && !e.forceHeap {
		b := int(t) & wheelMask
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
		heap.Push(&e.far, ev)
	}
	return ev
}

// At schedules fn to run at absolute time t.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t).fn = fn
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// AtArg schedules fn(arg) to run at absolute time t. Unlike At, the callback
// and its payload travel separately, so a preallocated handler (a method
// value created once) can be scheduled per message without building a new
// closure each time; when arg is a pointer, the call allocates nothing.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	ev := e.schedule(t)
	ev.argFn = fn
	ev.arg = arg
}

// AfterArg schedules fn(arg) to run d cycles from now.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) {
	e.AtArg(e.now+d, fn, arg)
}

// EventsExecuted reports the number of events fired since the engine was
// constructed or last Reset. The counter is independent of the queue data
// structure — it advances once per callback invocation in Step, whether the
// event came from a wheel bucket, the overflow heap, or a woken chain.
func (e *Engine) EventsExecuted() uint64 { return e.executed }

// recycle returns a consumed event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil // release the closure
	ev.argFn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

// nextWheel returns the earliest wheel event without removing it, advancing
// the scan cursor past empty buckets, or nil when the wheel is empty. The
// cursor only moves forward in time (or is rewound exactly by schedule), so
// scanning is amortized O(1) per event: each bucket is visited once per
// wheelSpan cycles of simulated time.
func (e *Engine) nextWheel() *event {
	if e.wheelCount == 0 {
		return nil
	}
	if e.wheelTime < e.now {
		// The clock moved on through heap events or chains; the buckets
		// behind it are empty, since events are never scheduled in the past.
		e.wheelTime = e.now
	}
	for e.head[int(e.wheelTime)&wheelMask] == nil {
		e.wheelTime++
	}
	return e.head[int(e.wheelTime)&wheelMask]
}

// next returns the earliest event across the wheel and the heap, or nil.
// Ties between the two structures resolve on sequence number, keeping the
// global (time, seq) order exact.
func (e *Engine) next() (ev *event, fromWheel bool) {
	w := e.nextWheel()
	if len(e.far) == 0 {
		return w, true
	}
	if f := e.far[0]; w == nil || eventLess(f, w) {
		return f, false
	}
	return w, true
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, fromWheel := e.next()
	if e.chains > 0 {
		if len(e.woken) > 0 {
			if w := e.firstWoken(ev); w >= 0 {
				e.fire(w)
				return true
			}
		}
		if ev != nil {
			e.record(ev.at, ev.seq, 0)
		}
	}
	if ev == nil {
		return false
	}
	if fromWheel {
		b := int(e.wheelTime) & wheelMask
		e.head[b] = ev.next
		if ev.next == nil {
			e.tail[b] = nil
		}
		e.wheelCount--
	} else {
		heap.Pop(&e.far)
	}
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

// eventLess orders events by (time, sequence); the sequence tie-break makes
// same-cycle events run in scheduling order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// farHeap is the overflow min-heap, ordered by (time, seq). It only ever
// holds events scheduled at least wheelSpan cycles out (plus everything, in
// the property test's forced-heap mode): about 1% of the machine model's
// events at paper scale.
type farHeap []*event

func (h farHeap) Len() int           { return len(h) }
func (h farHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h farHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *farHeap) Push(x any)        { *h = append(*h, x.(*event)) }

func (h *farHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}
