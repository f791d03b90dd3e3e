package sim

// Chain is a parked periodic chain of events: events that would each do
// nothing but schedule the next one, a fixed step later, until something
// outside the chain changes what they would see. A spin-wait reloading a
// flag from its own cache is such a chain (see internal/machine).
//
// The engine runs a parked chain's events virtually. The chain stands in
// the order as its next event would: due at its time, with the sequence
// number it would have been scheduled with. When the engine reaches it,
// it runs no callback and counts no executed event; it only takes the
// next sequence number and moves on to the following event's time, as
// that event's scheduling would. Wake makes the next event real: it runs
// in the very place in the (time, seq) order that the unparked chain's
// event would have held. Virtual events alone keep nothing running: with
// no real event pending, Step reports an empty queue.
//
// A Chain is owned by its caller (it is meant to be embedded, so parking
// allocates nothing) and is parked on at most one engine at a time.
type Chain struct {
	at   Time    // when the next event is due
	seq  uint64  // the sequence number it was scheduled with
	step [2]Time // event k+1 is due step[k%2] after event k
	n    uint64  // events passed virtually
	fn   func()  // set by Wake: the next event runs fn
	on   bool    // parked
}

// ChainStepLimit bounds a Chain's steps.
const ChainStepLimit = chainSpan

// Passed returns how many of the chain's events have run virtually.
func (c *Chain) Passed() uint64 { return c.n }

// Due returns when the chain's next event is due.
func (c *Chain) Due() Time { return c.at }

// The parked chains wait in a small wheel of one-cycle slots, like the
// event wheel's: slot at&chainMask lists the chains whose next events are
// due at at, in sequence order, since passes and parks append to a slot in
// the order they take sequence numbers. Steps below chainSpan keep every
// chain within chainSpan cycles of the clock, so a slot holds one cycle.
const (
	chainSpan = 64
	chainMask = chainSpan - 1
)

type chainSlot struct {
	q    []*Chain
	head int
}

// Park parks c as the chain of events the executing event would start by
// scheduling the first of them step0 cycles from now; each event after it
// would schedule the next step1, step0, step1, ... cycles later. Both
// steps must lie in [1, ChainStepLimit).
func (e *Engine) Park(c *Chain, step0, step1 Time) {
	if step0 == 0 || step1 == 0 || step0 >= chainSpan || step1 >= chainSpan {
		panic("sim: chain step outside [1, ChainStepLimit)")
	}
	if e.slots == nil {
		e.slots = new([chainSpan]chainSlot)
	}
	*c = Chain{at: e.now + step0, seq: e.seq, step: [2]Time{step0, step1}, on: true}
	e.seq++
	e.queueChain(c)
}

// Wake makes the parked chain's next event real: instead of passing
// virtually, it runs fn, and the chain is then no longer parked. Call it
// at most once per Park, and not across a Reset.
func (e *Engine) Wake(c *Chain, fn func()) {
	if !c.on || c.fn != nil {
		panic("sim: waking a chain that is not parked")
	}
	c.fn = fn
	e.live++
}

// queueChain appends c to the slot of its next event. Every parked chain
// is due within chainSpan cycles of now: a pass happens no later than the
// real event it precedes, and a step is shorter than chainSpan.
func (e *Engine) queueChain(c *Chain) {
	s := &e.slots[c.at&chainMask]
	s.q = append(s.q, c)
	e.chains++
	if e.chainTime < e.now {
		e.chainTime = e.now
	}
	if c.at < e.chainTime {
		e.chainTime = c.at
	}
}

// passUntil passes, in order, the parked chains' virtual events due
// before the real event ev (nil: none pending), and returns the woken
// chain whose event comes first, if any. With neither a real event nor a
// woken chain pending it passes nothing: virtual events would only ever
// schedule each other. Each pass takes the sequence
// number its successor's scheduling would, and moves the chain to the
// successor's slot, which lies ahead: steps are at least one cycle.
func (e *Engine) passUntil(ev *event) *Chain {
	for e.chains > 0 {
		if ev != nil && ev.at < e.chainTime {
			return nil
		}
		s := &e.slots[e.chainTime&chainMask]
		for s.head < len(s.q) {
			c := s.q[s.head]
			if ev != nil && ev.at == c.at && ev.seq < c.seq {
				return nil
			}
			if c.fn != nil {
				return c
			}
			if e.live == 0 {
				return nil
			}
			s.q[s.head] = nil
			s.head++
			c.n++
			c.at += c.step[c.n%2]
			c.seq = e.seq
			e.seq++
			t := &e.slots[c.at&chainMask]
			t.q = append(t.q, c)
		}
		s.q, s.head = s.q[:0], 0
		e.chainTime++
	}
	return nil
}

// popChain unlinks the woken chain passUntil returned, the first in the
// slot of the cycle it is due.
func (e *Engine) popChain() {
	s := &e.slots[e.chainTime&chainMask]
	s.q[s.head] = nil
	if s.head++; s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	e.chains--
}

// resetChains drops every parked chain.
func (e *Engine) resetChains() {
	if e.chains == 0 {
		// Every slot was emptied as its chains moved on or woke.
		e.chainTime = 0
		return
	}
	for i := range e.slots {
		for _, c := range e.slots[i].q[e.slots[i].head:] {
			c.on, c.fn = false, nil
		}
		clear(e.slots[i].q)
		e.slots[i].q, e.slots[i].head = e.slots[i].q[:0], 0
	}
	e.chains, e.chainTime = 0, 0
}
