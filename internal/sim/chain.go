package sim

// Chain is a parked periodic chain of events: events that would each do
// nothing but schedule the next one, a fixed step later, until something
// outside the chain changes what they would see. A spin-wait reloading a
// flag from its own cache is such a chain (see internal/machine).
//
// A parked chain costs the engine nothing until it is woken: its events
// are not stored, stepped or counted, since Park fixes them all. Event 0
// is due step0 cycles after the Park and event j step[j%2] after event j-1,
// so the engine finds the k-th by arithmetic. What it cannot find so is an
// event's place among real events of its own cycle. In the order Step
// keeps, each event would be scheduled by its predecessor, so it ranks by
// the sequence number the predecessor's run would have given it: the
// counter's value at the predecessor's place. Wake reads that place from a
// record of the events the engine ran while chains were parked, and makes
// the first chain event after the running one real, in the very place in
// the (time, seq) order that the unparked chain's event would have held.
// Parked chains alone keep nothing running: with no real event pending,
// Step reports an empty queue.
//
// A Chain is owned by its caller (it is meant to be embedded, so parking
// allocates nothing) and is parked on at most one engine at a time.
type Chain struct {
	d   chainDesc
	at  Time   // set by Wake: when the event made real is due
	sig uint64 // and the sequence number it ranks by
	n   uint64 // and how many events passed virtually before it
	fn  func() // the event made real runs fn
	on  bool   // parked or woken, and not yet run

	// The live chains (parked or woken) in the order they parked.
	prev, next *Chain
}

// Passed returns how many of the chain's events passed virtually before
// the one Wake made real. Wake sets it.
func (c *Chain) Passed() uint64 { return c.n }

// Due returns when the event Wake made real is due. Wake sets it.
func (c *Chain) Due() Time { return c.at }

// chainDesc is what Park fixes of a chain: all its events' times, and
// the sequence number of event 0, which ranks as an event scheduled by
// the Park.
type chainDesc struct {
	park Time
	seq  uint64
	step [2]Time
}

// due returns when event j is due.
func (d *chainDesc) due(j uint64) Time {
	t := d.park + d.step[0] + Time(j/2)*(d.step[0]+d.step[1])
	if j%2 == 1 {
		t += d.step[1]
	}
	return t
}

// index returns the first event due at or after t.
func (d *chainDesc) index(t Time) uint64 {
	a := d.park + d.step[0]
	if t <= a {
		return 0
	}
	p := d.step[0] + d.step[1]
	j, r := 2*uint64((t-a)/p), (t-a)%p
	switch {
	case r == 0:
		return j
	case r <= d.step[1]:
		return j + 1
	}
	return j + 2
}

// A key ranks an event among the events of its cycle. A real event and a
// chain's event 0 rank by their sequence numbers. Any later chain event
// ranks by the counter's value at its predecessor's place: before every
// event scheduled after that place, so before a real event of the same
// number, and after every event scheduled before it. Two such chain
// events of the same number rank as their predecessors did (chainLess).
type key struct {
	seq  uint64
	real bool
	d    *chainDesc // a chain event's chain and index
	j    uint64
}

// keyLess orders two events of one cycle.
func (e *Engine) keyLess(a, b key) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.real || b.real {
		return b.real && !a.real
	}
	return e.chainLess(a.d, a.j, b.d, b.j)
}

// chainLess orders events ja of a and jb of b, both after their chains'
// event 0, due in one cycle and ranked by one number: their predecessors
// took their places with no event scheduled between, so they rank as
// their predecessors do. A predecessor due earlier comes first. Two
// chains whose last two steps agree have run in lockstep since the later
// one's event 0, and chains in lockstep never change order (each passes
// its place to the next event), so they rank as on that cycle, where
// event 0 ranks by its own sequence number. Otherwise the predecessors,
// in one cycle, rank by their own keys, whose steps differ.
func (e *Engine) chainLess(a *chainDesc, ja uint64, b *chainDesc, jb uint64) bool {
	if sa, sb := a.step[ja%2], b.step[jb%2]; sa != sb {
		return sa > sb
	}
	if a.step[(ja-1)%2] == b.step[(jb-1)%2] {
		m := min(ja, jb)
		return e.keyLess(e.key(a, ja-m), e.key(b, jb-m))
	}
	return e.keyLess(e.key(a, ja-1), e.key(b, jb-1))
}

// key returns the key of d's event j, whose predecessor must be due
// before now.
func (e *Engine) key(d *chainDesc, j uint64) key {
	if j == 0 {
		return key{seq: d.seq, real: true}
	}
	return key{seq: e.sigma(d, j), d: d, j: j}
}

// A logEntry records an event the engine ran while chains were live: its
// time, its sequence number and the counter's value when it began. For a
// woken chain's event, before carries woke, and seq numbers the chain in
// fired (offset by firedBase), which holds the number it ranks by.
type logEntry struct {
	at     Time
	seq    uint64
	before uint64
}

// woke marks a woken chain's event in logEntry.before; counters stay
// far below it.
const woke = 1 << 63

// firedChain is a woken chain's event as logged: its chain, its index and
// the number it ranked by, kept after the Chain itself parks again.
type firedChain struct {
	d   chainDesc
	j   uint64
	sig uint64
	at  Time
}

// entryKey returns the key of the i-th logged event.
func (e *Engine) entryKey(i int) key {
	l := &e.log[i]
	if l.before&woke == 0 {
		return key{seq: l.seq, real: true}
	}
	f := &e.fired[int(l.seq)-e.firedBase]
	return key{seq: f.sig, real: f.j == 0, d: &f.d, j: f.j}
}

// cycle returns the first logged event due at or after t, searching back
// from the newest, since wakes look at recent cycles.
func (e *Engine) cycle(t Time) int {
	lo, hi := len(e.log), len(e.log)
	for n := 1; lo > 0 && e.log[lo-1].at >= t; n *= 2 {
		hi, lo = lo, max(lo-n, 0)
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.log[m].at < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// counter returns the counter's value when the i-th logged event began,
// or now if none has.
func (e *Engine) counter(i int) uint64 {
	if i < len(e.log) {
		return e.log[i].before &^ woke
	}
	return e.seq
}

// place returns the counter's value at k's place in cycle t: when the
// first event of t after k began, or when the first event after t did.
func (e *Engine) place(t Time, k key) uint64 {
	i := e.cycle(t)
	for ; i < len(e.log) && e.log[i].at == t; i++ {
		if e.keyLess(k, e.entryKey(i)) {
			break
		}
	}
	return e.counter(i)
}

// placeBound is place for the lowest key numbered s (high false) or the
// highest chain event's key numbered s (high true).
func (e *Engine) placeBound(t Time, s uint64, high bool) uint64 {
	i := e.cycle(t)
	for ; i < len(e.log) && e.log[i].at == t; i++ {
		if k := e.entryKey(i); k.seq > s || k.seq == s && (!high || k.real) {
			break
		}
	}
	return e.counter(i)
}

// sigma returns the number that d's event j (j >= 1, its predecessor due
// before now) ranks by: the counter's value at event j-1's place. That
// place depends on j-1's own number only if its cycle ran an event
// numbered between the counter's values over j-2's cycle; so sigma walks
// back to the latest event whose place its possible numbers all agree on,
// or to event 0, and forward from there.
func (e *Engine) sigma(d *chainDesc, j uint64) uint64 {
	i := j - 1
	var s uint64
	for {
		if i == 0 {
			s = e.place(d.due(0), key{seq: d.seq, real: true})
			break
		}
		t, prev := d.due(i), d.due(i-1)
		lo, hi := e.counter(e.cycle(prev)), e.counter(e.cycle(prev+1))
		if a := e.placeBound(t, lo, false); a == e.placeBound(t, hi, true) {
			s = a
			break
		}
		i--
	}
	for i++; i < j; i++ {
		s = e.place(d.due(i), key{seq: s, d: d, j: i})
	}
	return s
}

// Park parks c as the chain of events the executing event would start by
// scheduling the first of them step0 cycles from now; each event after it
// would schedule the next step1, step0, step1, ... cycles later. Both
// steps must be at least 1.
func (e *Engine) Park(c *Chain, step0, step1 Time) {
	if step0 == 0 || step1 == 0 {
		panic("sim: chain step below 1")
	}
	if c.on {
		panic("sim: parking a chain that is parked")
	}
	*c = Chain{d: chainDesc{park: e.now, seq: e.seq, step: [2]Time{step0, step1}}, on: true}
	e.seq++
	if e.lastChain == nil {
		e.firstChain = c
	} else {
		e.lastChain.next, c.prev = c, e.lastChain
	}
	e.lastChain = c
	e.chains++
}

// Wake makes the parked chain's next event real: the first of its events
// after the executing event (the last one logged) runs fn instead of
// passing virtually, and the chain is then no longer parked. Wake sets c's Passed and Due. Call it at
// most once per Park, and not across a Reset.
func (e *Engine) Wake(c *Chain, fn func()) {
	if !c.on || c.fn != nil {
		panic("sim: waking a chain that is not parked")
	}
	d := &c.d
	k := d.index(e.now)
	s := d.seq
	if d.due(k) == e.now {
		kk := e.key(d, k)
		s = kk.seq
		if e.keyLess(kk, e.entryKey(len(e.log)-1)) {
			s = e.place(e.now, kk)
			k++
		}
	} else if k > 0 {
		s = e.sigma(d, k)
	}
	c.n, c.at, c.sig, c.fn = k, d.due(k), s, fn
	e.woken = append(e.woken, c)
	e.passed += k
}

// Passed returns how many chain events have passed virtually, counted at
// each Wake, since the engine was constructed or last Reset.
func (e *Engine) Passed() uint64 { return e.passed }

// wokenKey returns the key of c's event made real.
func wokenKey(c *Chain) key {
	return key{seq: c.sig, real: c.n == 0, d: &c.d, j: c.n}
}

// firstWoken returns the index in woken of the chain whose event comes
// first, if it comes before ev (nil: no real event pending), or -1.
func (e *Engine) firstWoken(ev *event) int {
	w := -1
	for i, c := range e.woken {
		if w < 0 || c.at < e.woken[w].at ||
			c.at == e.woken[w].at && e.keyLess(wokenKey(c), wokenKey(e.woken[w])) {
			w = i
		}
	}
	if w < 0 || ev == nil {
		return w
	}
	c := e.woken[w]
	if c.at < ev.at || c.at == ev.at && e.keyLess(wokenKey(c), key{seq: ev.seq, real: true}) {
		return w
	}
	return -1
}

// fire runs the woken chain e.woken[w]'s event.
func (e *Engine) fire(w int) {
	c := e.woken[w]
	last := len(e.woken) - 1
	e.woken[w], e.woken[last] = e.woken[last], nil
	e.woken = e.woken[:last]
	e.unlink(c)
	e.executed++
	e.now = c.at
	if e.chains == 0 {
		e.clearLog()
	} else {
		if len(e.log) >= e.trimAt {
			e.trimLog()
		}
		e.fired = append(e.fired, firedChain{d: c.d, j: c.n, sig: c.sig, at: c.at})
		e.record(c.at, uint64(len(e.fired)-1+e.firedBase), woke)
	}
	fn := c.fn
	c.fn, c.on = nil, false
	fn()
}

// record logs the event about to run; mark is woke for a woken chain's.
func (e *Engine) record(at Time, seq, mark uint64) {
	e.log = append(e.log, logEntry{at: at, seq: seq, before: e.seq | mark})
}

// trimLog drops the logged events no live chain can look back to: those
// before the oldest live chain's Park, and before the Park of any woken
// chain whose logged event is kept. A chain's run is when the cut can
// move, so fire calls it, once the log has doubled since the last trim.
func (e *Engine) trimLog() {
	cut, f := e.firstChain.d.park, 0
	for {
		for f < len(e.fired) && e.fired[f].at < cut {
			f++
		}
		low := cut
		for i := range e.fired[f:] {
			low = min(low, e.fired[f+i].d.park)
		}
		if low == cut {
			break
		}
		cut, f = low, 0
	}
	n := copy(e.log, e.log[e.cycle(cut):])
	e.log = e.log[:n]
	n = copy(e.fired, e.fired[f:])
	e.fired = e.fired[:n]
	e.firedBase += f
	e.trimAt = max(2*len(e.log), minTrim)
}

// minTrim is the fewest logged events trimLog is worth running for.
const minTrim = 1024

// clearLog drops every logged event.
func (e *Engine) clearLog() {
	e.log, e.fired, e.firedBase = e.log[:0], e.fired[:0], 0
}

// unlink takes c off the live chains.
func (e *Engine) unlink(c *Chain) {
	if c.prev == nil {
		e.firstChain = c.next
	} else {
		c.prev.next = c.next
	}
	if c.next == nil {
		e.lastChain = c.prev
	} else {
		c.next.prev = c.prev
	}
	c.prev, c.next = nil, nil
	e.chains--
}

// resetChains drops every live chain and the log.
func (e *Engine) resetChains() {
	for c := e.firstChain; c != nil; {
		next := c.next
		c.on, c.fn, c.prev, c.next = false, nil, nil, nil
		c = next
	}
	e.firstChain, e.lastChain, e.chains = nil, nil, 0
	clear(e.woken)
	e.woken = e.woken[:0]
	e.clearLog()
	e.passed = 0
}
