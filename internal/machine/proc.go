package machine

import (
	"iter"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/mesh"
	"dsm/internal/sim"
)

// actionKind classifies what a processor program asks of the engine.
type actionKind uint8

const (
	actIssue   actionKind = iota
	actSpin               // a SpinWhile episode: loads until the comparison fails
	actCompute            // a compute delay flushed by a second Compute
	actBarrier
	actDone
)

// action is what a program yields to the engine. delay is the compute time
// the program ran past before yielding it; the action takes effect once
// that has elapsed. An actSpin's req is the load it repeats, completing
// through spinDone, and cmp, x and gap are SpinWhile's arguments.
type action struct {
	kind  actionKind
	cmp   Cmp
	x     arch.Word
	req   core.Request
	delay sim.Time
	gap   sim.Time
}

// Cmp is the comparison SpinWhile tests each loaded value v against its
// operand x; the spin continues while it holds.
type Cmp uint8

const (
	Less     Cmp = iota // v < x
	Equal               // v == x
	NotEqual            // v != x
)

func (c Cmp) holds(v, x arch.Word) bool {
	switch c {
	case Less:
		return v < x
	case Equal:
		return v == x
	case NotEqual:
		return v != x
	}
	panic("machine: invalid Cmp")
}

// ProcStats aggregates one processor's activity over its programs.
type ProcStats struct {
	Ops           uint64   // memory operations issued
	MemoryCycles  sim.Time // cycles stalled on memory operations
	ComputeCycles sim.Time // cycles spent in Compute
	BarrierCycles sim.Time // cycles waiting at the MINT barrier
	Barriers      uint64   // barrier episodes joined
}

// Proc is a simulated processor as seen by application code. All methods
// except ID must be called from the program function executing on this
// processor; each memory operation and barrier suspends the program for its
// simulated duration, while a compute delay is carried to the next of them.
type Proc struct {
	m    *Machine
	node mesh.NodeID
	co   *coro

	// res is the result the engine hands the program on resumption: step
	// stores it, then switches to the coroutine, which reads it.
	res core.Result
	rng sim.RNG

	// done, spinDoneFn, resumeFn and dispatchFn are preallocated once per
	// Proc so the per-operation hot path (one Done callback per memory
	// reference, one dispatch event per compute delay) schedules without
	// allocating a closure.
	done       func(core.Result)
	spinDoneFn func(core.Result)
	resumeFn   func()
	dispatchFn func()
	wakeFn     func()
	wokenFn    func()

	// lag is the compute delay the program has run past without yielding;
	// the next action it yields carries it. pending is the action waiting
	// out its delay, which dispatchFn dispatches; during a spin episode it
	// is the actSpin, and spinAt is when its current load was issued.
	lag     sim.Time
	pending action
	spinAt  sim.Time
	// chain holds a parked spin's events (see park), and woken, once it is
	// woken, what its real event runs: the load start or the dispatch.
	chain sim.Chain
	woken func()
	// held is a panic the program raised with a compute delay pending; the
	// dispatch event ending the delay re-raises it.
	held any

	lastSerial arch.Word // serial returned by the most recent load_linked
	stats      ProcStats
}

// coro is a processor's resident coroutine: one iter.Pull coroutine whose
// body runs program after program, so it is created once and keeps its
// grown stack across runs and Resets. The suspended coroutine reaches only
// this box, never the Machine: p and prog are set only while a program
// runs, so a machine dropped between runs becomes unreachable, and the
// cleanup New registers can stop its coroutines.
type coro struct {
	next  func() (action, bool) // engine side: run the program to its next action
	stop  func()
	yield func(action) bool // program side: hand an action to the engine

	p    *Proc
	prog func(*Proc)
}

// stopped is the panic that unwinds a program whose coroutine was stopped
// mid-run; the coroutine body recovers it.
type stopped struct{}

func (c *coro) body(yield func(action) bool) {
	c.yield = yield
	for {
		if !yield(c.runProgram()) {
			return
		}
	}
}

// runProgram runs one program and returns its actDone, which carries any
// compute delay the program ended with. A panic raised with a delay
// pending is held for the dispatch event, so it reaches RunEach's caller
// at the simulated time the delay ends.
func (c *coro) runProgram() (done action) {
	p := c.p
	defer func() {
		c.p, c.prog = nil, nil
		done = action{kind: actDone, delay: p.lag}
		p.lag = 0
		if r := recover(); r != nil {
			if _, ok := r.(stopped); ok {
				return
			}
			if done.delay == 0 {
				panic(r)
			}
			p.held = r
		}
	}()
	c.prog(p)
	return
}

// haltAll stops every coroutine in the slab, unwinding any suspended
// program, and clears the boxes; each Proc's next begin starts a fresh
// coroutine. It is the cleanup New registers on each Machine, and RunEach's
// unwind path.
func haltAll(cs []coro) {
	for i := range cs {
		if cs[i].stop != nil {
			cs[i].stop()
		}
		cs[i] = coro{}
	}
}

func (p *Proc) init(m *Machine, n mesh.NodeID, co *coro) {
	p.m = m
	p.node = n
	p.co = co
	p.done = func(res core.Result) { p.step(res) }
	p.spinDoneFn = p.spinDone
	p.resumeFn = func() { p.step(core.Result{}) }
	p.dispatchFn = func() { p.dispatch(p.pending) }
	p.wakeFn = p.wake
	p.wokenFn = func() { p.woken() }
}

// begin prepares the processor for a program. The program starts at the
// engine's first resume.
func (p *Proc) begin(prog func(*Proc), seed uint64) {
	var base sim.RNG
	base.Seed(seed)
	base.ForkInto(&p.rng, uint64(p.node))
	p.lastSerial = 0
	p.held = nil
	p.pending = action{}
	if p.co.next == nil {
		p.co.next, p.co.stop = iter.Pull(p.co.body)
	}
	p.co.p, p.co.prog = p, prog
}

// step hands r to the program, runs it on its coroutine until its next
// action, and dispatches that action, at once or, when it carries a compute
// delay, from an event once the delay has elapsed. That event takes the
// time and sequence number a resume event after the delay would, so the
// simulation is the same as if the program had yielded at the delay. step
// runs on the engine's goroutine, inside an event; control passes by
// direct coroutine switch, so exactly one of engine and program runs at
// any instant.
func (p *Proc) step(r core.Result) {
	p.res = r
	act, _ := p.co.next()
	if act.delay == 0 {
		p.dispatch(act)
		return
	}
	p.pending = act
	p.m.eng.After(act.delay, p.dispatchFn)
}

// dispatch puts a yielded action into effect.
func (p *Proc) dispatch(act action) {
	switch act.kind {
	case actIssue:
		req := act.req
		req.Done = p.done
		p.m.sys.Cache(p.node).Issue(req)
	case actSpin:
		p.pending, p.spinAt = act, p.m.eng.Now()
		p.m.sys.Cache(p.node).Issue(act.req)
	case actCompute:
		p.step(core.Result{})
	case actBarrier:
		p.m.arriveBarrier(p)
	case actDone:
		if r := p.held; r != nil {
			p.held = nil
			panic(r)
		}
		p.m.procDone()
	}
}

// spinDone completes one load of a spin episode, doing on the engine side
// what SpinWhile's loop would do on resuming: count the load, then either
// resume the program with the value, or count the gap and reissue the load
// gap cycles later from the same dispatch event a yielded load would use,
// or park the spin until its next load could see a change.
func (p *Proc) spinDone(r core.Result) {
	s := &p.pending
	p.stats.Ops++
	p.stats.MemoryCycles += p.m.eng.Now() - p.spinAt
	if !s.cmp.holds(r.Value, s.x) {
		p.step(r)
		return
	}
	p.stats.ComputeCycles += s.gap
	if r.Chain == 0 && p.park(r.Value) {
		return
	}
	if s.gap == 0 {
		p.dispatch(*s)
		return
	}
	p.m.eng.After(s.gap, p.dispatchFn)
}

// park stops a spin whose load returned v without leaving the node, if the
// cache still holds the line: every later load would hit and return v
// until the cache receives a message for the block, so none is scheduled.
// The engine runs the spin's events virtually instead (see sim.Chain): a
// dispatch gap cycles after each load and its load CacheHitTime cycles
// after that, or with no gap just the loads; and the cache's watch on the
// block calls wake when a message for it arrives.
func (p *Proc) park(v arch.Word) bool {
	h, gap := p.m.cfg.CacheHitTime, p.pending.gap
	if h == 0 || !p.m.sys.Cache(p.node).Watch(p.pending.req.Addr, v, p.wakeFn) {
		return false
	}
	if gap == 0 {
		p.m.eng.Park(&p.chain, h, h)
	} else {
		p.m.eng.Park(&p.chain, gap, h)
	}
	return true
}

// wake resumes a parked spin from inside the delivery of a message for its
// block, before the message takes effect. The chain's next event, due
// after the delivery, becomes real, and the spin goes on load by load;
// the chain events that passed virtually before this delivery are
// accounted in bulk: their loads all hit and returned the parked value.
func (p *Proc) wake() {
	s := &p.pending
	h, gap := p.m.cfg.CacheHitTime, s.gap
	p.m.eng.Wake(&p.chain, p.wokenFn)
	n := p.chain.Passed()
	loads := n
	if gap > 0 {
		loads /= 2
	}
	cc := p.m.sys.Cache(p.node)
	if loads > 0 {
		p.stats.Ops += loads
		p.stats.MemoryCycles += sim.Time(loads) * h
		p.stats.ComputeCycles += sim.Time(loads) * gap
		cc.SkipHits(s.req.Addr, loads)
	}
	// The next event is a load start, CacheHitTime after its dispatch (or
	// the load before it), or a dispatch, gap cycles after a load.
	if gap == 0 || n%2 == 1 {
		p.spinAt = p.chain.Due() - h
		p.woken = cc.IssueLater(s.req)
		return
	}
	p.woken = p.dispatchFn
}

// await yields a, carrying the pending compute delay, suspends the program
// until the engine resumes it, and returns the result the engine handed
// over. If the coroutine was stopped instead, the program unwinds.
func (p *Proc) await(a action) core.Result {
	a.delay, p.lag = p.lag, 0
	if !p.co.yield(a) {
		panic(stopped{})
	}
	return p.res
}

// do issues one memory operation and blocks (in simulated time) until it
// completes.
func (p *Proc) do(req core.Request) core.Result {
	start := p.Now()
	r := p.await(action{kind: actIssue, req: req})
	p.stats.Ops++
	p.stats.MemoryCycles += p.m.eng.Now() - start
	return r
}

// Stats returns the processor's accumulated activity counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// ID returns the processor number.
func (p *Proc) ID() int { return int(p.node) }

// Now returns the processor's current simulated time: the engine's time
// plus any compute delay the program has run past (see Compute), which is
// the time the engine would show had the program waited out the delay.
// Programs must timestamp with Now, never Machine.Now, which trails it
// after a Compute; state shared between programs may rely on these
// timestamps but not on host order (see Compute).
func (p *Proc) Now() sim.Time { return p.m.eng.Now() + p.lag }

// Rand returns this processor's private deterministic random stream (used
// for backoff jitter and workload generation).
func (p *Proc) Rand() *sim.RNG { return &p.rng }

// Compute consumes n cycles of local computation. It does not suspend the
// program: the delay is recorded and carried by the program's next timed
// action (memory operation, barrier, a second Compute, or the end of the
// program), which takes effect n cycles later, exactly as if the program
// had waited. Like MINT, which enters the back end only at timed actions,
// the program runs ahead of the engine in host order until that action:
// its code between a Compute and the next action runs as soon as the
// Compute is reached, possibly before other processors' code at simulated
// times inside the delay. Host-side Go state shared between programs must
// therefore be order-insensitive there (commutative counters, or histories
// whose checkers use only the recorded timestamps), or be touched only
// with no compute delay pending. The library's shared state all meets this:
// check.History.Record appends timestamped ops whose order the checkers
// ignore; the MS queue workload calls MSQueue.AcquireNode only at the start
// of a program or after a barrier or a completed dequeue; and the
// synthetic runner's updates, the workload runner's ops and RCU's torn-read
// counts are plain increments.
func (p *Proc) Compute(n sim.Time) {
	if n == 0 {
		return
	}
	p.stats.ComputeCycles += n
	if p.lag > 0 {
		p.await(action{kind: actCompute})
	}
	p.lag = n
}

// Barrier joins the MINT-style constant-time barrier across all processors
// running the current program. It enforces sharing patterns in the
// synthetic applications without perturbing timing (resumes one cycle
// after the last arrival).
func (p *Proc) Barrier() {
	start := p.Now()
	p.await(action{kind: actBarrier})
	p.stats.Barriers++
	p.stats.BarrierCycles += p.m.eng.Now() - start
}

// Do issues a raw request (escape hatch exposing the full Result,
// including the serialized-message chain of Table 1).
func (p *Proc) Do(req core.Request) core.Result { return p.do(req) }

// Load performs an ordinary load.
func (p *Proc) Load(a arch.Addr) arch.Word {
	return p.do(core.Request{Op: core.OpLoad, Addr: a}).Value
}

// SpinWhile spins on a until the loaded value v no longer satisfies
// cmp(v, x), and returns that value. It is exactly
//
//	v := p.Load(a)
//	for cmp(v, x) {
//		p.Compute(gap)
//		v = p.Load(a)
//	}
//
// in simulated time, ProcStats and every simulated count, but the program
// yields once per spin episode instead of once per load: the engine issues
// each load, tests the comparison at its completion, and schedules the
// next load gap cycles later itself, as the loop's deferred Compute would
// have. While the loaded line sits unchanged in the cache the spin parks
// and its loads run as uncounted virtual events (see park), so the engine
// executes fewer events than the loop; a spin nobody releases then ends
// the run as a deadlock instead of spinning forever. A spin whose gap is
// drawn from Rand each iteration (backoff, jitter) cannot be expressed
// this way and stays a Go loop.
func (p *Proc) SpinWhile(a arch.Addr, cmp Cmp, x arch.Word, gap sim.Time) arch.Word {
	return p.await(action{
		kind: actSpin,
		req:  core.Request{Op: core.OpLoad, Addr: a, Done: p.spinDoneFn},
		cmp:  cmp, x: x, gap: gap,
	}).Value
}

// Store performs an ordinary store.
func (p *Proc) Store(a arch.Addr, v arch.Word) {
	p.do(core.Request{Op: core.OpStore, Addr: a, Val: v})
}

// LoadExclusive reads a word while acquiring exclusive access to its block
// (the paper's auxiliary instruction; under INV it makes an immediately
// following compare_and_swap a local hit).
func (p *Proc) LoadExclusive(a arch.Addr) arch.Word {
	return p.do(core.Request{Op: core.OpLoadExclusive, Addr: a}).Value
}

// DropCopy self-invalidates the block containing a (writing back dirty
// data), reducing the serialized messages of a subsequent access by
// another processor.
func (p *Proc) DropCopy(a arch.Addr) {
	p.do(core.Request{Op: core.OpDropCopy, Addr: a})
}

// FetchAdd atomically adds delta and returns the previous value.
func (p *Proc) FetchAdd(a arch.Addr, delta arch.Word) arch.Word {
	return p.do(core.Request{Op: core.OpFetchAdd, Addr: a, Val: delta}).Value
}

// FetchStore atomically swaps in v and returns the previous value.
func (p *Proc) FetchStore(a arch.Addr, v arch.Word) arch.Word {
	return p.do(core.Request{Op: core.OpFetchStore, Addr: a, Val: v}).Value
}

// TestAndSet atomically sets the word to 1 and returns the previous value.
func (p *Proc) TestAndSet(a arch.Addr) arch.Word {
	return p.do(core.Request{Op: core.OpTestAndSet, Addr: a}).Value
}

// CompareAndSwap installs new if the word equals expect, reporting success.
func (p *Proc) CompareAndSwap(a arch.Addr, expect, new arch.Word) bool {
	return p.do(core.Request{Op: core.OpCAS, Addr: a, Val: expect, Val2: new}).OK
}

// LoadLinked reads a word and sets a reservation. Under the serial-number
// scheme the returned serial is remembered for the next StoreConditional.
func (p *Proc) LoadLinked(a arch.Addr) arch.Word {
	r := p.do(core.Request{Op: core.OpLL, Addr: a})
	p.lastSerial = r.Serial
	return r.Value
}

// LoadLinkedFull exposes the serial number along with the loaded value.
func (p *Proc) LoadLinkedFull(a arch.Addr) core.Result {
	r := p.do(core.Request{Op: core.OpLL, Addr: a})
	p.lastSerial = r.Serial
	return r
}

// StoreConditional writes v if the reservation from the most recent
// LoadLinked still holds, reporting success.
func (p *Proc) StoreConditional(a arch.Addr, v arch.Word) bool {
	return p.do(core.Request{Op: core.OpSC, Addr: a, Val: v, Val2: p.lastSerial}).OK
}

// StoreConditionalSerial is a bare store_conditional carrying an explicit
// expected serial number (serial-number reservation scheme only). The
// paper notes this saves a memory access in algorithms like the MCS lock
// release.
func (p *Proc) StoreConditionalSerial(a arch.Addr, v, serial arch.Word) bool {
	return p.do(core.Request{Op: core.OpSC, Addr: a, Val: v, Val2: serial}).OK
}
