package core

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/cache"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
	"dsm/internal/stats"
)

// txn is the cache controller's single outstanding transaction (the
// processors are in-order and blocking, as in the simulated machine).
type txn struct {
	req     Request
	policy  Policy // the block's, resolved once at Issue
	retries int

	granted  bool // grant/reply received and its effect applied
	needAcks int  // valid once granted
	acks     int
	chainMax int // max serialized chain over grant and ack paths

	// result is the operation outcome, computed when the grant arrives;
	// delivery waits for the invalidation/update acknowledgments.
	result Result
}

// CacheCtl is one node's cache controller: it satisfies processor requests
// locally when it can (the computational power for INV-policy atomic
// primitives lives here), converses with home controllers otherwise, and
// services incoming coherence traffic (invalidations, recalls, updates,
// owner-side CAS comparisons). What to do for each (policy, op) start and
// each incoming message kind is not coded here: it is read from the
// guarded-action tables in internal/proto (CacheStart, CacheRecv), and
// this controller interprets them against the real cache array and mesh.
type CacheCtl struct {
	sys   *System
	node  mesh.NodeID
	cache cache.Cache

	// txn is the controller's only transaction storage: each processor has
	// exactly one outstanding request, so every Issue reuses this struct
	// instead of allocating. pending points at it while a request is in
	// flight and is nil otherwise.
	txn     txn
	pending *txn

	// Preallocated hooks for the per-message hot path: message delivery
	// (recvHook, via Mesh.SendArg), request dispatch after the local
	// controller step (startFn), and delayed responses (sendHook, carrying
	// the reply message as the event payload). Allocated once here so
	// steady-state traffic schedules without building closures.
	recvHook func(any)
	startFn  func()
	sendHook func(any)

	// llHintFail is set when a UNC/UPD load_linked under the limited
	// reservation scheme returned a beyond-the-limit hint; the next
	// store_conditional then fails locally without network traffic.
	llHintFail bool

	// watchFn, when set, is a parked spin's wake hook: receive calls it,
	// and clears it, on the first message for the block at watchBase,
	// before the message takes effect (see Watch).
	watchBase arch.Addr
	watchFn   func()
}

func (c *CacheCtl) init(s *System, n mesh.NodeID) {
	c.sys = s
	c.node = n
	c.cache.Init(s.cfg.Cache) // no lines yet: the cache pages them in on first fill
	c.recvHook = func(a any) { c.receive(a.(*msg)) }
	c.startFn = func() { c.start(&c.txn) }
	c.sendHook = func(a any) {
		m := a.(*msg)
		c.sys.send(c.node, m.dst, m, m.toHome)
	}
}

// reset returns the controller to its post-init state for machine reuse.
// The preallocated hooks and the cache's line pages are kept; the cache is
// emptied by advancing its validity epoch.
func (c *CacheCtl) reset() {
	c.cache.Reset()
	c.pending = nil
	c.llHintFail = false
	c.watchFn = nil
}

// sendLater transmits m to dst one local controller step from now,
// modeling the controller's occupancy, without allocating: the reply
// carries its own routing and rides a (hook, payload) event.
func (c *CacheCtl) sendLater(m *msg, dst mesh.NodeID, toHome bool) {
	m.dst = dst
	m.toHome = toHome
	c.sys.eng.AfterArg(c.sys.cfg.CacheHitTime, c.sendHook, m)
}

// CacheArray exposes the underlying cache (tests and invariant checks).
func (c *CacheCtl) CacheArray() *cache.Cache { return &c.cache }

// Issue starts one processor memory operation. Exactly one operation may be
// outstanding per processor; a second Issue before Done fires panics.
// Issue must be called from the engine's event loop.
func (c *CacheCtl) Issue(req Request) {
	c.open(req)
	c.sys.eng.After(c.sys.cfg.CacheHitTime, c.startFn)
}

// IssueLater is Issue for a caller that runs the start itself: it makes
// req the outstanding transaction and returns the function that starts
// it, to run CacheHitTime cycles later from an event of the caller's, as
// Issue's own event would. A parked spin's wake resumes its load so.
func (c *CacheCtl) IssueLater(req Request) (start func()) {
	c.open(req)
	return c.startFn
}

// open makes req the outstanding transaction.
func (c *CacheCtl) open(req Request) {
	if c.pending != nil {
		panic(fmt.Sprintf("core: node %d issued %v with a request outstanding", c.node, req.Op))
	}
	arch.CheckWordAligned(req.Addr)
	c.sys.counters.Requests++
	if c.sys.tracer != nil {
		c.sys.trace(c.node, "issue", "%v addr=%#x val=%d,%d", req.Op, req.Addr, req.Val, req.Val2)
	}
	t := &c.txn
	*t = txn{req: req, policy: c.sys.PolicyOf(req.Addr)}
	if req.Op.IsAtomic() {
		c.sys.contention.Begin(stats.Location(req.Addr), int(c.node))
	}
	c.pending = t
}

// Watch parks a spinning load of a, which just returned v: if the cache
// holds a's block with v at a, so that every load of a until a message for
// the block arrives would hit and return v, it arranges for wake to run at
// the next message this controller receives for the block, before the
// message takes effect, and reports true. With a tracer installed it
// declines, so traces keep one issue and one completion per load.
func (c *CacheCtl) Watch(a arch.Addr, v arch.Word, wake func()) bool {
	if c.sys.tracer != nil {
		return false
	}
	if l := c.cache.Peek(a); l == nil || l.Word(a) != v {
		return false
	}
	c.watchBase, c.watchFn = arch.BlockBase(a), wake
	return true
}

// SkipHits accounts n loads of a that hit in the cache without being
// issued, as a parked spin's wake does for the loads it skipped: the
// requests, the local hits, their zero-length chains and the line's LRU
// refreshes. Their write-run accesses are no-ops: the spin's first load
// already recorded this processor's read, and no other processor wrote
// the word since, or a message for the block would have woken the spin.
func (c *CacheCtl) SkipHits(a arch.Addr, n uint64) {
	c.sys.counters.Requests += n
	c.sys.counters.LocalHits += n
	c.sys.chains.RecordNAt(int(OpLoad), int(c.sys.PolicyOf(a)), 0, n)
	c.cache.Touch(a, n)
}

// complete finishes the outstanding transaction and delivers the result.
func (c *CacheCtl) complete(t *txn, r Result) {
	if c.pending != t {
		panic("core: completing a transaction that is not pending")
	}
	c.pending = nil
	if t.req.Op.IsAtomic() {
		c.sys.contention.End(stats.Location(t.req.Addr), int(c.node))
	}
	if r.Chain == 0 {
		c.sys.counters.LocalHits++
	}
	if c.sys.tracer != nil {
		c.sys.trace(c.node, "complete", "%v addr=%#x value=%d ok=%v chain=%d",
			t.req.Op, t.req.Addr, r.Value, r.OK, r.Chain)
	}
	c.sys.chains.RecordAt(int(t.req.Op), int(t.policy), r.Chain)
	if t.req.Done != nil {
		t.req.Done(r)
	}
}

// start dispatches a (possibly retried) request by interpreting the
// cache-start table entry for the block's policy and the request's op:
// perform the entry's cache probe, find the first rule whose guard holds,
// and run its actions in order.
func (c *CacheCtl) start(t *txn) {
	spec := &proto.CacheStart[t.policy][t.req.Op]
	var l *cache.Line
	switch spec.Prep {
	case proto.PrepLookup:
		l = c.cache.Lookup(t.req.Addr)
	case proto.PrepPeek:
		l = c.cache.Peek(t.req.Addr)
	}
	c.runRules(spec.Rules, t, nil, l)
}

// request constructs the base request message for the transaction.
func (c *CacheCtl) request(t *txn, kind msgKind) *msg {
	m := c.sys.newMsg()
	*m = msg{
		kind:      kind,
		addr:      t.req.Addr,
		requester: c.node,
		op:        t.req.Op,
		val:       t.req.Val,
		val2:      t.req.Val2,
	}
	return m
}

func (c *CacheCtl) toHome(t *txn, kind msgKind) {
	m := c.request(t, kind)
	c.sys.send(c.node, c.sys.HomeOf(t.req.Addr), m, true)
}

// dropINV implements drop_copy for an INV-policy block: a dirty line is
// written back, a shared line sends a replacement hint; both self-invalidate.
func (c *CacheCtl) dropINV(a arch.Addr) {
	v := c.cache.Invalidate(a)
	if v == nil {
		return
	}
	c.evictVictim(v)
}

// evictVictim notifies the home about a line displaced by a fill, a
// drop_copy, or an eviction.
func (c *CacheCtl) evictVictim(v *cache.Victim) {
	home := c.sys.HomeOf(v.Base)
	m := c.sys.newMsg()
	*m = msg{addr: v.Base, requester: c.node}
	if v.State == cache.ExclusiveRW {
		m.kind = mWB
		m.data = v.Data
		m.hasData = true
		c.sys.counters.Writebacks++
	} else {
		m.kind = mDropS
	}
	c.sys.send(c.node, home, m, true)
}

// insert fills a line, handling any displaced victim.
func (c *CacheCtl) insert(a arch.Addr, st cache.State, data arch.BlockData) *cache.Line {
	l, victim := c.cache.Insert(a, st, data)
	if victim != nil {
		c.evictVictim(victim)
	}
	return l
}

// localExec performs an operation on a locally held exclusive line and
// completes the transaction: this is the cache controller's "computational
// power" of the INV implementations.
func (c *CacheCtl) localExec(t *txn, l *cache.Line) {
	r := c.execOnLine(t.req, l)
	r.Chain = t.chainMax
	c.complete(t, r)
}

// execOnLine applies an operation to an exclusive line and returns its
// result (Chain left zero for the caller to fill in).
func (c *CacheCtl) execOnLine(req Request, l *cache.Line) Result {
	old := l.Word(req.Addr)
	r := Result{Value: old, OK: true}
	wrote := false
	switch req.Op {
	case OpLoadExclusive:
		// Value read; exclusivity already held.
	case OpStore:
		l.SetWord(req.Addr, req.Val)
		wrote = true
	case OpFetchAdd:
		l.SetWord(req.Addr, old+req.Val)
		wrote = true
	case OpFetchStore:
		l.SetWord(req.Addr, req.Val)
		wrote = true
	case OpFetchOr:
		l.SetWord(req.Addr, old|req.Val)
		wrote = true
	case OpTestAndSet:
		l.SetWord(req.Addr, 1)
		wrote = true
	case OpCAS:
		if old == req.Val {
			l.SetWord(req.Addr, req.Val2)
			wrote = true
		} else {
			r.OK = false
		}
	case OpSC:
		l.SetWord(req.Addr, req.Val)
		wrote = true
		c.cache.ClearReservation()
	case OpLL:
		c.cache.SetReservation(req.Addr)
	default:
		panic(fmt.Sprintf("core: execOnLine of %v", req.Op))
	}
	c.sys.trackAccess(req.Addr, c.node, req.Op, wrote)
	return r
}

// retry re-dispatches a NAKed transaction after a backoff proportional to
// the retry count, staggered by node id to avoid lockstep retries.
func (c *CacheCtl) retry(t *txn) {
	c.sys.counters.Retries++
	t.retries++
	n := t.retries
	if n > 8 {
		n = 8
	}
	delay := c.sys.cfg.RetryDelay + sim.Time(int(c.node)%8)*2 + sim.Time(n)*8
	// Reset per-attempt reply state; acks never span attempts because a
	// NAKed request changed no directory state.
	t.granted = false
	t.needAcks = 0
	t.acks = 0
	c.sys.network.retry(c, delay)
}

// receive dispatches an incoming protocol message by interpreting its
// cache-receive table entry: resolve the outstanding transaction when the
// entry marks the kind as a reply, perform the entry's cache probe, and
// run the first matching rule. The cache controller consumes every message
// it is delivered (responses are built eagerly, not captured in
// callbacks), so the message is recycled when the rule finishes. A spin
// parked on the message's block is woken first (see Watch).
func (c *CacheCtl) receive(m *msg) {
	if c.watchFn != nil && arch.BlockBase(m.addr) == c.watchBase {
		wake := c.watchFn
		c.watchFn = nil
		wake()
	}
	spec := &proto.CacheRecv[m.kind]
	if len(spec.Rules) == 0 {
		panic(fmt.Sprintf("core: cache %d received %v", c.node, m.kind))
	}
	var t *txn
	if spec.NeedTxn {
		t = c.mustPending(m)
	}
	var l *cache.Line
	if spec.Prep == proto.PrepPeek {
		l = c.cache.Peek(m.addr)
	}
	c.runRules(spec.Rules, t, m, l)
	c.sys.freeMsg(m)
}

// mustPending returns the outstanding transaction, which must exist and
// match the reply's address: the table entries marked NeedTxn are replies,
// and the protocol delivers replies only for the single outstanding
// request.
func (c *CacheCtl) mustPending(m *msg) *txn {
	if c.pending == nil {
		panic(fmt.Sprintf("core: node %d got %v with no pending txn", c.node, m.kind))
	}
	if arch.BlockBase(c.pending.req.Addr) != arch.BlockBase(m.addr) {
		panic(fmt.Sprintf("core: node %d got %v for %#x while waiting on %#x",
			c.node, m.kind, m.addr, c.pending.req.Addr))
	}
	return c.pending
}

// runRules fires the first rule whose guard holds and executes its actions
// left to right. Falling off the end is a protocol error: the tables must
// enumerate every reachable case.
func (c *CacheCtl) runRules(rules []proto.Rule, t *txn, m *msg, l *cache.Line) {
	for i := range rules {
		if !c.guard(rules[i].Guard, t, m, l) {
			continue
		}
		for _, a := range rules[i].Actions {
			l = c.apply(a, t, m, l)
		}
		return
	}
	if m != nil {
		panic(fmt.Sprintf("core: cache %d: no rule for %v", c.node, m.kind))
	}
	panic(fmt.Sprintf("core: cache %d: no rule to start %v", c.node, t.req.Op))
}

// guard evaluates one predicate against the controller's local view: the
// probed line l, the outstanding transaction t, the incoming message m,
// and the system configuration. Guards a table entry cannot reach may be
// passed nil operands.
func (c *CacheCtl) guard(g proto.CacheGuard, t *txn, m *msg, l *cache.Line) bool {
	switch g {
	case proto.GAlways:
		return true
	case proto.GHit:
		return l != nil
	case proto.GOwned:
		return l != nil && l.State == cache.ExclusiveRW
	case proto.GNotOwned:
		return l == nil || l.State != cache.ExclusiveRW
	case proto.GLLHintFail:
		return c.llHintFail
	case proto.GNoResv:
		return !c.cache.ReservedOn(t.req.Addr)
	case proto.GCASRemote:
		return c.sys.cfg.CAS != CASPlain
	case proto.GCASMatch:
		return l.Word(m.addr) == m.forwardVal
	case proto.GCASShare:
		return c.sys.cfg.CAS == CASShare
	case proto.GOpRead:
		return t.req.Op == OpLoad || t.req.Op == OpLoadExclusive
	case proto.GOpLL:
		return t.req.Op == OpLL
	case proto.GOpSC:
		return t.req.Op == OpSC
	}
	panic(fmt.Sprintf("core: cache %d: unknown guard %v", c.node, g))
}

// apply executes one table action. It returns the (possibly re-bound)
// probed line so a fill action can hand the fresh line to the actions
// after it.
func (c *CacheCtl) apply(a proto.Act, t *txn, m *msg, l *cache.Line) *cache.Line {
	switch a.Do {
	case proto.ACompleteOK:
		c.complete(t, Result{OK: true})

	case proto.ACompleteFail:
		c.complete(t, Result{OK: false})

	case proto.ACompleteHit:
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, false)
		c.complete(t, Result{Value: l.Word(t.req.Addr), OK: true})

	case proto.ACountSCFail:
		c.sys.counters.SCFailLocal++

	case proto.AClearLLHint:
		c.llHintFail = false

	case proto.ASetResv:
		c.cache.SetReservation(t.req.Addr)

	case proto.ASendHome:
		c.toHome(t, a.Msg)

	case proto.ALocalExec:
		c.localExec(t, l)

	case proto.AEvictLine:
		c.dropINV(t.req.Addr)

	case proto.ADropShared:
		c.cache.Invalidate(t.req.Addr)
		d := c.request(t, mDropS)
		c.sys.send(c.node, c.sys.HomeOf(t.req.Addr), d, true)

	case proto.AInvalLine:
		// Invalidate if present (this also clears a matching LL
		// reservation); our copy may already be gone if our drop or
		// replacement hint is still in flight.
		v := c.cache.Invalidate(m.addr)
		if v != nil && v.State == cache.ExclusiveRW {
			panic(fmt.Sprintf("core: node %d invalidated while owning %#x", c.node, m.addr))
		}

	case proto.AAckRequester:
		ack := c.sys.newMsg()
		*ack = msg{kind: a.Msg, addr: m.addr, requester: m.requester, chain: m.chain}
		c.sendLater(ack, m.requester, false)

	case proto.ASurrenderE:
		reply := c.sys.newMsg()
		*reply = msg{kind: mWBRecall, addr: m.addr, requester: m.requester,
			data: l.Data, hasData: true, chain: m.chain}
		c.cache.Invalidate(m.addr)
		c.sys.counters.Writebacks++
		c.sendLater(reply, c.sys.HomeOf(m.addr), true)

	case proto.ASurrenderS:
		reply := c.sys.newMsg()
		*reply = msg{kind: mWBShare, addr: m.addr, requester: m.requester,
			data: l.Data, hasData: true, chain: m.chain}
		c.cache.Downgrade(m.addr)
		c.sys.counters.Writebacks++
		c.sendLater(reply, c.sys.HomeOf(m.addr), true)

	case proto.ASendRecallNak:
		// Our write-back or drop is in flight; tell the home immediately to
		// wait for it.
		nak := c.sys.newMsg()
		*nak = msg{kind: mRecallNak, addr: m.addr, requester: m.requester, chain: m.chain}
		c.sys.send(c.node, c.sys.HomeOf(m.addr), nak, true)

	case proto.ACASGive:
		// Comparison succeeds: surrender the line; the home completes the
		// grant and the requester performs the swap on its new exclusive
		// copy, exactly as in plain INV.
		c.cache.Invalidate(m.addr)
		c.sys.counters.Writebacks++
		wb := c.sys.newMsg()
		*wb = msg{kind: mWBRecall, addr: m.addr, requester: m.requester,
			data: l.Data, hasData: true, chain: m.chain}
		c.sendLater(wb, c.sys.HomeOf(m.addr), true)

	case proto.ACASKeepShare:
		// INVs failure: the line stays put read-only; the requester gets a
		// read-only copy via the home.
		c.cache.Downgrade(m.addr)
		c.sys.counters.Writebacks++
		wb := c.sys.newMsg()
		*wb = msg{kind: mWBShare, addr: m.addr, requester: m.requester,
			data: l.Data, hasData: true, chain: m.chain}
		c.sendLater(wb, c.sys.HomeOf(m.addr), true)

	case proto.ACASDeny:
		// INVd failure: deny directly; separately release the home's busy
		// state.
		fail := c.sys.newMsg()
		*fail = msg{kind: mCASFail, addr: m.addr, requester: m.requester,
			val: l.Word(m.addr), chain: m.chain}
		c.sendLater(fail, m.requester, false)
		rel := c.sys.newMsg()
		*rel = msg{kind: mCASRel, addr: m.addr, requester: m.requester}
		c.sendLater(rel, c.sys.HomeOf(m.addr), true)

	case proto.AApplyUpdate:
		l.SetWord(m.addr, m.updWord)

	case proto.ACountNak:
		c.sys.counters.Naks++

	case proto.ARetry:
		c.retry(t)

	case proto.ABumpAck:
		t.acks++

	case proto.AMergeChain:
		if m.chain > t.chainMax {
			t.chainMax = m.chain
		}

	case proto.AGrant:
		t.granted = true
		t.needAcks = m.acks

	case proto.AFillShared:
		c.insert(m.addr, cache.SharedRO, m.data)

	case proto.AFillIfData:
		if m.hasData {
			// INVs / UPD: a read-only copy accompanies the reply. Fill it
			// now: update messages from later writes may arrive before the
			// acknowledgments for ours do, and they must land on this copy,
			// not under it.
			c.insert(m.addr, cache.SharedRO, m.data)
		}

	case proto.AFillExclusive:
		// Fill and apply at grant time: the data is coherent now and a
		// recall may arrive before the invalidation acks do.
		l = c.insert(m.addr, cache.ExclusiveRW, m.data)

	case proto.ASCApply:
		// The home validated the reservation and invalidated the other
		// sharers; apply the conditional store.
		l.SetWord(t.req.Addr, t.req.Val)
		c.cache.ClearReservation()
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, true)
		t.result = Result{Value: m.data[arch.WordIndex(t.req.Addr)], OK: true}

	case proto.AExecLine:
		t.result = c.execOnLine(t.req, l)

	case proto.AHintIfLL:
		if t.req.Op == OpLL && m.hint {
			c.llHintFail = true
		}

	case proto.AStashReply:
		wrote := t.req.Op.Writes() && m.ok
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, wrote)
		t.result = Result{Value: m.val, OK: m.ok, Serial: m.serial}

	case proto.ACompleteData:
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, false)
		c.complete(t, Result{Value: m.data[arch.WordIndex(t.req.Addr)], OK: true, Chain: t.chainMax})

	case proto.ACompleteCASFail:
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, false)
		c.complete(t, Result{Value: m.val, OK: false, Chain: t.chainMax})

	case proto.ACompleteSCFail:
		c.cache.ClearReservation()
		c.complete(t, Result{OK: false, Chain: m.chain})

	case proto.ACompleteReply:
		wrote := t.req.Op.Writes() && m.ok
		c.sys.trackAccess(t.req.Addr, c.node, t.req.Op, wrote)
		c.complete(t, Result{Value: m.val, OK: m.ok, Serial: m.serial, Chain: t.chainMax})

	case proto.AMaybeFinish:
		c.maybeFinishGranted(t)

	default:
		panic(fmt.Sprintf("core: cache %d: unknown action %v", c.node, a.Do))
	}
	return l
}

// maybeFinishGranted delivers the already-computed result once the grant
// and all invalidation/update acknowledgments have arrived.
func (c *CacheCtl) maybeFinishGranted(t *txn) {
	if !t.granted || t.acks < t.needAcks {
		return
	}
	if t.acks > t.needAcks {
		panic("core: more acks than sharers")
	}
	r := t.result
	r.Chain = t.chainMax
	c.complete(t, r)
}
