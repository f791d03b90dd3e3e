package core

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/dir"
	"dsm/internal/mem"
	"dsm/internal/mesh"
	"dsm/internal/proto"
)

// homeTxn is the home controller's per-block transient state: an
// outstanding recall (awaiting data or a negative answer from the owner),
// or a wait for an in-flight write-back after a recall found the owner's
// copy already gone. The retained request message (orig) is owned by this
// record until it is replayed or freed.
type homeTxn struct {
	active bool        // a transaction is in flight: the block is busy
	owner  mesh.NodeID // node the data must come from
	orig   *msg        // request to replay when the data arrives; nil for awaitWB
}

// HomeCtl is one node's memory/directory controller: the serialization
// point for its share of the address space, and the locus of computational
// power for the UPD and UNC implementations of the atomic primitives. Like
// the cache controller, it carries no protocol logic of its own: requests
// and data returns are dispatched through the guarded-action tables in
// internal/proto (HomeReq, HomeRet), interpreted against the real
// directory and memory module.
type HomeCtl struct {
	sys  *System
	node mesh.NodeID
	mod  mem.Module
	dir  dir.Directory
	busy arch.Table[homeTxn] // by local block index, as in dir and mod

	// Preallocated hooks: recvHook receives a delivered message (via
	// Mesh.SendArg); processHook runs it after the memory-bank queue delay
	// (via Module.AccessArg). Allocated once so steady-state traffic
	// schedules without building closures.
	recvHook    func(any)
	processHook func(any)

	// retained marks that the request handler took ownership of the message
	// it was dispatched (recall stored it in busy); see dispatchRequest.
	retained bool

	// Reply scratch, filled by the exec-mem action and consumed by the
	// unc-reply / upd-fanout / upd-reply actions later in the same rule.
	// Fields instead of an interpreter-local result struct keep the hot
	// path allocation-free.
	exVal    arch.Word
	exOK     bool
	exWrote  bool
	exSerial arch.Word
	exHint   bool
	exAcks   int

	// replay holds the retained request released by an accept action for
	// the replay action that follows it in the same rule.
	replay *msg
}

func (h *HomeCtl) init(s *System, n mesh.NodeID) {
	h.sys = s
	h.node = n
	h.mod.Init(s.eng, s.cfg.Mem, s.cfg.Nodes)
	h.dir.Init(s.cfg.Nodes)
	h.recvHook = func(a any) { h.receive(a.(*msg)) }
	h.processHook = func(a any) { h.process(a.(*msg)) }
}

// reset returns the controller to its post-init state for machine reuse,
// keeping the preallocated hooks and table pages. Any request message still
// retained by an in-flight transaction goes back to the pool (a quiescent
// system has none).
func (h *HomeCtl) reset() {
	h.mod.Reset()
	h.dir.Reset()
	h.busy.Each(func(_ uint32, t *homeTxn) {
		if t.orig != nil {
			h.sys.freeMsg(t.orig)
		}
	})
	h.busy.Clear()
	h.retained = false
	h.replay = nil
}

// Memory exposes the underlying module (allocation, tests, and debugging).
func (h *HomeCtl) Memory() *mem.Module { return &h.mod }

// Directory exposes the directory (tests and invariant checks).
func (h *HomeCtl) Directory() *dir.Directory { return &h.dir }

// txn returns the transient-state record of the block at base, which this
// home must own.
func (h *HomeCtl) txn(base arch.Addr) *homeTxn {
	return h.busy.At(arch.LocalBlock(base, uint32(h.sys.cfg.Nodes)))
}

// receive queues the message through the memory bank: every home-side
// action costs one (queued) memory access, which is how memory contention
// enters the model.
func (h *HomeCtl) receive(m *msg) {
	h.mod.AccessArg(h.processHook, m)
}

// process dispatches one message through the home's transition tables and
// recycles it. Request kinds go through dispatchRequest, which knows a
// recall may retain the request; every other kind is fully consumed here.
func (h *HomeCtl) process(m *msg) {
	base := arch.BlockBase(m.addr)
	if m.kind.IsRequest() {
		h.dispatchRequest(m, base)
		return
	}
	rules := proto.HomeRet[m.kind]
	if rules == nil {
		panic(fmt.Sprintf("core: home %d received %v", h.node, m.kind))
	}
	h.runRules(rules, m, base, nil)
	h.sys.freeMsg(m)
}

// dispatchRequest runs a (possibly replayed) request and recycles it unless
// the handler retained it in the busy state for a later replay.
func (h *HomeCtl) dispatchRequest(m *msg, base arch.Addr) {
	h.retained = false
	h.handleRequest(m, base)
	if !h.retained {
		h.sys.freeMsg(m)
	}
}

// handleRequest interprets the home-request table row selected by the
// block's state: a busy block refuses every request (the HBusy row, which
// never touches the directory); otherwise the directory entry's state
// picks the row, and the entry invariants are re-checked after the rule's
// actions run.
func (h *HomeCtl) handleRequest(m *msg, base arch.Addr) {
	if h.txn(base).active {
		h.runRules(proto.HomeReq[proto.HBusy][m.kind], m, base, nil)
		return
	}
	e := h.dir.Entry(base)
	defer e.Check(base)
	var st proto.HomeState
	switch e.State {
	case dir.Unowned:
		st = proto.HUnowned
	case dir.Shared:
		st = proto.HShared
	case dir.Exclusive:
		st = proto.HExclusive
	default:
		panic(fmt.Sprintf("core: home %d: directory state %v for %#x", h.node, e.State, base))
	}
	h.runRules(proto.HomeReq[st][m.kind], m, base, e)
}

// runRules fires the first rule whose guard holds and executes its actions
// in order. A matching rule with no actions is an explicit stale-message
// ignore; no matching rule is a protocol error.
func (h *HomeCtl) runRules(rules []proto.HRule, m *msg, base arch.Addr, e *dir.Entry) {
	for i := range rules {
		if !h.guard(rules[i].Guard, m, base, e) {
			continue
		}
		for _, a := range rules[i].Actions {
			h.apply(a, m, base, e)
		}
		return
	}
	panic(fmt.Sprintf("core: home %d: no rule for %v", h.node, m.kind))
}

// guard evaluates one predicate against the directory entry, the busy table,
// the incoming message, and the system configuration. Guards a table row
// cannot reach may be passed a nil entry.
func (h *HomeCtl) guard(g proto.HomeGuard, m *msg, base arch.Addr, e *dir.Entry) bool {
	switch g {
	case proto.HGAlways:
		return true
	case proto.HGOwnerIsReq:
		return e.Owner == m.requester
	case proto.HGSharerHasReq:
		return e.Sharers.Has(m.requester)
	case proto.HGCASMatch:
		return h.mod.ReadWord(m.addr) == m.val
	case proto.HGCASShare:
		return h.sys.cfg.CAS == proto.CASShare
	case proto.HGBusyBlock:
		return h.txn(base).active
	case proto.HGFromOwnerOrig:
		t := h.txn(base)
		return t.active && t.owner == m.src && t.orig != nil
	case proto.HGFromOwner:
		t := h.txn(base)
		return t.active && t.owner == m.src
	}
	panic(fmt.Sprintf("core: home %d: unknown guard %v", h.node, g))
}

// apply executes one table action. Data-return actions fetch the directory
// entry themselves (the request path passes it in, already checked).
func (h *HomeCtl) apply(a proto.HAct, m *msg, base arch.Addr, e *dir.Entry) {
	switch a.Do {
	case proto.HNak:
		h.nak(m)

	case proto.HShareReply:
		e.State = dir.Shared
		e.Sharers.Add(m.requester)
		r := h.sys.newMsg()
		*r = msg{kind: proto.KDataS, data: h.mod.ReadBlock(base), hasData: true}
		h.reply(m, r)

	case proto.HGrantE:
		h.grantExclusive(m, base, e, false)

	case proto.HGrantESC:
		// No write intervened since the reservation was set (any write
		// would have invalidated the requester's copy first): succeed.
		h.grantExclusive(m, base, e, true)

	case proto.HRecall:
		h.recall(m, base, e.Owner, a.Msg)

	case proto.HSCFail:
		// Exclusive elsewhere or unowned: fail, per the paper's protocol.
		r := h.sys.newMsg()
		*r = msg{kind: proto.KSCFail}
		h.reply(m, r)

	case proto.HCASFail:
		fail := h.sys.newMsg()
		*fail = msg{kind: proto.KCASFail, val: h.mod.ReadWord(m.addr)}
		h.reply(m, fail)

	case proto.HCASFailShare:
		// INVs: a failed comparison still hands the requester a read-only
		// copy, so its next attempt can compare locally.
		fail := h.sys.newMsg()
		*fail = msg{kind: proto.KCASFail, val: h.mod.ReadWord(m.addr)}
		e.State = dir.Shared
		e.Sharers.Add(m.requester)
		fail.data = h.mod.ReadBlock(base)
		fail.hasData = true
		h.reply(m, fail)

	case proto.HExec:
		h.exVal, h.exOK, h.exWrote, h.exSerial, h.exHint = h.execMem(e, m)
		h.exAcks = 0

	case proto.HUncReply:
		r := h.sys.newMsg()
		*r = msg{kind: proto.KUncReply, val: h.exVal, ok: h.exOK, serial: h.exSerial, hint: h.exHint}
		h.reply(m, r)

	case proto.HUpdFanout:
		newWord := h.mod.ReadWord(m.addr)
		// Updates go out only when the value actually changed: a write of the
		// same value (e.g. test_and_set on an already-held lock) leaves every
		// cached copy correct. This is why, under UPD, "only successful
		// writes cause updates" (section 4.3.1).
		if h.exWrote && newWord != h.exVal {
			targets := e.Sharers
			targets.Remove(m.requester)
			h.exAcks = targets.Count()
			for bits, n := uint64(targets), mesh.NodeID(0); bits != 0; bits, n = bits>>1, n+1 {
				if bits&1 == 0 {
					continue
				}
				h.sys.counters.Updates++
				upd := h.sys.newMsg()
				*upd = msg{
					kind: proto.KUpdate, addr: m.addr, requester: m.requester,
					updWord: newWord, chain: m.chain,
				}
				h.sys.send(h.node, n, upd, false)
			}
		}

	case proto.HUpdReply:
		// The requester retains (or acquires) a shared copy of the block.
		e.State = dir.Shared
		e.Sharers.Add(m.requester)
		r := h.sys.newMsg()
		*r = msg{
			kind: proto.KUpdReply, val: h.exVal, ok: h.exOK, serial: h.exSerial, hint: h.exHint,
			data: h.mod.ReadBlock(base), hasData: true, acks: h.exAcks,
		}
		h.reply(m, r)

	case proto.HAcceptUnowned, proto.HAcceptShare:
		t := *h.txn(base)
		if m.src != t.owner {
			panic(fmt.Sprintf("core: home %d got %v for busy %#x from %d, expected %d",
				h.node, m.kind, base, m.src, t.owner))
		}
		ent := h.dir.Entry(base)
		h.mod.WriteBlock(base, m.data)
		if a.Do == proto.HAcceptShare {
			// The owner kept a read-only copy (read recall or INVs fail).
			ent.State = dir.Shared
			ent.Sharers = 0
			ent.Sharers.Add(t.owner)
			ent.Owner = 0
		} else {
			ent.State = dir.Unowned
			ent.Sharers = 0
			ent.Owner = 0
		}
		*h.txn(base) = homeTxn{}
		ent.Check(base)
		h.replay = t.orig

	case proto.HReplay:
		if h.replay != nil {
			// Replay the retained request against the refreshed directory
			// state; the chain accumulated so far carries over, giving the
			// paper's 4-serialized-message remote-exclusive store path.
			// dispatchRequest recycles it unless a second recall retains it.
			orig := h.replay
			h.replay = nil
			orig.chain = m.chain
			h.dispatchRequest(orig, base)
		}

	case proto.HWriteBack:
		// Spontaneous write-back from the recorded owner.
		ent := h.dir.Entry(base)
		if ent.State != dir.Exclusive || ent.Owner != m.src {
			panic(fmt.Sprintf("core: home %d got %v for %#x in state %v from %d",
				h.node, m.kind, base, ent.State, m.src))
		}
		if m.kind != proto.KWB {
			panic(fmt.Sprintf("core: unexpected %v outside a recall", m.kind))
		}
		h.mod.WriteBlock(base, m.data)
		ent.State = dir.Unowned
		ent.Owner = 0
		ent.Check(base)

	case proto.HDropSharer:
		ent := h.dir.Entry(base)
		// The drop hint may be stale (the sharer was already invalidated or
		// the block moved on); act only if the sender is still recorded.
		if ent.State == dir.Shared && ent.Sharers.Has(m.src) {
			ent.Sharers.Remove(m.src)
			if ent.Sharers.Empty() {
				ent.State = dir.Unowned
			}
		}

	case proto.HNakOrig:
		// The owner's copy is already on its way back as a write-back. NAK
		// the waiting requester (it will retry, per the paper's drop_copy
		// discussion) and hold the block until the write-back lands.
		t := h.txn(base)
		h.nak(t.orig)
		h.sys.freeMsg(t.orig)
		t.orig = nil

	case proto.HReleaseBusy:
		// INVd failure handled entirely at the owner; ownership is unchanged.
		t := h.txn(base)
		if t.orig != nil {
			h.sys.freeMsg(t.orig)
		}
		*t = homeTxn{}

	default:
		panic(fmt.Sprintf("core: home %d: unknown action %v", h.node, a.Do))
	}
}

// reply sends a response to the transaction's requester.
func (h *HomeCtl) reply(m *msg, r *msg) {
	r.addr = m.addr
	r.requester = m.requester
	r.op = m.op
	r.chain = m.chain
	h.sys.send(h.node, m.requester, r, false)
}

func (h *HomeCtl) nak(m *msg) {
	r := h.sys.newMsg()
	*r = msg{kind: proto.KNak}
	h.reply(m, r)
}

// recall puts the block in the busy state and asks the current owner for
// the data (or, for KCASFwd, for an owner-side comparison). It takes
// ownership of m, holding it for replay when the data arrives.
func (h *HomeCtl) recall(m *msg, base arch.Addr, owner mesh.NodeID, kind proto.MsgKind) {
	*h.txn(base) = homeTxn{active: true, owner: owner, orig: m}
	h.retained = true
	fwd := h.sys.newMsg()
	*fwd = msg{
		kind: kind, addr: m.addr, requester: m.requester,
		forwardVal: m.val, chain: m.chain,
	}
	h.sys.send(h.node, owner, fwd, false)
}

// grantExclusive transfers the block exclusively to the requester from the
// Unowned or Shared state: invalidations go to the other sharers, which
// acknowledge directly to the requester; the grant carries the expected
// acknowledgment count. scGrant marks a store_conditional success grant.
func (h *HomeCtl) grantExclusive(m *msg, base arch.Addr, e *dir.Entry, scGrant bool) {
	others := e.Sharers
	others.Remove(m.requester)
	acks := others.Count()
	for bits, n := uint64(others), mesh.NodeID(0); bits != 0; bits, n = bits>>1, n+1 {
		if bits&1 == 0 {
			continue
		}
		h.sys.counters.Invals++
		inv := h.sys.newMsg()
		*inv = msg{kind: proto.KInval, addr: m.addr, requester: m.requester, chain: m.chain}
		h.sys.send(h.node, n, inv, false)
	}
	e.State = dir.Exclusive
	e.Sharers = 0
	e.Owner = m.requester
	r := h.sys.newMsg()
	*r = msg{
		kind: proto.KDataE, data: h.mod.ReadBlock(base), hasData: true,
		acks: acks, ok: scGrant,
	}
	h.reply(m, r)
}

// execMem performs an operation at the memory: the locus of computational
// power for the UNC and UPD implementations.
func (h *HomeCtl) execMem(e *dir.Entry, m *msg) (val arch.Word, ok, wrote bool, serial arch.Word, hint bool) {
	old := h.mod.ReadWord(m.addr)
	val, ok = old, true
	write := func(v arch.Word) {
		h.mod.WriteWord(m.addr, v)
		wrote = true
		if e.Reservations != nil {
			e.Reservations.OnWrite()
		}
	}
	switch m.op {
	case proto.OpLoad, proto.OpLoadExclusive:
		// Reads; load_exclusive degenerates to a load at memory.
	case proto.OpStore:
		write(m.val)
	case proto.OpFetchAdd:
		write(old + m.val)
	case proto.OpFetchStore:
		write(m.val)
	case proto.OpFetchOr:
		write(old | m.val)
	case proto.OpTestAndSet:
		write(1)
	case proto.OpCAS:
		if old == m.val {
			write(m.val2)
		} else {
			ok = false
		}
	case proto.OpLL:
		rs := h.reservations(e)
		hint = !rs.Reserve(m.requester)
		serial = rs.Serial()
	case proto.OpSC:
		rs := h.reservations(e)
		if rs.Validate(m.requester, m.val2) {
			write(m.val)
		} else {
			ok = false
		}
	default:
		panic(fmt.Sprintf("core: execMem of %v", m.op))
	}
	h.sys.trackAccess(m.addr, m.requester, m.op, wrote)
	return val, ok, wrote, serial, hint
}

func (h *HomeCtl) reservations(e *dir.Entry) *dir.ResvState {
	// Directory.Reset keeps reservation state allocated across machine
	// reuse, but Reset may change the behavioral configuration, so a
	// retained state whose scheme or limit no longer matches is replaced.
	rs := e.Reservations
	if rs == nil || rs.Scheme != h.sys.cfg.ResvScheme ||
		(rs.Scheme == dir.ResvLimited && rs.Limit != h.sys.cfg.ResvLimit) {
		rs = dir.NewResvState(h.sys.cfg.ResvScheme, h.sys.cfg.ResvLimit)
		e.Reservations = rs
	}
	rs.Wake()
	return rs
}
