package core

// This file is an exhaustive explicit-state model checker for the coherence
// protocol, run on the real controllers. It builds a System of 2 or 3 nodes
// that share one block of one word, homed at node 0, and replaces the mesh
// with per-destination FIFO queues through the network seam (msg.go). Every
// interleaving of processor issues, NAK retries and message deliveries is
// explored breadth-first over canonical snapshots of the real cache lines,
// reservations, transactions, directory entry, busy record and memory word.
// Nothing in core is copied: a state is rebuilt by replaying its path on a
// fresh System.
//
// The queues keep exactly one ordering property of the real mesh: messages
// bound for the same node arrive in the order they were sent (the mesh
// books ejection slots per destination in send order; internal/mesh proves
// this). Everything else - relative timing of different destinations and
// retry backoffs - is the checker's choice, which over-approximates the
// simulator's deterministic timing. The local steps inside one transition
// (the controller step before a request starts, delayed replies, the memory
// bank) run to completion on the System's own engine.
//
// Invariants checked at every reachable state:
//
//   - SWMR: at most one exclusive copy; a read-only copy may coexist with an
//     exclusive copy elsewhere only while its invalidation is in flight.
//   - Directory-cache agreement: every cached copy is accounted for by the
//     directory (sharer, owner, busy owner, or covered by an in-flight
//     invalidation); an exclusive copy's holder is the recorded owner.
//   - Completion: a state with no enabled transition has every program
//     finished, no transaction outstanding and empty queues.
//   - Real-time reads: an operation observes a version at least as new as
//     everything observed by operations that completed before it was issued.
//     The documented read windows violate exactly this and are flagged
//     Expected (see mcRun.complete).
//   - Atomicity: a write's result names the version it overwrote, the
//     version it produced follows that one directly, and no two writes
//     produce the same version. compare_and_swap succeeds iff it read the
//     expected value; store_conditional succeeds only over the version its
//     load_linked observed.
//   - Quiescent coherence: in terminal states every cached copy holds the
//     final value, and System.CheckCoherence passes.
//
// A controller panic is a protocol violation and ends that branch. On a
// violation the checker reports the BFS-minimal trace that reaches it.
//
// Ghost versions are indices into hist, the sequence of values the
// authoritative copy takes: an exclusive line, else a write-back in flight
// to the home, else memory. Versions are read off values, so a config must
// write distinct values; a value that comes back is reported (it is either
// a config error or a lost write).

import (
	"encoding/binary"
	"fmt"
	"strings"

	"dsm/internal/arch"
	"dsm/internal/cache"
	"dsm/internal/dir"
	"dsm/internal/mesh"
	"dsm/internal/sim"
)

const (
	mcMaxNodes  = 3
	mcMaxOps    = 3
	mcMaxStates = 200_000

	mcAddr arch.Addr = 0 // the block's only word; block 0 is homed at node 0
)

// mcUseLLSerial as an OpSC val2 substitutes the serial returned by the
// node's most recent load_linked (programs cannot know it statically).
const mcUseLLSerial = ^arch.Word(0)

// mcOp is one program step.
type mcOp struct {
	op        OpKind
	val, val2 arch.Word
}

// mcConfig is one closed model-checking instance.
type mcConfig struct {
	nodes     int // 2 or 3; node 0 is the home
	policy    Policy
	cas       CASVariant
	resv      dir.ResvScheme
	resvLimit int
	progs     [][]mcOp      // per-node programs, len == nodes, each <= mcMaxOps
	preShare  []mesh.NodeID // nodes that load the block before the programs start
}

type mcKind string

const (
	mcSWMR       mcKind = "swmr"
	mcAgreement  mcKind = "dir-agreement"
	mcDeadlock   mcKind = "deadlock"
	mcStaleRead  mcKind = "stale-read"
	mcAtomicity  mcKind = "atomicity"
	mcCAS        mcKind = "cas-atomicity"
	mcSC         mcKind = "sc-validity"
	mcReentry    mcKind = "value-reentry"
	mcQuiescent  mcKind = "quiescent-stale"
	mcProtocol   mcKind = "protocol"
	mcStateBound mcKind = "state-bound"
)

// mcViolation is one invariant failure with its minimal reproducing trace.
type mcViolation struct {
	kind mcKind
	// expected marks the documented read windows (EXPERIMENTS.md): a
	// read-only operation completes on a local copy while the invalidation
	// or update that would repair it is queued toward it.
	expected bool
	detail   string
	trace    []string
}

func (v mcViolation) String() string {
	tag := ""
	if v.expected {
		tag = " (expected)"
	}
	return fmt.Sprintf("%s%s: %s\n  trace:\n    %s",
		v.kind, tag, v.detail, strings.Join(v.trace, "\n    "))
}

// mcReport is the result of one mcCheck run.
type mcReport struct {
	states     int // distinct states explored
	terminals  int // quiescent all-done states reached
	violations []mcViolation
}

func (r mcReport) unexpected() []mcViolation {
	var out []mcViolation
	for _, v := range r.violations {
		if !v.expected {
			out = append(out, v)
		}
	}
	return out
}

func (r mcReport) find(k mcKind) *mcViolation {
	for i := range r.violations {
		if r.violations[i].kind == k {
			return &r.violations[i]
		}
	}
	return nil
}

type mcStepKind uint8

const (
	mcIssue mcStepKind = iota
	mcRetry
	mcDeliver
)

// mcStep is one transition: issue node's next op, retry its NAKed request,
// or deliver the head of its queue.
type mcStep struct {
	kind mcStepKind
	node int
}

// mcQueued is one message held by the checker's network.
type mcQueued struct {
	m      *msg
	toHome bool
}

type mcDone struct {
	node int
	res  Result
}

// mcRun is one System driven by the checker, with the ghost state the
// invariants need. It is the System's network.
type mcRun struct {
	cfg *mcConfig
	eng *sim.Engine
	sys *System

	q        [mcMaxNodes][]mcQueued
	retrying [mcMaxNodes]bool
	pc       [mcMaxNodes]int
	req      [mcMaxNodes]mcOp // the node's last issued op, val2 resolved
	done     []mcDone         // completions during the current transition
	local    bool             // the current transition is an issue or a retry

	hist     []arch.Word // values of the authoritative copy; the index is the version
	claimed  uint64      // bit v: a completed write produced version v
	front    int         // newest version observed by a completed op
	snap     [mcMaxNodes]int
	llVer    [mcMaxNodes]int
	llSerial [mcMaxNodes]arch.Word
}

func (r *mcRun) send(_, dst mesh.NodeID, m *msg, toHome bool) {
	r.q[dst] = append(r.q[dst], mcQueued{m, toHome})
}

func (r *mcRun) retry(c *CacheCtl, _ sim.Time) { r.retrying[c.node] = true }

// newMCRun builds the initial state: a fresh System, with the preShare
// nodes' loads run to quiescence.
func newMCRun(cfg *mcConfig) *mcRun {
	c := DefaultConfig()
	c.Nodes = cfg.nodes
	c.Cache = cache.Config{Sets: 1, Assoc: 1}
	c.Mesh.Width, c.Mesh.Height = 2, 2
	c.CAS = cfg.cas
	c.ResvScheme, c.ResvLimit = cfg.resv, cfg.resvLimit
	eng := sim.NewEngine()
	r := &mcRun{cfg: cfg, eng: eng, sys: NewSystem(eng, mesh.New(eng, c.Mesh), c)}
	r.sys.network = r
	r.sys.SetPolicy(mcAddr, cfg.policy)
	for _, n := range cfg.preShare {
		r.sys.caches[n].Issue(Request{Op: OpLoad, Addr: mcAddr})
		for {
			for r.eng.Step() {
			}
			d := 0
			for d < cfg.nodes && len(r.q[d]) == 0 {
				d++
			}
			if d == cfg.nodes {
				break
			}
			r.deliver(d)
		}
	}
	r.hist = []arch.Word{r.authoritative()}
	return r
}

// mcReplay rebuilds the state reached by path.
func mcReplay(cfg *mcConfig, path []mcStep) *mcRun {
	r := newMCRun(cfg)
	for _, st := range path {
		r.exec(st)
	}
	return r
}

func (r *mcRun) enabled(buf []mcStep) []mcStep {
	for n := 0; n < r.cfg.nodes; n++ {
		if r.retrying[n] {
			buf = append(buf, mcStep{mcRetry, n})
		} else if r.sys.caches[n].pending == nil && r.pc[n] < len(r.cfg.progs[n]) {
			buf = append(buf, mcStep{mcIssue, n})
		}
	}
	for d := 0; d < r.cfg.nodes; d++ {
		if len(r.q[d]) > 0 {
			buf = append(buf, mcStep{mcDeliver, d})
		}
	}
	return buf
}

// outstanding reports whether work remains: an unfinished program or an
// operation in flight.
func (r *mcRun) outstanding() bool {
	for n := 0; n < r.cfg.nodes; n++ {
		if r.pc[n] < len(r.cfg.progs[n]) || r.sys.caches[n].pending != nil {
			return true
		}
	}
	return false
}

func (r *mcRun) label(st mcStep) string {
	switch st.kind {
	case mcIssue:
		return fmt.Sprintf("issue n%d %v", st.node, r.cfg.progs[st.node][r.pc[st.node]].op)
	case mcRetry:
		return fmt.Sprintf("retry n%d %v", st.node, r.req[st.node].op)
	}
	e := r.q[st.node][0]
	side := "(cache)"
	if e.toHome {
		side = "(home)"
	}
	return fmt.Sprintf("deliver %v %s n%d->n%d", e.m.kind, side, e.m.src, st.node)
}

func (r *mcRun) deliver(d int) {
	e := r.q[d][0]
	r.q[d] = r.q[d][1:]
	if e.toHome {
		r.sys.homes[d].recvHook(e.m)
	} else {
		r.sys.caches[d].recvHook(e.m)
	}
}

// exec runs one transition to completion and checks the state it reaches.
func (r *mcRun) exec(st mcStep) (v *mcViolation) {
	defer func() {
		if p := recover(); p != nil {
			v = &mcViolation{kind: mcProtocol, detail: fmt.Sprint(p)}
		}
	}()
	n := st.node
	r.local = st.kind != mcDeliver
	switch st.kind {
	case mcIssue:
		op := r.cfg.progs[n][r.pc[n]]
		r.pc[n]++
		if op.op == OpSC && op.val2 == mcUseLLSerial {
			op.val2 = r.llSerial[n]
		}
		r.req[n] = op
		r.snap[n] = r.front
		done := func(res Result) { r.done = append(r.done, mcDone{n, res}) }
		r.sys.caches[n].Issue(Request{Op: op.op, Addr: mcAddr, Val: op.val, Val2: op.val2, Done: done})
	case mcRetry:
		r.retrying[n] = false
		r.sys.caches[n].startFn()
	case mcDeliver:
		r.deliver(n)
	}
	for r.eng.Step() {
	}
	return r.observe()
}

// observe advances the ghost history, checks the completions of the
// transition just run, and checks the global invariants.
func (r *mcRun) observe() *mcViolation {
	var v *mcViolation
	fail := func(k mcKind, expected bool, format string, args ...any) {
		if v == nil {
			v = &mcViolation{kind: k, expected: expected, detail: fmt.Sprintf(format, args...)}
		}
	}
	if w := r.authoritative(); w != r.hist[len(r.hist)-1] {
		if r.version(w) >= 0 {
			fail(mcReentry, false, "value %d re-entered the history %v (a config must write distinct values)", w, r.hist)
		}
		r.hist = append(r.hist, w)
	}
	for _, d := range r.done {
		r.complete(d.node, d.res, fail)
	}
	r.done = r.done[:0]
	r.checkGlobal(fail)
	return v
}

// version returns the latest version holding w, or -1.
func (r *mcRun) version(w arch.Word) int {
	for i := len(r.hist) - 1; i >= 0; i-- {
		if r.hist[i] == w {
			return i
		}
	}
	return -1
}

// authoritative returns the value of the block's authoritative copy.
func (r *mcRun) authoritative() arch.Word {
	for _, c := range r.sys.caches {
		if l := c.cache.Peek(mcAddr); l != nil && l.State == cache.ExclusiveRW {
			return l.Data[0]
		}
	}
	w := r.sys.homes[0].mod.ReadWord(mcAddr)
	for _, e := range r.q[0] {
		if k := e.m.kind; e.toHome && (k == mWB || k == mWBRecall || k == mWBShare) {
			w = e.m.data[0]
		}
	}
	return w
}

func mcReadOnly(op OpKind) bool {
	return op == OpLoad || op == OpLoadExclusive || op == OpLL
}

// written is the value a write op that read old leaves in the word.
func (op mcOp) written(old arch.Word) arch.Word {
	switch op.op {
	case OpFetchAdd:
		return old + op.val
	case OpFetchOr:
		return old | op.val
	case OpTestAndSet:
		return 1
	case OpCAS:
		return op.val2
	}
	return op.val // store, fetch_and_store, store_conditional
}

// complete checks one operation's result and advances the read front.
//
// A read that returns a version older than one observed before it was
// issued is a stale read. It is Expected - the documented read windows -
// when the op is read-only (load, load_exclusive, load_linked), it
// completed on a local copy (in its issue or retry step), and the
// invalidation or update that would repair that copy is queued toward it:
// under UPD the home's update fan-out reaches sharers at different times,
// and under INV a recalled dirty line reaches a reader through the home
// before the writer's invalidations are in.
func (r *mcRun) complete(n int, res Result, fail func(mcKind, bool, string, ...any)) {
	op := r.req[n]
	if op.op == OpDropCopy || (op.op == OpSC && !res.OK) {
		return // nothing observed
	}
	obs := r.version(res.Value)
	if obs < 0 {
		fail(mcAtomicity, false, "n%d %v returned %d, a value the block never held", n, op.op, res.Value)
		return
	}
	switch {
	case mcReadOnly(op.op):
		if op.op == OpLL {
			r.llVer[n], r.llSerial[n] = obs, res.Serial
		}
	case op.op == OpCAS && !res.OK:
		if res.Value == op.val {
			fail(mcCAS, false, "n%d CAS failed reading the expected value %d", n, op.val)
		}
	default:
		old, nv := obs, op.written(res.Value)
		obs = r.version(nv)
		switch {
		case op.op == OpCAS && res.Value != op.val:
			fail(mcCAS, false, "n%d CAS succeeded over %d, expected %d", n, res.Value, op.val)
		case op.op == OpSC && old != r.llVer[n]:
			fail(mcSC, false, "n%d SC succeeded over version %d, its LL observed version %d", n, old, r.llVer[n])
		case nv == res.Value:
			// The write left the word unchanged (test_and_set of a set word).
		case obs != old+1:
			fail(mcAtomicity, false, "n%d %v wrote %d over %d, but the block went %v", n, op.op, nv, res.Value, r.hist)
		case r.claimed&(1<<obs) != 0:
			fail(mcAtomicity, false, "n%d %v produced version %d, which another write produced", n, op.op, obs)
		default:
			r.claimed |= 1 << obs
		}
		if obs < 0 {
			return
		}
	}
	if obs < r.snap[n] {
		fail(mcStaleRead, mcReadOnly(op.op) && r.local && r.repairInFlight(n),
			"n%d %v returned version %d, but version %d was observed before it was issued",
			n, op.op, obs, r.snap[n])
	}
	r.front = max(r.front, obs)
}

// queued reports whether a cache-bound message of one of kinds is queued
// toward node n.
func (r *mcRun) queued(n int, kinds ...msgKind) bool {
	for _, e := range r.q[n] {
		for _, k := range kinds {
			if !e.toHome && e.m.kind == k {
				return true
			}
		}
	}
	return false
}

func (r *mcRun) invalInFlight(n int) bool  { return r.queued(n, mInval) }
func (r *mcRun) repairInFlight(n int) bool { return r.queued(n, mInval, mUpdate) }

// checkGlobal checks single-writer (modulo in-flight invalidations) and
// directory-cache agreement.
func (r *mcRun) checkGlobal(fail func(mcKind, bool, string, ...any)) {
	var e dir.Entry // a never-referenced block is Unowned
	if p := r.sys.homes[0].dir.Peek(mcAddr); p != nil {
		e = *p
	}
	var busy homeTxn
	if b := r.sys.homes[0].busy.Get(0); b != nil {
		busy = *b
	}
	lines := make([]*cache.Line, r.cfg.nodes)
	owner := mesh.NodeID(-1)
	for n := range lines {
		lines[n] = r.sys.caches[n].cache.Peek(mcAddr)
		if lines[n] == nil || lines[n].State != cache.ExclusiveRW {
			continue
		}
		if owner >= 0 {
			fail(mcSWMR, false, "n%d and n%d both hold exclusive copies", owner, n)
			return
		}
		owner = mesh.NodeID(n)
	}
	if owner >= 0 {
		if e.State != dir.Exclusive || e.Owner != owner {
			fail(mcAgreement, false, "n%d holds exclusively but the directory records %v owner n%d",
				owner, e.State, e.Owner)
			return
		}
		for n, l := range lines {
			if mesh.NodeID(n) != owner && l != nil && !r.invalInFlight(n) {
				fail(mcSWMR, false, "n%d holds a copy while n%d is exclusive with no invalidation in flight",
					n, owner)
				return
			}
		}
	}
	for n, l := range lines {
		if l == nil || l.State == cache.ExclusiveRW {
			continue
		}
		id := mesh.NodeID(n)
		recorded := e.Sharers.Has(id) ||
			(busy.active && busy.owner == id) ||
			// The upgrade window: the holder is the recorded owner and its
			// exclusive grant is still in flight toward it.
			(e.State == dir.Exclusive && e.Owner == id)
		if !recorded && !r.invalInFlight(n) {
			fail(mcAgreement, false, "n%d holds a copy the directory does not account for", n)
			return
		}
	}
}

// quiescent checks a terminal state: every cached copy holds the final
// value, and the system passes CheckCoherence.
func (r *mcRun) quiescent() (v *mcViolation) {
	final := r.hist[len(r.hist)-1]
	for n, c := range r.sys.caches {
		if l := c.cache.Peek(mcAddr); l != nil && l.Data[0] != final {
			return &mcViolation{kind: mcQuiescent,
				detail: fmt.Sprintf("n%d holds %d at quiescence, the block's final value is %d",
					n, l.Data[0], final)}
		}
	}
	defer func() {
		if p := recover(); p != nil {
			v = &mcViolation{kind: mcProtocol, detail: fmt.Sprint(p)}
		}
	}()
	r.sys.CheckCoherence()
	return nil
}

// key appends the state's canonical encoding to k. It reads the protocol
// state of the real controllers and the ghost state, and leaves out
// counters (retries, chain lengths) so NAK loops close.
func (r *mcRun) key(k []byte) []byte {
	put := func(vs ...int) {
		for _, v := range vs {
			k = binary.AppendVarint(k, int64(v))
		}
	}
	putMsg := func(m *msg) {
		put(int(m.kind), int(m.src), int(m.requester), int(m.op), int(m.val), int(m.val2),
			int(m.data[0]), b2i(m.hasData), m.acks, b2i(m.ok), int(m.serial), b2i(m.hint),
			int(m.updWord), int(m.forwardVal))
	}
	for n := 0; n < r.cfg.nodes; n++ {
		c := r.sys.caches[n]
		put(r.pc[n], b2i(r.retrying[n]), b2i(c.llHintFail), b2i(c.cache.ReservedOn(mcAddr)))
		if l := c.cache.Peek(mcAddr); l != nil {
			put(int(l.State), int(l.Data[0]))
		} else {
			put(-1)
		}
		if t := c.pending; t != nil {
			put(int(t.req.Op), int(t.req.Val), int(t.req.Val2), b2i(t.granted), t.needAcks, t.acks,
				int(t.result.Value), b2i(t.result.OK), int(t.result.Serial))
		} else {
			put(-1)
		}
		put(len(r.q[n]))
		for _, e := range r.q[n] {
			put(b2i(e.toHome))
			putMsg(e.m)
		}
		put(r.snap[n], r.llVer[n], int(r.llSerial[n]))
	}
	h := r.sys.homes[0]
	if e := h.dir.Peek(mcAddr); e != nil {
		put(int(e.State), int(e.Sharers), int(e.Owner))
		if rs := e.Reservations; rs != nil {
			put(int(rs.Holders()), int(rs.Serial()))
		} else {
			put(-1)
		}
	} else {
		put(-1)
	}
	if b := h.busy.Get(0); b != nil && b.active {
		put(int(b.owner))
		if b.orig != nil {
			putMsg(b.orig)
		} else {
			put(-1)
		}
	} else {
		put(-1)
	}
	put(int(h.mod.ReadWord(mcAddr)), int(r.claimed), r.front, len(r.hist))
	for _, w := range r.hist {
		put(int(w))
	}
	return k
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mcCheck explores cfg exhaustively and reports every distinct violation
// kind with its BFS-minimal trace. Exploration continues past violating
// states (except controller panics) so one expected violation does not
// mask a different bug.
func mcCheck(cfg mcConfig) mcReport {
	if cfg.nodes < 2 || cfg.nodes > mcMaxNodes || len(cfg.progs) != cfg.nodes {
		panic(fmt.Sprintf("mc: need 2..%d nodes with one program each", mcMaxNodes))
	}
	for i, p := range cfg.progs {
		if len(p) > mcMaxOps {
			panic(fmt.Sprintf("mc: program %d longer than %d ops", i, mcMaxOps))
		}
	}
	type node struct {
		parent int
		path   []mcStep
		label  string
	}
	nodes := []node{{parent: -1}}
	seen := map[string]bool{string(newMCRun(&cfg).key(nil)): true}
	var rep mcReport
	kinds := map[mcKind]bool{}
	record := func(idx int, last string, v *mcViolation) {
		if v == nil || kinds[v.kind] {
			return
		}
		kinds[v.kind] = true
		var rev []string
		if last != "" {
			rev = append(rev, last)
		}
		for i := idx; i > 0; i = nodes[i].parent {
			rev = append(rev, nodes[i].label)
		}
		for i := len(rev) - 1; i >= 0; i-- {
			v.trace = append(v.trace, rev[i])
		}
		rep.violations = append(rep.violations, *v)
	}

	var steps []mcStep
	var k []byte
	for head := 0; head < len(nodes); head++ {
		if len(nodes) > mcMaxStates {
			record(head, "", &mcViolation{kind: mcStateBound,
				detail: fmt.Sprintf("state bound %d exceeded", mcMaxStates)})
			break
		}
		path := nodes[head].path
		cur := mcReplay(&cfg, path)
		steps = cur.enabled(steps[:0])
		if len(steps) == 0 {
			if cur.outstanding() {
				record(head, "", &mcViolation{kind: mcDeadlock,
					detail: "no enabled transition with work outstanding"})
				continue
			}
			rep.terminals++
			record(head, "", cur.quiescent())
			continue
		}
		for i, st := range steps {
			r := cur // the last successor reuses the replayed state
			if i < len(steps)-1 {
				r = mcReplay(&cfg, path)
			}
			label := r.label(st)
			v := r.exec(st)
			record(head, label, v)
			if v != nil && v.kind == mcProtocol {
				continue
			}
			k = r.key(k[:0])
			if seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			nodes = append(nodes, node{parent: head, path: append(path[:len(path):len(path)], st), label: label})
		}
	}
	rep.states = len(nodes)
	return rep
}
