package core

import (
	"strings"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/dir"
	"dsm/internal/mesh"
)

// mcClean checks cfg and fails the test on any violation not documented as
// expected.
func mcClean(t *testing.T, name string, cfg mcConfig) mcReport {
	t.Helper()
	rep := mcCheck(cfg)
	if rep.terminals == 0 {
		t.Errorf("%s: no quiescent terminal state reached", name)
	}
	for _, v := range rep.unexpected() {
		t.Errorf("%s: unexpected violation:\n%v", name, v)
	}
	return rep
}

func mcProgs(ps ...[]mcOp) [][]mcOp { return ps }
func mcSeq(ops ...mcOp) []mcOp      { return ops }

var (
	mcLoad   = mcOp{op: OpLoad}
	mcLoadEx = mcOp{op: OpLoadExclusive}
	mcLL     = mcOp{op: OpLL}
)

func mcSCOp(v uint32) mcOp            { return mcOp{op: OpSC, val: arch.Word(v), val2: mcUseLLSerial} }
func mcStore(v uint32) mcOp           { return mcOp{op: OpStore, val: arch.Word(v)} }
func mcCASOp(e, n uint32) mcOp        { return mcOp{op: OpCAS, val: arch.Word(e), val2: arch.Word(n)} }
func mcOpVal(k OpKind, v uint32) mcOp { return mcOp{op: k, val: arch.Word(v)} }

// mcPrimitives are the two-node programs of the exhaustive sweep: at most
// two outstanding operations per node, one primitive family each.
var mcPrimitives = []struct {
	name  string
	progs [][]mcOp
}{
	{"store-store", mcProgs(mcSeq(mcStore(5)), mcSeq(mcStore(9)))},
	{"store-vs-loads", mcProgs(mcSeq(mcStore(5)), mcSeq(mcLoad, mcLoad))},
	{"load-exclusive", mcProgs(mcSeq(mcLoadEx, mcLoad), mcSeq(mcLoadEx))},
	{"fetch-add", mcProgs(mcSeq(mcOpVal(OpFetchAdd, 1), mcLoad), mcSeq(mcOpVal(OpFetchAdd, 1)))},
	{"fetch-store", mcProgs(mcSeq(mcOpVal(OpFetchStore, 5)), mcSeq(mcOpVal(OpFetchStore, 9)))},
	{"fetch-or", mcProgs(mcSeq(mcOpVal(OpFetchOr, 1)), mcSeq(mcOpVal(OpFetchOr, 2)))},
	{"test-and-set", mcProgs(mcSeq(mcOp{op: OpTestAndSet}, mcLoad), mcSeq(mcOp{op: OpTestAndSet}))},
	{"cas-race", mcProgs(mcSeq(mcCASOp(0, 1)), mcSeq(mcCASOp(0, 2)))},
	{"cas-vs-owner", mcProgs(mcSeq(mcStore(3)), mcSeq(mcCASOp(3, 7)))},
	{"cas-mismatch", mcProgs(mcSeq(mcStore(3)), mcSeq(mcCASOp(4, 7), mcLoad))},
	{"drop-copy", mcProgs(mcSeq(mcStore(5), mcOp{op: OpDropCopy}), mcSeq(mcLoad))},
	{"ll-sc", mcProgs(mcSeq(mcLL, mcSCOp(5)), mcSeq(mcLL, mcSCOp(9)))},
}

// mcTwoNode is a two-node config with the default CAS and reservation
// scheme.
func mcTwoNode(pol Policy, progs [][]mcOp) mcConfig {
	return mcConfig{nodes: 2, policy: pol, cas: CASPlain, resv: dir.ResvBitVector, resvLimit: 4, progs: progs}
}

// TestMCTwoNodeAllPoliciesAllPrimitives is the exhaustive small-config
// sweep: two nodes, one block, every policy crossed with every primitive
// family. Every interleaving must satisfy every invariant, including the
// real-time read front, which the UPD window cannot break with a single
// reader.
func TestMCTwoNodeAllPoliciesAllPrimitives(t *testing.T) {
	for _, pol := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		for _, p := range mcPrimitives {
			name := pol.String() + "/" + p.name
			t.Run(name, func(t *testing.T) {
				rep := mcClean(t, name, mcTwoNode(pol, p.progs))
				t.Logf("%s: %d states, %d terminals", name, rep.states, rep.terminals)
			})
		}
	}
}

// TestMCCASVariants drives the three CAS implementations (plain recall,
// owner-side deny, owner-side share) through the owner-held, mismatch and
// race cases.
func TestMCCASVariants(t *testing.T) {
	progSets := [][][]mcOp{
		mcProgs(mcSeq(mcStore(3)), mcSeq(mcCASOp(3, 7))),
		mcProgs(mcSeq(mcStore(3)), mcSeq(mcCASOp(4, 7), mcLoad)),
		mcProgs(mcSeq(mcCASOp(0, 1)), mcSeq(mcCASOp(0, 2))),
	}
	for _, cas := range []CASVariant{CASPlain, CASDeny, CASShare} {
		for pi, progs := range progSets {
			cfg := mcTwoNode(PolicyINV, progs)
			cfg.cas = cas
			rep := mcClean(t, cas.String(), cfg)
			t.Logf("%s/progs%d: %d states", cas, pi, rep.states)
		}
	}
}

// TestMCReservationSchemes drives memory-side LL/SC under each reservation
// scheme for the UNC and UPD policies, including the limited scheme with
// limit 1 (the beyond-limit hint makes the loser's SC fail locally).
func TestMCReservationSchemes(t *testing.T) {
	llsc := mcProgs(mcSeq(mcLL, mcSCOp(5)), mcSeq(mcLL, mcSCOp(9)))
	for _, pol := range []Policy{PolicyUNC, PolicyUPD} {
		for _, rs := range []struct {
			scheme dir.ResvScheme
			limit  int
		}{{dir.ResvBitVector, 4}, {dir.ResvLimited, 1}, {dir.ResvSerial, 0}} {
			name := pol.String() + "/" + rs.scheme.String()
			cfg := mcTwoNode(pol, llsc)
			cfg.resv, cfg.resvLimit = rs.scheme, rs.limit
			rep := mcClean(t, name, cfg)
			t.Logf("%s: %d states", name, rep.states)
		}
	}
}

// mcWindow is the three-node read-window program: n1 and n2 share the
// block, n0 stores to it, n1 loads, and n2 runs reader.
func mcWindow(pol Policy, reader ...mcOp) mcConfig {
	return mcConfig{
		nodes: 3, policy: pol, cas: CASPlain, resv: dir.ResvBitVector, resvLimit: 4,
		progs:    mcProgs(mcSeq(mcStore(7)), mcSeq(mcLoad), reader),
		preShare: []mesh.NodeID{1, 2},
	}
}

// mcExpectWindow checks cfg, requires its stale read to be flagged
// expected with a steps-long minimal trace, and returns the trace.
func mcExpectWindow(t *testing.T, name string, cfg mcConfig, steps int) []string {
	t.Helper()
	rep := mcCheck(cfg)
	for _, v := range rep.unexpected() {
		t.Errorf("%s: unexpected violation:\n%v", name, v)
	}
	win := rep.find(mcStaleRead)
	if win == nil {
		t.Fatalf("%s: read window not found (%d states)", name, rep.states)
	}
	if !win.expected {
		t.Errorf("%s: read window must be flagged expected, got\n%v", name, *win)
	}
	// BFS guarantees no shorter trace exists; pinning the length keeps the
	// counterexample minimal.
	if len(win.trace) != steps {
		t.Errorf("%s: want the %d-step minimal trace, got %d steps:\n%s",
			name, steps, len(win.trace), strings.Join(win.trace, "\n"))
	}
	t.Logf("%s (%d states):\n%v", name, rep.states, *win)
	return win.trace
}

// TestMCUPDReadWindowThreeNodes rediscovers the documented single-phase
// write-update read window (EXPERIMENTS.md): the home applies a write and
// pushes updates that reach the two sharers at different times, so a read
// on the not-yet-updated sharer, issued after a load on the updated sharer
// completed, observes the values out of order. The INV counterpart needs the
// longer recall path: a recalled dirty line reaches a reader through the
// home while the old sharer's invalidation is still in flight. Both windows
// are hit by every read-only op that completes on the local copy, so the
// load_exclusive (UPD) and load_linked (INV) forms are pinned too; an SC
// after the stale load_linked must still fail.
func TestMCUPDReadWindowThreeNodes(t *testing.T) {
	upd := mcExpectWindow(t, "UPD/load", mcWindow(PolicyUPD, mcLoad), 5)
	mcExpectWindow(t, "UPD/load_exclusive", mcWindow(PolicyUPD, mcLoadEx), 5)
	inv := mcExpectWindow(t, "INV/load_linked", mcWindow(PolicyINV, mcLL), 11)
	if len(inv) <= len(upd) {
		t.Errorf("INV recall window should need a longer trace than UPD's %d steps", len(upd))
	}

	rep := mcCheck(mcWindow(PolicyINV, mcLoad))
	for _, v := range rep.unexpected() {
		t.Errorf("INV/load: unexpected violation:\n%v", v)
	}
	rep = mcCheck(mcWindow(PolicyINV, mcLL, mcSCOp(9)))
	for _, v := range rep.unexpected() {
		t.Errorf("INV/load_linked+SC: unexpected violation:\n%v", v)
	}

	// With a single reader the window needs no third node to observe the
	// reorder, so two-node UPD stays clean: the reason the exhaustive
	// two-node sweep passes for every primitive.
	two := mcTwoNode(PolicyUPD, mcProgs(mcSeq(mcStore(7)), mcSeq(mcLoad, mcLoad)))
	two.preShare = []mesh.NodeID{1}
	for _, v := range mcCheck(two).violations {
		t.Errorf("two-node UPD must be clean, got:\n%v", v)
	}
}

// TestMCThreeNodeINVContention is a deeper INV run: three nodes race a
// store, an atomic, and loads through recall, replay, and eviction paths.
func TestMCThreeNodeINVContention(t *testing.T) {
	rep := mcClean(t, "inv-3", mcConfig{
		nodes: 3, policy: PolicyINV, cas: CASPlain, resv: dir.ResvBitVector, resvLimit: 4,
		progs:    mcProgs(mcSeq(mcStore(5)), mcSeq(mcOpVal(OpFetchAdd, 1)), mcSeq(mcLoad, mcLoad)),
		preShare: []mesh.NodeID{2},
	})
	t.Logf("inv-3: %d states, %d terminals", rep.states, rep.terminals)
}

// mcFuzzOps and mcFuzzTASOps are the op kinds a fuzzed program draws from.
// test_and_set always writes 1, so a value could re-enter the history if
// any other write were mixed with it; it gets a family of its own.
var (
	mcFuzzOps    = []OpKind{OpLoad, OpStore, OpLoadExclusive, OpDropCopy, OpFetchAdd, OpFetchStore, OpFetchOr, OpCAS, OpLL, OpSC}
	mcFuzzTASOps = []OpKind{OpLoad, OpLoadExclusive, OpDropCopy, OpTestAndSet, OpLL}
)

// mcFresh is the value written by the k-th op of a fuzzed config. Fresh
// values differ in their high bits and fetch_and_add / fetch_and_or only
// raise the low bits, so no value can re-enter the history.
func mcFresh(k int) arch.Word { return arch.Word(k+1) << 8 }

// mcFuzzConfig decodes a config from data and returns the rest of data,
// which chooses the schedule. Layout: nodes, policy, CAS variant,
// reservation scheme and limit, preShare mask, op family; then per node an
// op count and two bytes (kind, operand) per op. Missing bytes read as 0.
func mcFuzzConfig(data []byte) (mcConfig, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg := mcConfig{nodes: 2 + next()%2, policy: Policy(next() % 3), cas: CASVariant(next() % 3)}
	b := next()
	cfg.resv, cfg.resvLimit = dir.ResvScheme(b%3), 1+b/3%2
	share := next()
	for n := 0; n < cfg.nodes; n++ {
		if share&(1<<n) != 0 {
			cfg.preShare = append(cfg.preShare, mesh.NodeID(n))
		}
	}
	kinds := mcFuzzOps
	if next()%2 == 1 {
		kinds = mcFuzzTASOps
	}
	k := 0
	cfg.progs = make([][]mcOp, cfg.nodes)
	for n := range cfg.progs {
		linked := false // an LL since this node's last write
		for i := next() % (mcMaxOps + 1); i > 0; i-- {
			op := mcOp{op: kinds[next()%len(kinds)]}
			operand := next()
			if op.op == OpSC && !linked {
				// An SC needs its own LL: without one, a serial-scheme SC
				// carries a guessed serial, and one after the node's own
				// write is unpredictable on real processors.
				op.op = OpLL
			}
			linked = op.op == OpLL || (linked && !op.op.Writes())
			switch op.op {
			case OpStore, OpFetchStore:
				op.val = mcFresh(k)
			case OpSC:
				op.val, op.val2 = mcFresh(k), mcUseLLSerial
			case OpFetchAdd:
				op.val = 1
			case OpFetchOr:
				op.val = 1 << (operand % 3)
			case OpCAS:
				if e := operand % 11; e > 0 { // e == 10 expects a value no op writes
					op.val = mcFresh(e - 1)
				}
				op.val2 = mcFresh(k)
			}
			cfg.progs[n] = append(cfg.progs[n], op)
			k++
		}
	}
	return cfg, data
}

// mcFuzzSeed encodes the shape of cfg (nodes, policy, variants, preShare,
// op kinds) in mcFuzzConfig's layout. Operands become the fuzz encoding's
// own values; a CAS expects 0, the value of the op that wrote its expected
// value in cfg, or a value no op writes.
func mcFuzzSeed(cfg mcConfig) []byte {
	kinds, family := mcFuzzOps, 0
	for _, p := range cfg.progs {
		for _, op := range p {
			if op.op == OpTestAndSet {
				kinds, family = mcFuzzTASOps, 1
			}
		}
	}
	share := 0
	for _, n := range cfg.preShare {
		share |= 1 << n
	}
	b := []byte{byte(cfg.nodes - 2), byte(cfg.policy), byte(cfg.cas),
		byte(int(cfg.resv) + 3*((cfg.resvLimit+1)%2)), byte(share), byte(family)}
	var all []mcOp
	for _, p := range cfg.progs {
		all = append(all, p...)
	}
	for _, p := range cfg.progs {
		b = append(b, byte(len(p)))
		for _, op := range p {
			operand := 0
			switch op.op {
			case OpFetchOr:
				for op.val > 1 {
					op.val >>= 1
					operand++
				}
			case OpCAS:
				if op.val != 0 {
					operand = 10
				}
				for j, w := range all {
					if w.op != OpCAS && w.op.Writes() && w.val == op.val {
						operand = j + 1
					}
				}
			}
			kind := 0
			for i, k := range kinds {
				if k == op.op {
					kind = i
				}
			}
			b = append(b, byte(kind), byte(operand))
		}
	}
	return b
}

// FuzzMCSchedule runs one schedule of a fuzzed config through the real
// controllers under the checker's network: each remaining input byte picks
// one of the enabled transitions (the first once the bytes run out). Every
// state must satisfy the checker's invariants, apart from the documented
// read windows, and every quiescent end must pass CheckCoherence.
func FuzzMCSchedule(f *testing.F) {
	for _, pol := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		for _, p := range mcPrimitives {
			f.Add(mcFuzzSeed(mcTwoNode(pol, p.progs)))
		}
	}
	for _, cas := range []CASVariant{CASDeny, CASShare} {
		cfg := mcTwoNode(PolicyINV, mcProgs(mcSeq(mcStore(3)), mcSeq(mcCASOp(3, 7), mcLoad)))
		cfg.cas = cas
		f.Add(mcFuzzSeed(cfg))
	}
	for _, rs := range []dir.ResvScheme{dir.ResvLimited, dir.ResvSerial} {
		cfg := mcTwoNode(PolicyUPD, mcProgs(mcSeq(mcLL, mcSCOp(5)), mcSeq(mcLL, mcSCOp(9))))
		cfg.resv, cfg.resvLimit = rs, 1
		f.Add(mcFuzzSeed(cfg))
	}
	f.Add(append(mcFuzzSeed(mcWindow(PolicyUPD, mcLoadEx)), 0, 2, 3, 0, 0))
	f.Add(mcFuzzSeed(mcWindow(PolicyINV, mcLL, mcSCOp(9))))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, sched := mcFuzzConfig(data)
		r := newMCRun(&cfg)
		var trace []string
		var enabled []mcStep
		for range 1000 {
			enabled = r.enabled(enabled[:0])
			if len(enabled) == 0 {
				v := r.quiescent()
				if r.outstanding() {
					v = &mcViolation{kind: mcDeadlock, detail: "no enabled transition with work outstanding"}
				}
				if v != nil && !v.expected {
					v.trace = trace
					t.Fatalf("%+v\n%v", cfg, *v)
				}
				return
			}
			st := enabled[0]
			if len(sched) > 0 {
				st = enabled[int(sched[0])%len(enabled)]
				sched = sched[1:]
			}
			trace = append(trace, r.label(st))
			if v := r.exec(st); v != nil && !v.expected {
				v.trace = trace
				t.Fatalf("%+v\n%v", cfg, *v)
			}
		}
	})
}
