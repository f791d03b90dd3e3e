package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/cache"
	"dsm/internal/dir"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// recordingTracer captures trace events for assertions.
type recordingTracer struct {
	lines []string
}

func (r *recordingTracer) Record(at sim.Time, node int, kind, detail string) {
	r.lines = append(r.lines, kind+" "+detail)
}

func TestTracerSeesIssueSendComplete(t *testing.T) {
	h := newH(t)
	tr := &recordingTracer{}
	h.sys.SetTracer(tr)
	a := h.addrAtHome(1, 0)
	h.do(0, OpStore, a, 5)
	joined := strings.Join(tr.lines, "\n")
	for _, want := range []string{"issue store", "send read-ex", "send data-e", "complete store"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q:\n%s", want, joined)
		}
	}
	h.sys.SetTracer(nil)
	n := len(tr.lines)
	h.do(0, OpLoad, a)
	if len(tr.lines) != n {
		t.Fatal("events recorded after tracer removed")
	}
}

func TestUPDSameValueWriteSendsNoUpdates(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpTestAndSet, a) // 0 -> 1: a real change
	h.do(1, OpLoad, a)       // node 1 caches a copy
	before := h.sys.Counters().Updates
	h.do(3, OpTestAndSet, a) // 1 -> 1: no change
	if got := h.sys.Counters().Updates; got != before {
		t.Fatalf("same-value write sent %d updates", got-before)
	}
	// A changing write still updates the copies (nodes 0 and 1 share).
	h.do(3, OpStore, a, 0)
	if got := h.sys.Counters().Updates; got != before+2 {
		t.Fatalf("changing write sent %d updates, want 2", got-before)
	}
	if r := h.do(1, OpLoad, a); r.Value != 0 || r.Chain != 0 {
		t.Fatalf("sharer copy = %+v", r)
	}
}

func TestUPDSameValueWriteStillClearsReservations(t *testing.T) {
	// Even a write of the same value must invalidate LL reservations —
	// that is the semantic difference between SC and CAS the paper builds
	// the pointer-problem argument on.
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpLL, a)       // reserve; value 0
	h.do(1, OpStore, a, 0) // same-value write
	if r := h.do(0, OpSC, a, 9); r.OK {
		t.Fatal("SC succeeded across a same-value write")
	}
}

// TestEvictionPressureStress forces constant evictions with a one-set
// cache while multiple nodes fight over several blocks; write-backs race
// recalls continuously. Validates liveness, linearizability of the
// counters, and the coherence invariant.
func TestEvictionPressureStress(t *testing.T) {
	h := newH(t, func(c *Config) {
		c.Cache = cache.Config{Sets: 1, Assoc: 2}
	})
	// Four counters that map to the same cache set everywhere.
	addrs := []arch.Addr{
		h.addrAtHome(0, 0), h.addrAtHome(1, 0), h.addrAtHome(2, 0), h.addrAtHome(3, 0),
	}
	const nodes, iters = 4, 30
	remaining := nodes
	var step func(n, left int)
	step = func(n, left int) {
		if left == 0 {
			remaining--
			return
		}
		a := addrs[(n+left)%len(addrs)]
		h.sys.Cache(mesh.NodeID(n)).Issue(Request{
			Op: OpFetchAdd, Addr: a, Val: 1,
			Done: func(Result) { step(n, left-1) },
		})
	}
	for n := 0; n < nodes; n++ {
		n := n
		h.eng.At(0, func() { step(n, iters) })
	}
	for remaining > 0 {
		if !h.eng.Step() {
			t.Fatalf("eviction stress deadlocked (%d nodes left)", remaining)
		}
	}
	h.drain()
	var total arch.Word
	for _, a := range addrs {
		total += h.do(0, OpLoad, a).Value
		h.drain()
	}
	if total != nodes*iters {
		t.Fatalf("sum of counters = %d, want %d", total, nodes*iters)
	}
	if h.sys.Counters().Writebacks == 0 {
		t.Fatal("no evictions occurred; stress ineffective")
	}
	h.sys.CheckCoherence()
}

func TestLLOnRemoteExclusiveBlock(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 5) // node 0 exclusive dirty
	r := h.do(1, OpLL, a)
	if r.Value != 5 {
		t.Fatalf("LL = %+v, want dirty value 5", r)
	}
	// The owner was downgraded, both share now.
	if l := h.sys.Cache(0).CacheArray().Peek(a); l == nil || l.State != cache.SharedRO {
		t.Fatal("owner not downgraded by LL")
	}
	if r := h.do(1, OpSC, a, 6); !r.OK {
		t.Fatalf("SC after LL failed: %+v", r)
	}
	if r := h.do(0, OpLoad, a); r.Value != 6 {
		t.Fatalf("value = %d", r.Value)
	}
}

func TestSCWhileOnlySharerSucceedsWithChain2(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpLL, a)
	r := h.do(0, OpSC, a, 1)
	if !r.OK || r.Chain != 2 {
		t.Fatalf("lone-sharer SC = %+v, want success with chain 2", r)
	}
}

func TestSCWithOtherSharersInvalidatesThem(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.do(1, OpLoad, a) // extra sharer
	h.do(0, OpLL, a)
	before := h.sys.Counters().Invals
	r := h.do(0, OpSC, a, 1)
	if !r.OK || r.Chain != 3 {
		t.Fatalf("SC with sharers = %+v, want chain 3", r)
	}
	if h.sys.Counters().Invals != before+1 {
		t.Fatal("sharer not invalidated by SC grant")
	}
	if h.sys.Cache(1).CacheArray().Peek(a) != nil {
		t.Fatal("stale copy survived SC")
	}
}

func TestSerialSchemeOnUPDPolicy(t *testing.T) {
	h := newH(t, func(c *Config) { c.ResvScheme = dir.ResvSerial })
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	r := h.do(0, OpLL, a)
	h.do(1, OpFetchAdd, a, 1) // bumps the serial
	if r2 := h.doReq(0, Request{Op: OpSC, Addr: a, Val: 9, Val2: r.Serial}); r2.OK {
		t.Fatal("stale-serial SC succeeded under UPD")
	}
	r = h.do(0, OpLL, a)
	if r.Value != 1 {
		t.Fatalf("LL = %+v", r)
	}
	if r2 := h.doReq(0, Request{Op: OpSC, Addr: a, Val: 9, Val2: r.Serial}); !r2.OK {
		t.Fatal("fresh-serial SC failed under UPD")
	}
}

func TestLimitedSchemeOnUPDPolicy(t *testing.T) {
	h := newH(t, func(c *Config) {
		c.ResvScheme = dir.ResvLimited
		c.ResvLimit = 1
	})
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	if h.do(0, OpLL, a); h.sys.caches[0].llHintFail {
		t.Fatal("first LL hinted")
	}
	if h.do(2, OpLL, a); !h.sys.caches[2].llHintFail {
		t.Fatal("second LL did not hint under limit 1")
	}
	if r := h.do(2, OpSC, a, 5); r.OK || r.Chain != 0 {
		t.Fatalf("hinted SC = %+v, want local fail", r)
	}
}

func TestChainRecorderClassesPopulated(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	b := h.addrAtHome(2, 0)
	h.sys.SetPolicy(b, PolicyUNC)
	h.do(0, OpFetchAdd, a, 1)
	h.do(0, OpFetchAdd, b, 1)
	var classes []string
	for class, hist := range h.sys.Chains().All() {
		classes = append(classes, class)
		if class == "fetch_and_add/UNC" && hist.Count(2) != 1 {
			t.Fatal("UNC fetch_and_add chain not 2")
		}
	}
	if want := []string{"fetch_and_add/INV", "fetch_and_add/UNC"}; !slices.Equal(classes, want) {
		t.Fatalf("chain classes = %q, want %q", classes, want)
	}
}

// TestChainClassNamesNeedNoEscaping records every operation class under
// every policy and checks the names the report encodes verbatim: each is a
// JSON string as it stands (encoding/json quotes it without escaping a
// byte), and All yields them in strictly increasing order.
func TestChainClassNamesNeedNoEscaping(t *testing.T) {
	rec := newH(t).sys.Chains()
	for op := 0; op < proto.NumOps; op++ {
		for pol := 0; pol < proto.NumPolicies; pol++ {
			rec.RecordAt(op, pol, 1)
		}
	}
	var names []string
	for class := range rec.All() {
		if q, _ := json.Marshal(class); string(q) != `"`+class+`"` {
			t.Errorf("class %q encodes as %s", class, q)
		}
		if len(names) > 0 && class <= names[len(names)-1] {
			t.Errorf("class %q follows %q", class, names[len(names)-1])
		}
		names = append(names, class)
	}
	if len(names) != proto.NumOps*proto.NumPolicies || rec.Len() != len(names) {
		t.Fatalf("All yields %d classes, Len %d, want %d", len(names), rec.Len(), proto.NumOps*proto.NumPolicies)
	}
}

func TestCountersLocalHitRate(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpStore, a, 1) // miss
	for i := 0; i < 5; i++ {
		h.do(0, OpStore, a, arch.Word(i)) // hits
	}
	c := h.sys.Counters()
	if c.Requests != 6 || c.LocalHits != 5 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLoadExclusiveOnSharedUpgrades(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpLoad, a) // S copy at node 0
	h.do(1, OpLoad, a) // S copy at node 1
	r := h.do(0, OpLoadExclusive, a)
	if r.Chain != 3 {
		t.Fatalf("load_exclusive upgrade chain = %d, want 3", r.Chain)
	}
	if h.sys.Cache(1).CacheArray().Peek(a) != nil {
		t.Fatal("other sharer survived load_exclusive")
	}
	l := h.sys.Cache(0).CacheArray().Peek(a)
	if l == nil || l.State != cache.ExclusiveRW {
		t.Fatal("load_exclusive did not leave an exclusive copy")
	}
}

func TestUNCMixedOpsSequence(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.sys.SetPolicy(a, PolicyUNC)
	h.do(0, OpStore, a, 3)
	if r := h.do(1, OpFetchOr, a, 4); r.Value != 3 {
		t.Fatalf("fetch_and_or old = %d", r.Value)
	}
	if r := h.do(2, OpCAS, a, 7, 9); !r.OK {
		t.Fatalf("CAS(7->9) failed: %+v", r)
	}
	if r := h.do(3, OpLoad, a); r.Value != 9 {
		t.Fatalf("value = %d", r.Value)
	}
	if r := h.do(0, OpLoadExclusive, a); r.Value != 9 || r.Chain != 2 {
		t.Fatalf("UNC load_exclusive = %+v (degenerates to a memory load)", r)
	}
}

func TestPolicyIsolationBetweenBlocks(t *testing.T) {
	// Different policies on adjacent blocks never interfere.
	h := newH(t)
	inv := h.addrAtHome(0, 1)
	upd := h.addrAtHome(0, 2)
	unc := h.addrAtHome(0, 3)
	h.sys.SetPolicy(upd, PolicyUPD)
	h.sys.SetPolicy(unc, PolicyUNC)
	for i := 0; i < 3; i++ {
		h.do(i, OpFetchAdd, inv, 1)
		h.do(i, OpFetchAdd, upd, 1)
		h.do(i, OpFetchAdd, unc, 1)
	}
	h.drain()
	for _, a := range []arch.Addr{inv, upd, unc} {
		if v := h.do(3, OpLoad, a).Value; v != 3 {
			t.Fatalf("counter at %#x = %d", a, v)
		}
		h.drain()
	}
	if h.sys.Cache(0).CacheArray().Peek(unc) != nil {
		t.Fatal("UNC block leaked into a cache")
	}
	h.sys.CheckCoherence()
}
