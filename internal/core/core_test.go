package core

import (
	"sort"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/cache"
	"dsm/internal/dir"
	"dsm/internal/mesh"
	"dsm/internal/sim"
)

// H is a test harness around one simulated system.
type H struct {
	t   *testing.T
	eng *sim.Engine
	net *mesh.Mesh
	sys *System
}

// newH builds a small 4-node machine (2x2 mesh) unless mutated.
func newH(t *testing.T, mut ...func(*Config)) *H {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	for _, m := range mut {
		m(&cfg)
	}
	eng := sim.NewEngine()
	net := mesh.New(eng, cfg.Mesh)
	return &H{t: t, eng: eng, net: net, sys: NewSystem(eng, net, cfg)}
}

// addrAtHome returns the i-th test word whose block is homed at node home.
func (h *H) addrAtHome(home, i int) arch.Addr {
	return arch.Addr((home + i*h.sys.cfg.Nodes) * arch.BlockBytes)
}

// do issues one operation from node and runs the engine until it completes.
func (h *H) do(node int, op OpKind, a arch.Addr, vals ...arch.Word) Result {
	h.t.Helper()
	req := Request{Op: op, Addr: a}
	if len(vals) > 0 {
		req.Val = vals[0]
	}
	if len(vals) > 1 {
		req.Val2 = vals[1]
	}
	return h.doReq(node, req)
}

func (h *H) doReq(node int, req Request) Result {
	h.t.Helper()
	var res Result
	done := false
	req.Done = func(r Result) { res = r; done = true }
	h.eng.At(h.eng.Now(), func() { h.sys.Cache(mesh.NodeID(node)).Issue(req) })
	for !done {
		if !h.eng.Step() {
			h.t.Fatalf("deadlock: %v@%#x from node %d never completed", req.Op, req.Addr, node)
		}
	}
	return res
}

// doAll issues one request per entry concurrently and runs to completion.
// Requests are issued in ascending node order so concurrent rounds are
// deterministic (map iteration order must not leak into event ordering).
func (h *H) doAll(reqs map[int]Request) map[int]Result {
	h.t.Helper()
	nodes := make([]int, 0, len(reqs))
	for node := range reqs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	out := make(map[int]Result, len(reqs))
	remaining := len(reqs)
	for _, node := range nodes {
		node, req := node, reqs[node]
		userDone := req.Done
		req.Done = func(r Result) {
			out[node] = r
			remaining--
			if userDone != nil {
				userDone(r)
			}
		}
		h.eng.At(h.eng.Now(), func() { h.sys.Cache(mesh.NodeID(node)).Issue(req) })
	}
	for remaining > 0 {
		if !h.eng.Step() {
			h.t.Fatalf("deadlock: %d concurrent requests never completed", remaining)
		}
	}
	return out
}

// drain runs the engine until the event queue is empty (write-backs, drops
// and other fire-and-forget traffic settle).
func (h *H) drain() {
	for h.eng.Step() {
	}
}

// ------------------------------------------------------------ basics ----

func TestLoadOfFreshWordIsZero(t *testing.T) {
	h := newH(t)
	r := h.do(0, OpLoad, h.addrAtHome(1, 0))
	if r.Value != 0 || !r.OK {
		t.Fatalf("load = %+v", r)
	}
}

func TestStoreThenLoadSameNode(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpStore, a, 42)
	r := h.do(0, OpLoad, a)
	if r.Value != 42 {
		t.Fatalf("load after store = %d", r.Value)
	}
	if r.Chain != 0 {
		t.Fatalf("local hit chain = %d", r.Chain)
	}
}

func TestStoreVisibleToOtherNodes(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 7)
	r := h.do(1, OpLoad, a)
	if r.Value != 7 {
		t.Fatalf("remote load = %d, want 7", r.Value)
	}
	// And the writer's copy was downgraded, not lost.
	r = h.do(0, OpLoad, a)
	if r.Value != 7 || r.Chain != 0 {
		t.Fatalf("owner reload = %+v", r)
	}
}

func TestWriteInvalidateSemantics(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.do(0, OpStore, a, 1)
	h.do(1, OpStore, a, 2) // invalidates node 0's copy
	r := h.do(0, OpLoad, a)
	if r.Value != 2 {
		t.Fatalf("node 0 read %d after remote store, want 2", r.Value)
	}
	if r.Chain == 0 {
		t.Fatal("node 0 hit a stale copy")
	}
}

func TestDistinctWordsSameBlockShareLine(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpStore, a, 1)
	h.do(0, OpStore, a+4, 2)
	if r := h.do(0, OpLoad, a); r.Value != 1 {
		t.Fatalf("word 0 = %d", r.Value)
	}
	if r := h.do(0, OpLoad, a+4); r.Value != 2 || r.Chain != 0 {
		t.Fatalf("word 1 = %+v", r)
	}
}

func TestCoherenceInvariantAfterTraffic(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(0, 0)
	b := h.addrAtHome(1, 0)
	for i := 0; i < 4; i++ {
		h.do(i%4, OpStore, a, arch.Word(i))
		h.do((i+1)%4, OpLoad, b)
		h.do((i+2)%4, OpStore, b, arch.Word(i))
	}
	h.drain()
	h.sys.CheckCoherence()
}

// --------------------------------------------------- Table 1 chains -----

func TestChainUNCStore(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0) // home is node 1
	h.sys.SetPolicy(a, PolicyUNC)
	r := h.do(0, OpStore, a, 5)
	if r.Chain != 2 {
		t.Fatalf("UNC store chain = %d, want 2", r.Chain)
	}
	// Home-local UNC store crosses no network.
	r = h.do(1, OpStore, a, 6)
	if r.Chain != 0 {
		t.Fatalf("home-local UNC store chain = %d, want 0", r.Chain)
	}
}

func TestChainINVStoreCachedExclusive(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpStore, a, 1)
	r := h.do(0, OpStore, a, 2)
	if r.Chain != 0 {
		t.Fatalf("cached-exclusive store chain = %d, want 0", r.Chain)
	}
}

func TestChainINVStoreUncachedBlock(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	r := h.do(0, OpStore, a, 1)
	if r.Chain != 2 {
		t.Fatalf("store to unowned block chain = %d, want 2", r.Chain)
	}
}

func TestChainINVStoreRemoteExclusive(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 1) // node 0 owns exclusively
	r := h.do(1, OpStore, a, 2)
	if r.Chain != 4 {
		t.Fatalf("store to remote-exclusive chain = %d, want 4", r.Chain)
	}
}

func TestChainINVStoreRemoteShared(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.do(0, OpLoad, a)
	h.do(1, OpLoad, a)
	r := h.do(2, OpStore, a, 9)
	if r.Chain != 3 {
		t.Fatalf("store to remote-shared chain = %d, want 3", r.Chain)
	}
}

func TestChainUPDStoreCachedElsewhere(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpLoad, a) // node 0 caches a copy
	r := h.do(1, OpStore, a, 4)
	if r.Chain != 3 {
		t.Fatalf("UPD store with a remote copy chain = %d, want 3", r.Chain)
	}
}

func TestChainUPDStoreUncached(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	r := h.do(0, OpStore, a, 4)
	if r.Chain != 2 {
		t.Fatalf("UPD store uncached chain = %d, want 2", r.Chain)
	}
}

// --------------------------------------------------------- fetch_and_Φ --

func TestFetchAddSemantics(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	if r := h.do(0, OpFetchAdd, a, 5); r.Value != 0 {
		t.Fatalf("first FAA returned %d", r.Value)
	}
	if r := h.do(1, OpFetchAdd, a, 3); r.Value != 5 {
		t.Fatalf("second FAA returned %d", r.Value)
	}
	if r := h.do(2, OpLoad, a); r.Value != 8 {
		t.Fatalf("final value %d", r.Value)
	}
}

func TestFetchStoreAndOrAndTAS(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(0, 0)
	if r := h.do(1, OpFetchStore, a, 0xf0); r.Value != 0 {
		t.Fatalf("fetch_and_store old = %d", r.Value)
	}
	if r := h.do(2, OpFetchOr, a, 0x0f); r.Value != 0xf0 {
		t.Fatalf("fetch_and_or old = %#x", r.Value)
	}
	if r := h.do(3, OpLoad, a); r.Value != 0xff {
		t.Fatalf("value after or = %#x", r.Value)
	}
	b := h.addrAtHome(0, 1)
	if r := h.do(1, OpTestAndSet, b); r.Value != 0 {
		t.Fatalf("TAS old = %d", r.Value)
	}
	if r := h.do(2, OpTestAndSet, b); r.Value != 1 {
		t.Fatalf("second TAS old = %d", r.Value)
	}
}

func TestConcurrentFetchAddLinearizable(t *testing.T) {
	for _, p := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			h := newH(t)
			a := h.addrAtHome(2, 0)
			h.sys.SetPolicy(a, p)
			reqs := map[int]Request{}
			for n := 0; n < 4; n++ {
				reqs[n] = Request{Op: OpFetchAdd, Addr: a, Val: 1}
			}
			res := h.doAll(reqs)
			seen := map[arch.Word]bool{}
			for n, r := range res {
				if seen[r.Value] {
					t.Fatalf("node %d fetched duplicate value %d", n, r.Value)
				}
				seen[r.Value] = true
			}
			if r := h.do(0, OpLoad, a); r.Value != 4 {
				t.Fatalf("final counter = %d, want 4", r.Value)
			}
			h.drain()
			h.sys.CheckCoherence()
		})
	}
}

// ------------------------------------------------------------------ CAS --

func TestCASSuccessAndFailure(t *testing.T) {
	for _, p := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			h := newH(t)
			a := h.addrAtHome(1, 0)
			h.sys.SetPolicy(a, p)
			if r := h.do(0, OpCAS, a, 0, 10); !r.OK || r.Value != 0 {
				t.Fatalf("CAS(0->10) = %+v", r)
			}
			if r := h.do(1, OpCAS, a, 0, 20); r.OK {
				t.Fatalf("CAS with stale expected succeeded: %+v", r)
			}
			if r := h.do(2, OpLoad, a); r.Value != 10 {
				t.Fatalf("value = %d, want 10", r.Value)
			}
		})
	}
}

func TestCASConcurrentOnlyOneWins(t *testing.T) {
	for _, v := range []CASVariant{CASPlain, CASDeny, CASShare} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			h := newH(t, func(c *Config) { c.CAS = v })
			a := h.addrAtHome(3, 0)
			reqs := map[int]Request{}
			for n := 0; n < 4; n++ {
				reqs[n] = Request{Op: OpCAS, Addr: a, Val: 0, Val2: arch.Word(100 + n)}
			}
			res := h.doAll(reqs)
			winners := 0
			var winVal arch.Word
			for n, r := range res {
				if r.OK {
					winners++
					winVal = arch.Word(100 + n)
				}
			}
			if winners != 1 {
				t.Fatalf("%d CAS winners, want 1", winners)
			}
			if r := h.do(0, OpLoad, a); r.Value != winVal {
				t.Fatalf("value %d, winner wrote %d", r.Value, winVal)
			}
			h.drain()
			h.sys.CheckCoherence()
		})
	}
}

func TestCASDenyFailureLeavesNoCopy(t *testing.T) {
	h := newH(t, func(c *Config) { c.CAS = CASDeny })
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 5) // node 0 exclusive
	r := h.do(1, OpCAS, a, 99, 1)
	if r.OK {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if r.Value != 5 {
		t.Fatalf("CAS fail returned value %d, want 5", r.Value)
	}
	if h.sys.Cache(1).CacheArray().Peek(a) != nil {
		t.Fatal("INVd failure left a cached copy at requester")
	}
	// Chain: request -> forward to owner -> direct denial = 3.
	if r.Chain != 3 {
		t.Fatalf("INVd remote-exclusive fail chain = %d, want 3", r.Chain)
	}
	// The owner keeps its exclusive copy.
	l := h.sys.Cache(0).CacheArray().Peek(a)
	if l == nil || l.State != cache.ExclusiveRW {
		t.Fatal("INVd failure disturbed the owner's copy")
	}
	h.drain()
	h.sys.CheckCoherence()
}

func TestCASShareFailureLeavesSharedCopy(t *testing.T) {
	h := newH(t, func(c *Config) { c.CAS = CASShare })
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 5)
	r := h.do(1, OpCAS, a, 99, 1)
	if r.OK || r.Value != 5 {
		t.Fatalf("CAS = %+v", r)
	}
	l := h.sys.Cache(1).CacheArray().Peek(a)
	if l == nil || l.State != cache.SharedRO {
		t.Fatalf("INVs failure did not leave a shared copy: %+v", l)
	}
	if l.Word(a) != 5 {
		t.Fatalf("shared copy holds %d, want 5", l.Word(a))
	}
	// Former owner was downgraded, not invalidated.
	ol := h.sys.Cache(0).CacheArray().Peek(a)
	if ol == nil || ol.State != cache.SharedRO {
		t.Fatal("INVs failure did not downgrade the owner")
	}
	h.drain()
	h.sys.CheckCoherence()
}

func TestCASHomeFailVariantsAtUnownedBlock(t *testing.T) {
	h := newH(t, func(c *Config) { c.CAS = CASDeny })
	a := h.addrAtHome(1, 0)
	if r := h.do(0, OpCAS, a, 99, 1); r.OK || r.Chain != 2 {
		t.Fatalf("INVd fail at home = %+v, want fail chain 2", r)
	}
	if h.sys.Cache(0).CacheArray().Peek(a) != nil {
		t.Fatal("INVd left a copy")
	}

	h2 := newH(t, func(c *Config) { c.CAS = CASShare })
	if r := h2.do(0, OpCAS, a, 99, 1); r.OK {
		t.Fatalf("INVs fail = %+v", r)
	}
	l := h2.sys.Cache(0).CacheArray().Peek(a)
	if l == nil || l.State != cache.SharedRO {
		t.Fatal("INVs did not leave shared copy on home-fail")
	}
}

func TestCASVariantSuccessMigratesExclusive(t *testing.T) {
	for _, v := range []CASVariant{CASDeny, CASShare} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			h := newH(t, func(c *Config) { c.CAS = v })
			a := h.addrAtHome(2, 0)
			h.do(0, OpStore, a, 5)
			r := h.do(1, OpCAS, a, 5, 6)
			if !r.OK {
				t.Fatalf("CAS = %+v", r)
			}
			if r.Chain != 4 {
				t.Fatalf("remote-exclusive success chain = %d, want 4", r.Chain)
			}
			l := h.sys.Cache(1).CacheArray().Peek(a)
			if l == nil || l.State != cache.ExclusiveRW || l.Word(a) != 6 {
				t.Fatalf("requester line = %+v", l)
			}
			if h.sys.Cache(0).CacheArray().Peek(a) != nil {
				t.Fatal("former owner kept a copy after successful CAS")
			}
			h.drain()
			h.sys.CheckCoherence()
		})
	}
}

// ---------------------------------------------------------------- LL/SC --

func TestLLSCSuccessWithoutIntervention(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	r := h.do(0, OpLL, a)
	if r.Value != 0 {
		t.Fatalf("LL = %+v", r)
	}
	if r := h.do(0, OpSC, a, 1); !r.OK {
		t.Fatalf("SC failed without intervention: %+v", r)
	}
	if r := h.do(1, OpLoad, a); r.Value != 1 {
		t.Fatalf("value = %d", r.Value)
	}
}

func TestSCFailsAfterInterveningWrite(t *testing.T) {
	for _, p := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			h := newH(t)
			a := h.addrAtHome(1, 0)
			h.sys.SetPolicy(a, p)
			h.do(0, OpLL, a)
			h.do(1, OpStore, a, 9)
			req := Request{Op: OpSC, Addr: a, Val: 1}
			if p == PolicyINV {
				// nothing extra
			}
			if r := h.doReq(0, req); r.OK {
				t.Fatal("SC succeeded after intervening write")
			}
			if r := h.do(2, OpLoad, a); r.Value != 9 {
				t.Fatalf("value = %d, want 9", r.Value)
			}
		})
	}
}

func TestSCFailsLocallyWithoutReservation(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	before := h.sys.Counters().SCFailLocal
	r := h.do(0, OpSC, a, 1)
	if r.OK || r.Chain != 0 {
		t.Fatalf("bare SC = %+v, want local failure", r)
	}
	if h.sys.Counters().SCFailLocal != before+1 {
		t.Fatal("local SC failure not counted")
	}
}

func TestSCFailsAfterSameWordWriteOfSameValue(t *testing.T) {
	// Unlike CAS, SC must fail even when the intervening write stored the
	// same value that LL read (the pointer/ABA problem motivation).
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpLL, a)       // reads 0
	h.do(1, OpStore, a, 0) // writes the same value
	if r := h.do(0, OpSC, a, 1); r.OK {
		t.Fatal("SC succeeded despite intervening same-value write")
	}
}

func TestConcurrentLLSCOnlyOneSucceeds(t *testing.T) {
	for _, p := range []Policy{PolicyINV, PolicyUPD, PolicyUNC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			h := newH(t)
			a := h.addrAtHome(0, 0)
			h.sys.SetPolicy(a, p)
			// Everyone LLs, then everyone SCs.
			llReqs := map[int]Request{}
			for n := 0; n < 4; n++ {
				llReqs[n] = Request{Op: OpLL, Addr: a}
			}
			h.doAll(llReqs)
			scReqs := map[int]Request{}
			for n := 0; n < 4; n++ {
				scReqs[n] = Request{Op: OpSC, Addr: a, Val: arch.Word(n + 1)}
			}
			res := h.doAll(scReqs)
			wins := 0
			var winner int
			for n, r := range res {
				if r.OK {
					wins++
					winner = n
				}
			}
			if wins != 1 {
				t.Fatalf("%d SC winners, want exactly 1", wins)
			}
			if r := h.do(0, OpLoad, a); r.Value != arch.Word(winner+1) {
				t.Fatalf("value %d, winner was %d", r.Value, winner)
			}
			h.drain()
			h.sys.CheckCoherence()
		})
	}
}

func TestLLSCSecondSCAfterSuccessFails(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, OpLL, a)
	if r := h.do(0, OpSC, a, 1); !r.OK {
		t.Fatal("first SC failed")
	}
	if r := h.do(0, OpSC, a, 2); r.OK {
		t.Fatal("second SC succeeded without a new LL")
	}
}

func TestLimitedReservationHint(t *testing.T) {
	h := newH(t, func(c *Config) {
		c.ResvScheme = dir.ResvLimited
		c.ResvLimit = 1
	})
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUNC)
	if h.do(0, OpLL, a); h.sys.caches[0].llHintFail {
		t.Fatal("first LL hinted failure")
	}
	if h.do(2, OpLL, a); !h.sys.caches[2].llHintFail {
		t.Fatal("beyond-limit LL did not hint")
	}
	// The hinted node's SC fails locally, without network traffic.
	msgsBefore := h.net.Stats().Messages
	if r := h.do(2, OpSC, a, 5); r.OK || r.Chain != 0 {
		t.Fatalf("hinted SC = %+v, want local fail", r)
	}
	if h.net.Stats().Messages != msgsBefore {
		t.Fatal("hinted SC generated network traffic")
	}
	// The within-limit holder still succeeds.
	if r := h.do(0, OpSC, a, 7); !r.OK {
		t.Fatal("within-limit SC failed")
	}
}

func TestSerialSchemeBareSC(t *testing.T) {
	h := newH(t, func(c *Config) { c.ResvScheme = dir.ResvSerial })
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUNC)
	r := h.do(0, OpLL, a)
	serial := r.Serial
	// A bare SC from another processor carrying the current serial
	// succeeds: no explicit reservation is needed under this scheme.
	if r := h.doReq(1, Request{Op: OpSC, Addr: a, Val: 5, Val2: serial}); !r.OK {
		t.Fatal("bare SC with current serial failed")
	}
	// The original holder's SC now fails: the serial advanced.
	if r := h.doReq(0, Request{Op: OpSC, Addr: a, Val: 9, Val2: serial}); r.OK {
		t.Fatal("stale-serial SC succeeded")
	}
	if r := h.do(2, OpLoad, a); r.Value != 5 {
		t.Fatalf("value = %d", r.Value)
	}
}

// ------------------------------------------- auxiliary instructions -----

func TestLoadExclusiveMakesCASLocal(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	r := h.do(0, OpLoadExclusive, a)
	if r.Value != 0 {
		t.Fatalf("load_exclusive = %+v", r)
	}
	// The subsequent CAS hits the exclusive copy: zero chain.
	r = h.do(0, OpCAS, a, 0, 1)
	if !r.OK || r.Chain != 0 {
		t.Fatalf("CAS after load_exclusive = %+v, want local success", r)
	}
}

func TestDropCopyExclusiveShortensNextRemoteStore(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 1)
	h.do(0, OpDropCopy, a)
	h.drain() // let the write-back land
	r := h.do(1, OpStore, a, 2)
	if r.Chain != 2 {
		t.Fatalf("store after drop chain = %d, want 2 (vs 4 without drop)", r.Chain)
	}
	if r := h.do(3, OpLoad, a); r.Value != 2 {
		t.Fatalf("value = %d", r.Value)
	}
}

func TestDropCopySharedRemovesSharer(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpLoad, a)
	h.do(1, OpLoad, a)
	h.do(0, OpDropCopy, a)
	h.drain()
	r := h.do(3, OpStore, a, 1)
	// Only node 1 still shares: chain stays 3, but exactly one
	// invalidation was sent.
	if r.Chain != 3 {
		t.Fatalf("chain = %d", r.Chain)
	}
	if h.sys.Counters().Invals != 1 {
		t.Fatalf("invals = %d, want 1 (dropped sharer not invalidated)", h.sys.Counters().Invals)
	}
}

func TestDropCopyAbsentLineIsNoop(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	msgs := h.net.Stats().Messages
	r := h.do(0, OpDropCopy, a)
	if !r.OK {
		t.Fatal("drop of absent line failed")
	}
	h.drain()
	if h.net.Stats().Messages != msgs {
		t.Fatal("drop of absent line generated traffic")
	}
}

func TestDropCopyRaceWithRecallRecovers(t *testing.T) {
	// Node 0 owns; it drops its copy at the same instant node 1 requests
	// exclusivity. The paper: the home NAKs the requester, which retries.
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, OpStore, a, 1)
	res := h.doAll(map[int]Request{
		0: {Op: OpDropCopy, Addr: a},
		1: {Op: OpStore, Addr: a, Val: 2},
	})
	if !res[1].OK {
		t.Fatal("store lost in drop/recall race")
	}
	if r := h.do(3, OpLoad, a); r.Value != 2 {
		t.Fatalf("value = %d, want 2", r.Value)
	}
	h.drain()
	h.sys.CheckCoherence()
}

// -------------------------------------------------------------- UPD -----

func TestUPDUpdatesSharedCopiesInPlace(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpLoad, a) // node 0 caches
	h.do(1, OpStore, a, 77)
	// Node 0's copy was updated, not invalidated: hit with the new value.
	r := h.do(0, OpLoad, a)
	if r.Value != 77 || r.Chain != 0 {
		t.Fatalf("post-update read = %+v, want hit of 77", r)
	}
}

func TestUPDWriterRetainsSharedCopy(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(1, OpStore, a, 5)
	r := h.do(1, OpLoad, a)
	if r.Chain != 0 || r.Value != 5 {
		t.Fatalf("writer's read = %+v, want local hit", r)
	}
}

func TestUPDLLGoesToMemoryEvenWhenCached(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpLoad, a) // cached locally
	r := h.do(0, OpLL, a)
	if r.Chain == 0 {
		t.Fatal("UPD LL satisfied locally; reservations live at memory")
	}
	if r2 := h.do(0, OpSC, a, 3); !r2.OK {
		t.Fatalf("SC after LL failed: %+v", r2)
	}
}

func TestUPDFetchAddUpdatesAllCopies(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.sys.SetPolicy(a, PolicyUPD)
	h.do(0, OpLoad, a)
	h.do(1, OpLoad, a)
	h.do(2, OpFetchAdd, a, 10)
	for n := 0; n < 2; n++ {
		r := h.do(n, OpLoad, a)
		if r.Value != 10 || r.Chain != 0 {
			t.Fatalf("node %d read = %+v, want updated hit", n, r)
		}
	}
}

// -------------------------------------------------------------- UNC -----

func TestUNCNeverCaches(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.sys.SetPolicy(a, PolicyUNC)
	h.do(0, OpStore, a, 3)
	h.do(0, OpLoad, a)
	if h.sys.Cache(0).CacheArray().Peek(a) != nil {
		t.Fatal("UNC data found in a cache")
	}
	// Every access goes to memory: same chain every time.
	if r := h.do(0, OpLoad, a); r.Chain != 2 {
		t.Fatalf("UNC load chain = %d, want 2", r.Chain)
	}
}

func TestUNCAlternatingWritersConstantCost(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(3, 0)
	h.sys.SetPolicy(a, PolicyUNC)
	for i := 0; i < 6; i++ {
		r := h.do(i%2, OpFetchAdd, a, 1)
		if r.Chain != 2 {
			t.Fatalf("UNC FAA chain = %d, want 2", r.Chain)
		}
	}
	if r := h.do(0, OpLoad, a); r.Value != 6 {
		t.Fatalf("counter = %d", r.Value)
	}
}

// ------------------------------------------------------------ tracking --

func TestContentionHistogramRecordsConcurrency(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(0, 0)
	reqs := map[int]Request{}
	for n := 0; n < 4; n++ {
		reqs[n] = Request{Op: OpFetchAdd, Addr: a, Val: 1}
	}
	h.doAll(reqs)
	hist := h.sys.Contention().Histogram()
	if hist.Total() != 4 {
		t.Fatalf("contention samples = %d, want 4", hist.Total())
	}
	if hist.Max() < 2 {
		t.Fatalf("max contention = %d, want >= 2 for concurrent FAAs", hist.Max())
	}
}

func TestWriteRunTracking(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(0, 0)
	// Two consecutive atomic updates by node 0, then one by node 1.
	h.do(0, OpFetchAdd, a, 1)
	h.do(0, OpFetchAdd, a, 1)
	h.do(1, OpFetchAdd, a, 1)
	wr := h.sys.WriteRuns()
	wr.Flush()
	if wr.Histogram().Count(2) != 1 || wr.Histogram().Count(1) != 1 {
		t.Fatalf("write runs = %s", wr.Histogram())
	}
}

// --------------------------------------------------------- stress -------

// TestStressRandomOpsAllPolicies hammers a handful of words from all nodes
// with random operations and validates linearizability of the counter
// words, coherence invariants, and liveness.
func TestStressRandomOpsAllPolicies(t *testing.T) {
	policies := []Policy{PolicyINV, PolicyUPD, PolicyUNC}
	variants := []CASVariant{CASPlain, CASDeny, CASShare}
	for _, p := range policies {
		for _, v := range variants {
			p, v := p, v
			t.Run(p.String()+"/"+v.String(), func(t *testing.T) {
				stressOnce(t, p, v, 42)
			})
		}
	}
}

func stressOnce(t *testing.T, p Policy, v CASVariant, seed uint64) {
	h := newH(t, func(c *Config) { c.CAS = v })
	const nodes = 4
	counter := h.addrAtHome(1, 0)
	other := h.addrAtHome(2, 0)
	h.sys.SetPolicy(counter, p)
	h.sys.SetPolicy(other, p)

	var succIncr int
	remaining := nodes
	rng := sim.NewRNG(seed)
	perNode := make([]sim.RNG, nodes)
	for n := range perNode {
		rng.ForkInto(&perNode[n], uint64(n))
	}

	var step func(n int, left int)
	step = func(n int, left int) {
		if left == 0 {
			remaining--
			return
		}
		r := &perNode[n]
		issue := func(req Request, after func(Result)) {
			req.Done = func(res Result) {
				if after != nil {
					after(res)
				}
				step(n, left-1)
			}
			h.sys.Cache(mesh.NodeID(n)).Issue(req)
		}
		switch r.Intn(6) {
		case 0: // fetch_and_add on the counter
			issue(Request{Op: OpFetchAdd, Addr: counter, Val: 1}, func(Result) { succIncr++ })
		case 1: // CAS-increment attempt (one shot; count only successes)
			h.sys.Cache(mesh.NodeID(n)).Issue(Request{
				Op: OpLoad, Addr: counter,
				Done: func(lr Result) {
					h.sys.Cache(mesh.NodeID(n)).Issue(Request{
						Op: OpCAS, Addr: counter, Val: lr.Value, Val2: lr.Value + 1,
						Done: func(cr Result) {
							if cr.OK {
								succIncr++
							}
							step(n, left-1)
						},
					})
				},
			})
			return
		case 2: // LL/SC increment attempt
			h.sys.Cache(mesh.NodeID(n)).Issue(Request{
				Op: OpLL, Addr: counter,
				Done: func(lr Result) {
					h.sys.Cache(mesh.NodeID(n)).Issue(Request{
						Op: OpSC, Addr: counter, Val: lr.Value + 1, Val2: lr.Serial,
						Done: func(sr Result) {
							if sr.OK {
								succIncr++
							}
							step(n, left-1)
						},
					})
				},
			})
			return
		case 3: // unrelated traffic
			issue(Request{Op: OpStore, Addr: other, Val: arch.Word(r.Intn(1000))}, nil)
		case 4:
			issue(Request{Op: OpLoad, Addr: other}, nil)
		case 5:
			issue(Request{Op: OpDropCopy, Addr: counter}, nil)
		}
	}

	const opsPerNode = 60
	for n := 0; n < nodes; n++ {
		n := n
		h.eng.At(0, func() { step(n, opsPerNode) })
	}
	limit := 0
	for remaining > 0 {
		if !h.eng.Step() {
			t.Fatalf("stress deadlocked with %d nodes unfinished", remaining)
		}
		limit++
		if limit > 5_000_000 {
			t.Fatal("stress did not converge")
		}
	}
	h.drain()
	final := h.do(0, OpLoad, counter)
	if int(final.Value) != succIncr {
		t.Fatalf("counter = %d but %d successful increments", final.Value, succIncr)
	}
	h.sys.CheckCoherence()
}

// TestStress64Nodes runs the same workload at full machine size.
func TestStress64Nodes(t *testing.T) {
	h := newH(t, func(c *Config) {
		c.Nodes = 64
		c.Mesh = mesh.DefaultConfig()
	})
	a := h.addrAtHome(17, 0)
	reqs := map[int]Request{}
	for n := 0; n < 64; n++ {
		reqs[n] = Request{Op: OpFetchAdd, Addr: a, Val: 1}
	}
	h.doAll(reqs)
	if r := h.do(0, OpLoad, a); r.Value != 64 {
		t.Fatalf("counter = %d, want 64", r.Value)
	}
	h.drain()
	h.sys.CheckCoherence()
}

// ------------------------------------------------------------ misc ------

func TestPolicyAndVariantNames(t *testing.T) {
	if PolicyINV.String() != "INV" || PolicyUPD.String() != "UPD" || PolicyUNC.String() != "UNC" {
		t.Fatal("policy names wrong")
	}
	if CASPlain.String() != "INV" || CASDeny.String() != "INVd" || CASShare.String() != "INVs" {
		t.Fatal("variant names wrong")
	}
}

func TestOpNamesAndClasses(t *testing.T) {
	if OpCAS.String() != "compare_and_swap" || OpLL.String() != "load_linked" {
		t.Fatal("op names wrong")
	}
	if !OpCAS.IsAtomic() || !OpLL.IsAtomic() || OpLoad.IsAtomic() || OpDropCopy.IsAtomic() {
		t.Fatal("IsAtomic misclassifies")
	}
}

func TestHomeOfInterleavesBlocks(t *testing.T) {
	h := newH(t)
	if h.sys.HomeOf(0) != 0 || h.sys.HomeOf(32) != 1 || h.sys.HomeOf(4*32) != 0 {
		t.Fatal("block interleaving wrong")
	}
	// Same block, same home regardless of offset.
	if h.sys.HomeOf(33) != h.sys.HomeOf(32) {
		t.Fatal("home differs within a block")
	}
}

func TestIssueWhileBusyPanics(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Issue did not panic")
		}
	}()
	h.eng.At(0, func() {
		c := h.sys.Cache(0)
		c.Issue(Request{Op: OpLoad, Addr: a})
		c.Issue(Request{Op: OpLoad, Addr: a})
	})
	for h.eng.Step() {
	}
}

func TestNakAndRetryCountersMove(t *testing.T) {
	// Force recall/NAK traffic with a drop race and confirm the counters
	// observe it (the exact numbers are protocol-internal).
	h := newH(t)
	a := h.addrAtHome(2, 0)
	for i := 0; i < 10; i++ {
		h.do(0, OpStore, a, 1)
		h.doAll(map[int]Request{
			0: {Op: OpDropCopy, Addr: a},
			1: {Op: OpStore, Addr: a, Val: 2},
		})
	}
	c := h.sys.Counters()
	if c.Requests == 0 || c.Writebacks == 0 {
		t.Fatalf("counters = %+v", c)
	}
}
