package core

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// reissuer drives one node's share of a contended workload: its Done
// callback immediately issues the next operation until the quota is spent.
// Both hooks are allocated once, so a warmed-up run allocates nothing.
type reissuer struct {
	sys     *System
	node    mesh.NodeID
	addr    arch.Addr
	left    int
	issueFn func()
	done    func(Result)
}

// TestHotPathZeroAlloc pins the PR's central invariant: once the message
// pool, event pool, and stats tables are warm, the request -> message ->
// delivery -> completion path allocates nothing, under all three policies.
func TestHotPathZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	eng := sim.NewEngine()
	net := mesh.New(eng, cfg.Mesh)
	sys := NewSystem(eng, net, cfg)

	inv := arch.Addr(1 * arch.BlockBytes) // homed at node 1, PolicyINV default
	upd := arch.Addr(2 * arch.BlockBytes) // homed at node 2
	unc := arch.Addr(3 * arch.BlockBytes) // homed at node 3
	sys.SetPolicy(upd, proto.PolicyUPD)
	sys.SetPolicy(unc, proto.PolicyUNC)
	addrs := []arch.Addr{inv, upd, unc}

	remaining := 0
	drivers := make([]*reissuer, cfg.Nodes)
	for n := range drivers {
		d := &reissuer{sys: sys, node: mesh.NodeID(n)}
		d.issueFn = func() {
			d.sys.Cache(d.node).Issue(Request{
				Op: proto.OpFetchAdd, Addr: d.addr, Val: 1, Done: d.done,
			})
		}
		d.done = func(Result) {
			d.left--
			if d.left > 0 {
				d.issueFn()
			} else {
				remaining--
			}
		}
		drivers[n] = d
	}

	// One run: for each policy in turn, all four nodes hammer the same word
	// with fetch_and_add (NAKs, retries, recalls, invalidations, updates),
	// then the engine drains. The schedule is deterministic, so the warmup
	// run reaches every pool's steady-state size.
	const opsPerDriver = 8
	run := func() {
		for _, a := range addrs {
			remaining = len(drivers)
			for _, d := range drivers {
				d.addr = a
				d.left = opsPerDriver
			}
			for _, d := range drivers {
				eng.At(eng.Now(), d.issueFn)
			}
			for remaining > 0 {
				if !eng.Step() {
					t.Fatal("deadlock in zero-alloc workload")
				}
			}
			for eng.Step() { // drain write-backs and drop hints
			}
		}
	}

	run() // warm pools, directory entries, memory blocks, stats tables

	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Fatalf("steady-state hot path allocated %.1f times per run, want 0", got)
	}
	sys.CheckCoherence()
}

// mixedWorkload drives a deterministic mixed-policy workload on a 4-node
// harness: contended fetch_and_add on INV/UPD/UNC blocks, CAS and LL/SC
// traffic, loads/stores causing migrations and recalls, and drop_copy.
// TestPoolRecyclingPreservesProtocol compares its observable outcome against
// values recorded before messages and transactions were pooled.
func mixedWorkload(h *H) {
	inv := h.addrAtHome(1, 0)
	upd := h.addrAtHome(2, 0)
	unc := h.addrAtHome(3, 0)
	h.sys.SetPolicy(upd, proto.PolicyUPD)
	h.sys.SetPolicy(unc, proto.PolicyUNC)

	for round := 0; round < 6; round++ {
		for _, a := range []arch.Addr{inv, upd, unc} {
			reqs := map[int]Request{}
			for n := 0; n < 4; n++ {
				reqs[n] = Request{Op: proto.OpFetchAdd, Addr: a, Val: 1}
			}
			h.doAll(reqs)
		}
		// CAS contention (success and failure mixed).
		h.doAll(map[int]Request{
			0: {Op: proto.OpCAS, Addr: inv, Val: arch.Word(4 * (round + 1)), Val2: 100},
			1: {Op: proto.OpCAS, Addr: inv, Val: 0, Val2: 200},
			2: {Op: proto.OpLoad, Addr: inv},
			3: {Op: proto.OpStore, Addr: inv, Val: arch.Word(4 * (round + 1))},
		})
		// LL/SC on each policy.
		for _, a := range []arch.Addr{inv, upd, unc} {
			v := h.do(2, proto.OpLL, a)
			h.do(2, proto.OpSC, a, v.Value+1)
		}
		h.do(1, proto.OpDropCopy, inv)
		h.do(0, proto.OpLoadExclusive, inv)
		h.do(3, proto.OpFetchOr, upd, 2)
		h.do(3, proto.OpTestAndSet, unc)
	}
	for h.eng.Step() { // drain fire-and-forget traffic
	}
}

// TestPoolRecyclingPreservesProtocol pins the complete observable behavior
// of mixedWorkload — protocol counters, per-class chain histograms,
// contention histogram, and write-run histogram — to the values measured
// before message pooling, transaction reuse, and indexed stats recording
// were introduced. Any ownership bug in the message free list (freeing a
// retained request, replaying a recycled message, double delivery) perturbs
// at least one of these.
func TestPoolRecyclingPreservesProtocol(t *testing.T) {
	h := newH(t)
	mixedWorkload(h)
	h.sys.CheckCoherence()

	if got, want := h.sys.Counters(), (Counters{
		Requests: 156, LocalHits: 43, Naks: 36, Retries: 36,
		Invals: 6, Updates: 96, Writebacks: 42, SCFailLocal: 0,
	}); got != want {
		t.Errorf("counters changed:\n got %+v\nwant %+v", got, want)
	}

	wantChains := map[string]string{
		"compare_and_swap/INV":  "2:12",
		"drop_copy/INV":         "0:6",
		"fetch_and_add/INV":     "0:6 2:11 4:7",
		"fetch_and_add/UNC":     "0:6 2:18",
		"fetch_and_add/UPD":     "0:1 2:6 3:17",
		"fetch_and_or/UPD":      "2:2 3:4",
		"load/INV":              "4:6",
		"load_exclusive/INV":    "4:6",
		"load_linked/INV":       "0:6",
		"load_linked/UNC":       "2:6",
		"load_linked/UPD":       "0:6",
		"store/INV":             "0:6",
		"store_conditional/INV": "3:6",
		"store_conditional/UNC": "2:6",
		"store_conditional/UPD": "2:6",
		"test_and_set/UNC":      "0:6",
	}
	for cl, hist := range h.sys.Chains().All() {
		want, ok := wantChains[cl]
		if !ok {
			t.Errorf("unexpected chain class %q: %s", cl, hist)
			continue
		}
		if got := hist.String(); got != want {
			t.Errorf("chain %q changed: got %s, want %s", cl, got, want)
		}
		delete(wantChains, cl)
	}
	for cl := range wantChains {
		t.Errorf("chain class %q missing", cl)
	}

	if got, want := h.sys.Contention().Histogram().String(), "1:72 2:24 3:18 4:18"; got != want {
		t.Errorf("contention histogram changed: got %s, want %s", got, want)
	}
	h.sys.WriteRuns().Flush()
	if got, want := h.sys.WriteRuns().Histogram().String(), "1:90 2:26 4:11"; got != want {
		t.Errorf("write-run histogram changed: got %s, want %s", got, want)
	}
}
