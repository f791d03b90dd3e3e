package core

import (
	"testing"

	"dsm/internal/dir"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// White-box tests for transient-state branches: requests racing the
// requester's own in-flight write-back, and stale recall responses
// arriving after the transaction they belonged to has completed.

// evictOwnLine makes node 0 own the block, then displaces it so the
// write-back is in flight, and immediately re-requests it.
func TestOwnerRetriesWhileOwnWritebackInFlight(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, proto.OpStore, a, 5)
	// Drop and immediately re-store without draining: the directory still
	// names node 0 the owner when the new request arrives, forcing the
	// owner==requester NAK path; the retry succeeds once the write-back
	// lands.
	res := h.doAll(map[int]Request{
		0: {Op: proto.OpDropCopy, Addr: a},
	})
	_ = res
	// Issue the store before the WB reaches home (no drain).
	r := h.do(0, proto.OpStore, a, 6)
	if !r.OK {
		t.Fatal("store after own drop failed")
	}
	h.drain()
	if v := h.do(1, proto.OpLoad, a); v.Value != 6 {
		t.Fatalf("value = %d, want 6", v.Value)
	}
	if h.sys.Counters().Naks == 0 {
		t.Log("note: write-back landed before the retry was needed")
	}
	h.sys.CheckCoherence()
}

func TestOwnerReadRetriesWhileOwnWritebackInFlight(t *testing.T) {
	h := newH(t)
	a := h.addrAtHome(2, 0)
	h.do(0, proto.OpStore, a, 5)
	h.doAll(map[int]Request{0: {Op: proto.OpDropCopy, Addr: a}})
	r := h.do(0, proto.OpLoad, a)
	if r.Value != 5 {
		t.Fatalf("read after own drop = %d, want 5", r.Value)
	}
	h.drain()
	h.sys.CheckCoherence()
}

func TestStaleRecallNakIgnored(t *testing.T) {
	// Deliver a recall-nak for a block with no transaction in flight; the
	// home must ignore it.
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, proto.OpStore, a, 3)
	home := h.sys.Home(1)
	h.eng.At(h.eng.Now(), func() {
		h.sys.send(2, 1, &msg{kind: proto.KRecallNak, addr: a, requester: 2}, true)
	})
	h.drain()
	if v := h.do(2, proto.OpLoad, a); v.Value != 3 {
		t.Fatalf("value = %d", v.Value)
	}
	_ = home
	h.sys.CheckCoherence()
}

func TestStaleCASReleaseIgnored(t *testing.T) {
	h := newH(t, func(c *Config) { c.CAS = proto.CASDeny })
	a := h.addrAtHome(1, 0)
	h.do(0, proto.OpStore, a, 3)
	h.eng.At(h.eng.Now(), func() {
		h.sys.send(2, 1, &msg{kind: proto.KCASRel, addr: a, requester: 2}, true)
	})
	h.drain()
	// The block must still be recallable and usable.
	if r := h.do(2, proto.OpFetchAdd, a, 1); r.Value != 3 {
		t.Fatalf("FAA = %+v", r)
	}
	h.drain()
	h.sys.CheckCoherence()
}

func TestStaleDropHintIgnored(t *testing.T) {
	// A drop hint from a node the directory no longer lists is ignored.
	h := newH(t)
	a := h.addrAtHome(1, 0)
	h.do(0, proto.OpLoad, a)
	h.do(2, proto.OpStore, a, 9) // invalidates node 0; directory forgets it
	h.eng.At(h.eng.Now(), func() {
		h.sys.send(0, 1, &msg{kind: proto.KDropS, addr: a, requester: 0}, true)
	})
	h.drain()
	e := h.sys.Home(1).Directory().Peek(a)
	if e == nil || e.State != dir.Exclusive || e.Owner != 2 {
		t.Fatalf("directory disturbed by stale drop: %+v", e)
	}
	h.sys.CheckCoherence()
}

func TestAccessorsAndStrings(t *testing.T) {
	h := newH(t)
	if h.sys.Home(0).Memory() == nil || h.sys.Home(0).Directory() == nil {
		t.Fatal("home accessors nil")
	}
	if h.sys.Cache(0).pending != nil {
		t.Fatal("idle controller has a request outstanding")
	}
	done := false
	h.eng.At(0, func() {
		h.sys.Cache(0).Issue(Request{Op: proto.OpLoad, Addr: h.addrAtHome(1, 0),
			Done: func(Result) { done = true }})
		if h.sys.Cache(0).pending == nil {
			t.Error("issued request not outstanding")
		}
	})
	for !done {
		if !h.eng.Step() {
			t.Fatal("deadlock")
		}
	}
	if proto.KRead.String() != "read" || proto.MsgKind(250).String() != "msg?" {
		t.Fatal("msg kind names wrong")
	}
	if proto.Policy(9).String() == "" || proto.CASVariant(9).String() == "" || proto.OpKind(200).String() == "" {
		t.Fatal("fallback names empty")
	}
}

func TestNewSystemValidation(t *testing.T) {
	eng, net := newEngineMesh()
	for _, nodes := range []int{0, 65} {
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem accepted %d nodes", nodes)
				}
			}()
			NewSystem(eng, net, cfg)
		}()
	}
	// More nodes than mesh positions.
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	small := mesh.New(eng, cfg.Mesh)
	defer func() {
		if recover() == nil {
			t.Error("NewSystem accepted nodes > mesh size")
		}
	}()
	NewSystem(eng, small, cfg)
}

func newEngineMesh() (*sim.Engine, *mesh.Mesh) {
	eng := sim.NewEngine()
	return eng, mesh.New(eng, mesh.DefaultConfig())
}
