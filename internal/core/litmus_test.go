package core

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// Litmus tests: the simulated machine has blocking, in-order processors
// over a directory protocol that serializes writes at the home and
// collects invalidation acknowledgments before a write completes, so
// executions must be sequentially consistent. These classic tests verify
// the forbidden outcomes never appear, across coherence policies, by
// enumerating many deterministic interleavings (varying issue skew).

// TestLitmusMessagePassing: proc0 writes data then flag; proc1 reads flag
// then data. Forbidden: flag=1 with data=0.
func TestLitmusMessagePassing(t *testing.T) {
	for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD, proto.PolicyUNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for skew := 0; skew < 40; skew += 3 {
				h := newH(t)
				data := h.addrAtHome(1, 0)
				flag := h.addrAtHome(2, 0)
				h.sys.SetPolicy(data, pol)
				h.sys.SetPolicy(flag, pol)

				var rFlag, rData arch.Word
				remaining := 2
				// Proc 0: data=1; flag=1 (sequential, blocking).
				h.eng.At(0, func() {
					h.sys.Cache(0).Issue(Request{Op: proto.OpStore, Addr: data, Val: 1,
						Done: func(Result) {
							h.sys.Cache(0).Issue(Request{Op: proto.OpStore, Addr: flag, Val: 1,
								Done: func(Result) { remaining-- }})
						}})
				})
				// Proc 1: r1=flag; r2=data.
				h.eng.At(sim0(skew), func() {
					h.sys.Cache(1).Issue(Request{Op: proto.OpLoad, Addr: flag,
						Done: func(r1 Result) {
							rFlag = r1.Value
							h.sys.Cache(1).Issue(Request{Op: proto.OpLoad, Addr: data,
								Done: func(r2 Result) {
									rData = r2.Value
									remaining--
								}})
						}})
				})
				for remaining > 0 {
					if !h.eng.Step() {
						t.Fatal("litmus deadlocked")
					}
				}
				h.drain()
				if rFlag == 1 && rData == 0 {
					t.Fatalf("%s skew %d: observed flag=1, data=0 (SC violation)", pol, skew)
				}
			}
		})
	}
}

// TestLitmusStoreBuffering: proc0 writes x, reads y; proc1 writes y,
// reads x. Forbidden under SC: both read 0.
func TestLitmusStoreBuffering(t *testing.T) {
	for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD, proto.PolicyUNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for skew := 0; skew < 40; skew += 3 {
				h := newH(t)
				x := h.addrAtHome(1, 0)
				y := h.addrAtHome(2, 0)
				h.sys.SetPolicy(x, pol)
				h.sys.SetPolicy(y, pol)

				var r0, r1 arch.Word
				remaining := 2
				h.eng.At(0, func() {
					h.sys.Cache(0).Issue(Request{Op: proto.OpStore, Addr: x, Val: 1,
						Done: func(Result) {
							h.sys.Cache(0).Issue(Request{Op: proto.OpLoad, Addr: y,
								Done: func(r Result) { r0 = r.Value; remaining-- }})
						}})
				})
				h.eng.At(sim0(skew), func() {
					h.sys.Cache(1).Issue(Request{Op: proto.OpStore, Addr: y, Val: 1,
						Done: func(Result) {
							h.sys.Cache(1).Issue(Request{Op: proto.OpLoad, Addr: x,
								Done: func(r Result) { r1 = r.Value; remaining-- }})
						}})
				})
				for remaining > 0 {
					if !h.eng.Step() {
						t.Fatal("litmus deadlocked")
					}
				}
				h.drain()
				if r0 == 0 && r1 == 0 {
					t.Fatalf("%s skew %d: both reads 0 (store buffering observed)", pol, skew)
				}
			}
		})
	}
}

// TestLitmusCoherence: all processors must agree on the order of writes to
// a single location (per-location coherence). Two writers, two readers
// each reading the location twice: readers must not see the two values in
// opposite orders.
func TestLitmusCoherence(t *testing.T) {
	for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD, proto.PolicyUNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for skew := 0; skew < 30; skew += 5 {
				h := newH(t)
				x := h.addrAtHome(1, 0)
				h.sys.SetPolicy(x, pol)
				var r = [2][2]arch.Word{}
				remaining := 4
				store := func(node int, v arch.Word, at int) {
					h.eng.At(sim0(at), func() {
						h.sys.Cache(nodeOf(node)).Issue(Request{Op: proto.OpStore, Addr: x, Val: v,
							Done: func(Result) { remaining-- }})
					})
				}
				read2 := func(node, idx, at int) {
					h.eng.At(sim0(at), func() {
						h.sys.Cache(nodeOf(node)).Issue(Request{Op: proto.OpLoad, Addr: x,
							Done: func(a Result) {
								h.sys.Cache(nodeOf(node)).Issue(Request{Op: proto.OpLoad, Addr: x,
									Done: func(b Result) {
										r[idx][0], r[idx][1] = a.Value, b.Value
										remaining--
									}})
							}})
					})
				}
				store(0, 1, 0)
				store(1, 2, skew)
				read2(2, 0, skew/2)
				read2(3, 1, skew/3)
				for remaining > 0 {
					if !h.eng.Step() {
						t.Fatal("litmus deadlocked")
					}
				}
				h.drain()
				// Forbidden: reader A sees 1 then 2 while reader B sees 2 then 1.
				if r[0][0] == 1 && r[0][1] == 2 && r[1][0] == 2 && r[1][1] == 1 {
					t.Fatalf("%s skew %d: readers disagree on write order: %v", pol, skew, r)
				}
				if r[1][0] == 1 && r[1][1] == 2 && r[0][0] == 2 && r[0][1] == 1 {
					t.Fatalf("%s skew %d: readers disagree on write order: %v", pol, skew, r)
				}
			}
		})
	}
}

// TestLitmusAtomicityRMW: a fetch_and_add must never interleave with a
// racing store such that the add is lost entirely and the counter exceeds
// all writes. Enumerate skews for FAA vs store.
func TestLitmusAtomicityRMW(t *testing.T) {
	for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD, proto.PolicyUNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for skew := 0; skew < 60; skew += 4 {
				h := newH(t)
				x := h.addrAtHome(1, 0)
				h.sys.SetPolicy(x, pol)
				remaining := 2
				h.eng.At(0, func() {
					h.sys.Cache(0).Issue(Request{Op: proto.OpFetchAdd, Addr: x, Val: 1,
						Done: func(Result) { remaining-- }})
				})
				h.eng.At(sim0(skew), func() {
					h.sys.Cache(1).Issue(Request{Op: proto.OpStore, Addr: x, Val: 10,
						Done: func(Result) { remaining-- }})
				})
				for remaining > 0 {
					if !h.eng.Step() {
						t.Fatal("litmus deadlocked")
					}
				}
				h.drain()
				v := h.do(2, proto.OpLoad, x).Value
				// Legal final values: 11 (store then add) or 10 (add then
				// store). 1 would mean the store was lost; anything else
				// means atomicity broke.
				if v != 10 && v != 11 {
					t.Fatalf("%s skew %d: final value %d, want 10 or 11", pol, skew, v)
				}
			}
		})
	}
}

func sim0(n int) sim.Time { return sim.Time(n) }

func nodeOf(n int) mesh.NodeID { return mesh.NodeID(n) }
