package core

import (
	"testing"
	"testing/quick"

	"dsm/internal/arch"
	"dsm/internal/proto"
)

// refWord is a pure-Go reference model of one word's operation semantics
// (single processor, so no concurrency; reservation per the paper: set by
// LL, consumed by SC, cleared by any write).
type refWord struct {
	value arch.Word
	resv  bool
}

func (r *refWord) apply(op proto.OpKind, val, val2 arch.Word) (arch.Word, bool) {
	old := r.value
	switch op {
	case proto.OpLoad, proto.OpLoadExclusive:
		return old, true
	case proto.OpDropCopy:
		return 0, true
	case proto.OpStore:
		r.value = val
		r.resv = false
		return old, true
	case proto.OpFetchAdd:
		r.value = old + val
		r.resv = false
		return old, true
	case proto.OpFetchStore:
		r.value = val
		r.resv = false
		return old, true
	case proto.OpFetchOr:
		r.value = old | val
		r.resv = false
		return old, true
	case proto.OpTestAndSet:
		r.value = 1
		r.resv = false
		return old, true
	case proto.OpCAS:
		if old == val {
			r.value = val2
			r.resv = false
			return old, true
		}
		return old, false
	case proto.OpLL:
		r.resv = true
		return old, true
	case proto.OpSC:
		if r.resv {
			r.value = val
			r.resv = false
			return old, true
		}
		return old, false
	}
	panic("unknown op")
}

// decodeOps turns raw fuzz bytes into an operation sequence. Between an LL
// and its SC only loads are generated (the paper forbids stores there, and
// real processors make them unpredictable).
func decodeOps(raw []byte) []Request {
	var out []Request
	pendingLL := false
	for i := 0; i+2 < len(raw); i += 3 {
		sel := int(raw[i])
		val := arch.Word(raw[i+1])
		val2 := arch.Word(raw[i+2])
		var op proto.OpKind
		if pendingLL {
			switch sel % 3 {
			case 0:
				op = proto.OpLoad
			case 1:
				op = proto.OpSC
				pendingLL = false
			case 2:
				op = proto.OpLoad
			}
		} else {
			ops := []proto.OpKind{proto.OpLoad, proto.OpStore, proto.OpFetchAdd, proto.OpFetchStore, proto.OpFetchOr,
				proto.OpTestAndSet, proto.OpCAS, proto.OpLL, proto.OpLoadExclusive, proto.OpDropCopy, proto.OpSC}
			op = ops[sel%len(ops)]
			if op == proto.OpLL {
				pendingLL = true
			}
		}
		out = append(out, Request{Op: op, Val: val, Val2: val2})
	}
	return out
}

// TestPropertySingleProcSemantics runs random operation sequences from a
// single processor against every policy and checks value and success
// results against the reference model at every step.
func TestPropertySingleProcSemantics(t *testing.T) {
	for _, pol := range []proto.Policy{proto.PolicyINV, proto.PolicyUPD, proto.PolicyUNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(raw []byte) bool {
				ops := decodeOps(raw)
				if len(ops) == 0 {
					return true
				}
				h := newH(t)
				a := h.addrAtHome(1, 0)
				h.sys.SetPolicy(a, pol)
				ref := &refWord{}
				for i, req := range ops {
					req.Addr = a
					got := h.doReq(0, req)
					wantVal, wantOK := ref.apply(req.Op, req.Val, req.Val2)
					if got.OK != wantOK {
						t.Logf("op %d (%v val=%d val2=%d): ok=%v want %v",
							i, req.Op, req.Val, req.Val2, got.OK, wantOK)
						return false
					}
					// Value checks apply to value-returning operations.
					switch req.Op {
					case proto.OpLoad, proto.OpLoadExclusive, proto.OpFetchAdd, proto.OpFetchStore,
						proto.OpFetchOr, proto.OpTestAndSet, proto.OpLL:
						if got.Value != wantVal {
							t.Logf("op %d (%v): value=%d want %d", i, req.Op, got.Value, wantVal)
							return false
						}
					}
				}
				h.drain()
				final := h.do(3, proto.OpLoad, a).Value
				if final != ref.value {
					t.Logf("final value %d, reference %d", final, ref.value)
					return false
				}
				h.sys.CheckCoherence()
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyCASVariantsSemanticsEquivalentSequentially verifies that
// INV, INVd, and INVs are indistinguishable to a single processor: the
// variants differ only in caching behaviour on failure, never in results.
func TestPropertyCASVariantsSemanticsEquivalentSequentially(t *testing.T) {
	f := func(raw []byte) bool {
		ops := decodeOps(raw)
		if len(ops) == 0 {
			return true
		}
		type outcome struct {
			val arch.Word
			ok  bool
		}
		var runs [3][]outcome
		for vi, variant := range []proto.CASVariant{proto.CASPlain, proto.CASDeny, proto.CASShare} {
			h := newH(t, func(c *Config) { c.CAS = variant })
			a := h.addrAtHome(2, 0)
			for _, req := range ops {
				req.Addr = a
				r := h.doReq(1, req)
				runs[vi] = append(runs[vi], outcome{r.Value, r.OK})
			}
		}
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] || runs[0][i] != runs[2][i] {
				t.Logf("op %d: INV=%v INVd=%v INVs=%v", i, runs[0][i], runs[1][i], runs[2][i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
