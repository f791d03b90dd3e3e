package dir

import (
	"testing"
	"testing/quick"

	"dsm/internal/arch"
	"dsm/internal/mesh"
)

func TestBitVectorReserveAndValidate(t *testing.T) {
	r := NewResvState(ResvBitVector, 0)
	for n := mesh.NodeID(0); n < 64; n++ {
		if !r.Reserve(n) {
			t.Fatalf("bit-vector refused reservation for %d", n)
		}
	}
	for n := mesh.NodeID(0); n < 64; n++ {
		if !r.Validate(n, 0) {
			t.Fatalf("node %d lost reservation", n)
		}
	}
	r.OnWrite()
	for n := mesh.NodeID(0); n < 64; n++ {
		if r.Validate(n, 0) {
			t.Fatalf("node %d kept reservation across write", n)
		}
	}
}

func TestLimitedSchemeRefusesBeyondLimit(t *testing.T) {
	r := NewResvState(ResvLimited, 4)
	for n := mesh.NodeID(0); n < 4; n++ {
		if !r.Reserve(n) {
			t.Fatalf("refused within limit at %d", n)
		}
	}
	if r.Reserve(4) {
		t.Fatal("accepted fifth reservation with limit 4")
	}
	// Re-reserving an existing holder is fine even at the limit.
	if !r.Reserve(2) {
		t.Fatal("refused re-reservation by existing holder")
	}
	if r.Validate(4, 0) {
		t.Fatal("beyond-limit node validates")
	}
	r.OnWrite()
	if !r.Reserve(4) {
		t.Fatal("limit not released after write")
	}
}

func TestLimitedPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for limit 0")
		}
	}()
	NewResvState(ResvLimited, 0)
}

func TestSerialSchemeValidatesByWriteCount(t *testing.T) {
	r := NewResvState(ResvSerial, 0)
	s0 := r.Serial()
	if !r.Reserve(9) {
		t.Fatal("serial scheme refused reservation")
	}
	if !r.Validate(9, s0) || !r.Validate(33, s0) {
		t.Fatal("serial validation should not depend on node id")
	}
	r.OnWrite()
	if r.Validate(9, s0) {
		t.Fatal("stale serial validated")
	}
	if !r.Validate(9, r.Serial()) {
		t.Fatal("current serial rejected")
	}
}

func TestSerialWrapAround(t *testing.T) {
	r := NewResvState(ResvSerial, 0)
	r.serial = ^arch.Word(0)
	s := r.Serial()
	r.OnWrite()
	if r.Serial() != 0 {
		t.Fatalf("serial after wrap = %d, want 0", r.Serial())
	}
	if r.Validate(0, s) {
		t.Fatal("pre-wrap serial validated after wrap")
	}
}

func TestHoldersSnapshot(t *testing.T) {
	r := NewResvState(ResvBitVector, 0)
	r.Reserve(1)
	r.Reserve(5)
	h := r.Holders()
	if h.Count() != 2 || !h.Has(1) || !h.Has(5) || h.Has(2) {
		t.Fatalf("Holders = %b", h)
	}
}

func TestSchemeString(t *testing.T) {
	if ResvBitVector.String() != "bitvector" || ResvLimited.String() != "limited" || ResvSerial.String() != "serial" {
		t.Fatal("scheme names wrong")
	}
	if ResvScheme(9).String() == "" {
		t.Fatal("unknown scheme has empty name")
	}
}

func TestValidateNeverTrueAfterInterveningWriteProperty(t *testing.T) {
	// Property: for any scheme and any interleaving of reserve/write, a
	// validate after a write that followed the reserve must fail.
	schemes := []ResvScheme{ResvBitVector, ResvLimited, ResvSerial}
	f := func(nRaw uint8, writes uint8) bool {
		n := mesh.NodeID(nRaw % 64)
		for _, sc := range schemes {
			r := NewResvState(sc, 4)
			r.Reserve(n)
			s := r.Serial()
			for i := 0; i < int(writes%5)+1; i++ {
				r.OnWrite()
			}
			if r.Validate(n, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
