package dir

import (
	"testing"
	"testing/quick"

	"dsm/internal/mesh"
)

// newDirectory returns an empty directory for a one-node machine.
func newDirectory() *Directory {
	d := &Directory{}
	d.Init(1)
	return d
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	b.Add(3)
	b.Add(63)
	b.Add(3)
	if b.Count() != 2 || !b.Has(3) || !b.Has(63) || b.Has(0) {
		t.Fatalf("bitset = %b", b)
	}
	b.Remove(3)
	if b.Has(3) || b.Count() != 1 {
		t.Fatal("Remove failed")
	}
	b.Remove(3) // idempotent
	if b.Count() != 1 {
		t.Fatal("double Remove changed set")
	}
}

func TestBitsetCountMatchesHas(t *testing.T) {
	f := func(raw uint64) bool {
		b := Bitset(raw)
		n := 0
		for i := range 64 {
			if b.Has(mesh.NodeID(i)) {
				n++
			}
		}
		return n == b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsetAddRemoveInverse(t *testing.T) {
	f := func(raw uint64, nRaw uint8) bool {
		n := mesh.NodeID(nRaw % 64)
		b := Bitset(raw)
		orig := b
		b.Add(n)
		if !b.Has(n) {
			return false
		}
		b.Remove(n)
		if b.Has(n) {
			return false
		}
		// Removing then restoring membership preserves other members.
		if orig.Has(n) {
			b.Add(n)
		}
		return b == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectoryEntryCreatesUnowned(t *testing.T) {
	d := newDirectory()
	e := d.Entry(0x123) // mid-block address
	if e.State != Unowned || !e.Sharers.Empty() {
		t.Fatalf("fresh entry = %+v", e)
	}
	// Same block, same entry.
	if d.Entry(0x120) != e || d.Entry(0x13f) != e {
		t.Fatal("block aliasing broken")
	}
	if d.Entry(0x140) == e {
		t.Fatal("adjacent block shares entry")
	}
}

func TestDirectoryPeek(t *testing.T) {
	d := newDirectory()
	if d.Peek(0x40) != nil {
		t.Fatal("Peek created an entry")
	}
	e := d.Entry(0x40)
	if d.Peek(0x5c) != e {
		t.Fatal("Peek missed existing entry")
	}
}

func TestEntryCheckViolations(t *testing.T) {
	mustPanic := func(name string, e *Entry) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Check did not panic", name)
			}
		}()
		e.Check(0)
	}
	e := &Entry{State: Unowned}
	e.Sharers.Add(1)
	mustPanic("unowned with sharers", e)
	mustPanic("shared with none", &Entry{State: Shared})
	e2 := &Entry{State: Exclusive, Owner: 2}
	e2.Sharers.Add(3)
	mustPanic("exclusive with sharers", e2)

	// Valid states do not panic.
	(&Entry{State: Unowned}).Check(0)
	ok := &Entry{State: Shared}
	ok.Sharers.Add(0)
	ok.Check(0)
	(&Entry{State: Exclusive, Owner: 5}).Check(0)
	(&Entry{State: Busy}).Check(0)
}

func TestStateString(t *testing.T) {
	names := map[State]string{Unowned: "unowned", Shared: "shared", Exclusive: "exclusive", Busy: "busy"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state has empty name")
	}
}
