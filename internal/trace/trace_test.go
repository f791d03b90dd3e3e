package trace

import (
	"strings"
	"testing"

	"dsm/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	b := New(4)
	for i := 0; i < 3; i++ {
		b.Record(simTime(i), i, "send", "x")
	}
	if b.Len() != 3 {
		t.Fatalf("Len=%d", b.Len())
	}
	evs := b.Events()
	for i, e := range evs {
		if e.At != simTime(i) {
			t.Fatalf("events out of order: %v", evs)
		}
	}
}

func TestRingDisplacesOldest(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Record(simTime(i), i, "k", "d")
	}
	if b.Len() != 3 {
		t.Fatalf("Len=%d", b.Len())
	}
	evs := b.Events()
	if evs[0].At != 2 || evs[2].At != 4 {
		t.Fatalf("retained window wrong: %v", evs)
	}
}

func TestWriteTo(t *testing.T) {
	b := New(2)
	b.Record(7, 3, "issue", "load addr=0x40")
	var sb strings.Builder
	if _, err := b.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n03") || !strings.Contains(sb.String(), "0x40") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

// simTime converts for test brevity.
func simTime(i int) sim.Time { return sim.Time(i) }
