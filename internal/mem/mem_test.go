package mem

import (
	"testing"
	"testing/quick"

	"dsm/internal/arch"
	"dsm/internal/sim"
)

func newTestModule() (*sim.Engine, *Module) {
	eng := sim.NewEngine()
	m := &Module{}
	m.Init(eng, DefaultConfig(), 1)
	return eng, m
}

func TestIsolatedAccessLatency(t *testing.T) {
	eng, m := newTestModule()
	var at sim.Time
	m.AccessArg(func(any) { at = eng.Now() }, nil)
	for eng.Step() {
	}
	if at != 18 {
		t.Fatalf("access completed at %d, want 18", at)
	}
}

func TestBackToBackAccessesPipeline(t *testing.T) {
	eng, m := newTestModule()
	var times []sim.Time
	for i := 0; i < 3; i++ {
		m.AccessArg(func(any) { times = append(times, eng.Now()) }, nil)
	}
	for eng.Step() {
	}
	// Service starts at 0, 6, 12; completions at 18, 24, 30.
	want := []sim.Time{18, 24, 30}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completions %v, want %v", times, want)
		}
	}
	if m.Stats().QueueWait != 6+12 {
		t.Fatalf("QueueWait = %d, want 18", m.Stats().QueueWait)
	}
}

func TestAccessAfterIdleStartsImmediately(t *testing.T) {
	eng, m := newTestModule()
	var second sim.Time
	m.AccessArg(func(any) {
		// Module idle again at occupancy end (6); now is 18.
		m.AccessArg(func(any) { second = eng.Now() }, nil)
	}, nil)
	for eng.Step() {
	}
	if second != 36 {
		t.Fatalf("second access at %d, want 36", second)
	}
}

func TestStatsCountAccesses(t *testing.T) {
	eng, m := newTestModule()
	for i := 0; i < 5; i++ {
		m.AccessArg(func(any) {}, nil)
	}
	for eng.Step() {
	}
	if m.Stats().Accesses != 5 {
		t.Fatalf("Accesses = %d, want 5", m.Stats().Accesses)
	}
}

func TestStorageZeroInitialized(t *testing.T) {
	_, m := newTestModule()
	if v := m.ReadWord(0x1000); v != 0 {
		t.Fatalf("fresh word = %d, want 0", v)
	}
	if b := m.ReadBlock(0x2000); b != (arch.BlockData{}) {
		t.Fatalf("fresh block = %v, want zeros", b)
	}
}

func TestWordReadWrite(t *testing.T) {
	_, m := newTestModule()
	m.WriteWord(0x40, 0xdeadbeef)
	m.WriteWord(0x44, 7)
	if m.ReadWord(0x40) != 0xdeadbeef || m.ReadWord(0x44) != 7 {
		t.Fatal("word readback mismatch")
	}
	// Words land in the right block slots.
	b := m.ReadBlock(0x40)
	if b[0] != 0xdeadbeef || b[1] != 7 {
		t.Fatalf("block = %v", b)
	}
}

func TestBlockReadWriteRoundTrip(t *testing.T) {
	_, m := newTestModule()
	f := func(raw [arch.WordsPerBlock]uint32, aRaw uint32) bool {
		a := arch.BlockBase(arch.Addr(aRaw))
		var d arch.BlockData
		for i, w := range raw {
			d[i] = arch.Word(w)
		}
		m.WriteBlock(a, d)
		return m.ReadBlock(a) == d && m.ReadWord(a+4) == d[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlocksAreIndependent(t *testing.T) {
	_, m := newTestModule()
	m.WriteWord(0x20, 1)
	m.WriteWord(0x40, 2)
	if m.ReadWord(0x20) != 1 || m.ReadWord(0x40) != 2 || m.ReadWord(0x60) != 0 {
		t.Fatal("cross-block interference")
	}
}

func TestMisalignedWordPanics(t *testing.T) {
	_, m := newTestModule()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for misaligned read")
		}
	}()
	m.ReadWord(0x41)
}
