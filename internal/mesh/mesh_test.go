package mesh

import (
	"testing"
	"testing/quick"

	"dsm/internal/sim"
)

func newTestMesh() (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

func TestCoordRoundTrip(t *testing.T) {
	_, m := newTestMesh()
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.Coord(NodeID(n))
		if y*8+x != n {
			t.Fatalf("node %d maps to (%d,%d)", n, x, y)
		}
	}
}

// hops reads the dimension-order routing distance between two nodes from
// the mesh's route table.
func hops(m *Mesh, a, b NodeID) int { return int(m.hops[int(a)*m.Nodes()+int(b)]) }

func TestHopsManhattan(t *testing.T) {
	_, m := newTestMesh()
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 7, 7},
		{0, 63, 14},
		{9, 18, 2}, // (1,1)->(2,2)
		{63, 0, 14},
	}
	for _, c := range cases {
		if got := hops(m, c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d)=%d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	_, m := newTestMesh()
	f := func(a, b uint8) bool {
		x, y := NodeID(a%64), NodeID(b%64)
		return hops(m, x, y) == hops(m, y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	_, m := newTestMesh()
	f := func(a, b, c uint8) bool {
		x, y, z := NodeID(a%64), NodeID(b%64), NodeID(c%64)
		return hops(m, x, z) <= hops(m, x, y)+hops(m, y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlitsRounding(t *testing.T) {
	_, m := newTestMesh()
	cases := []struct{ payload, want int }{
		{0, 1},  // header only
		{1, 2},  // 9 bytes -> 2 flits
		{8, 2},  // 16 bytes
		{24, 4}, // header + 24 = 32
		{32, 5}, // header + block
	}
	for _, c := range cases {
		if got := m.Flits(c.payload); got != c.want {
			t.Errorf("Flits(%d)=%d, want %d", c.payload, got, c.want)
		}
	}
}

func TestSendLocalBypass(t *testing.T) {
	eng, m := newTestMesh()
	var at sim.Time
	m.SendArg(3, 3, 5, func(any) { at = eng.Now() }, nil)
	for eng.Step() {
	}
	if at != DefaultConfig().LocalDelay {
		t.Fatalf("local delivery at %d, want %d", at, DefaultConfig().LocalDelay)
	}
	if s := m.Stats(); s.Messages != 0 || s.LocalMsgs != 1 {
		t.Fatalf("stats = %+v, want local only", s)
	}
}

func TestSendUncontendedLatency(t *testing.T) {
	eng, m := newTestMesh()
	// 0 -> 1: 1 hop, 1 flit. inject start 0, head arrives at 2, done 3.
	var at sim.Time
	m.SendArg(0, 1, 1, func(any) { at = eng.Now() }, nil)
	for eng.Step() {
	}
	want := sim.Time(1)*1 + 2 + 0 // serialize 1 + hop 2, ejStart=2, done=3
	_ = want
	if at != 3 {
		t.Fatalf("delivery at %d, want 3", at)
	}
}

func TestSendLatencyScalesWithDistance(t *testing.T) {
	eng, m := newTestMesh()
	var near, far sim.Time
	m.SendArg(0, 1, 1, func(any) { near = eng.Now() }, nil)
	m.SendArg(63, 56, 1, func(any) { far = eng.Now() }, nil) // 7 hops, disjoint ports
	for eng.Step() {
	}
	if far-near != 6*2 { // 6 extra hops * HopDelay 2
		t.Fatalf("far-near = %d, want 12 (near=%d far=%d)", far-near, near, far)
	}
}

func TestInjectionPortSerializes(t *testing.T) {
	eng, m := newTestMesh()
	var first, second sim.Time
	// Two 5-flit messages from node 0 to distinct far nodes at t=0.
	m.SendArg(0, 1, 5, func(any) { first = eng.Now() }, nil)
	m.SendArg(0, 8, 5, func(any) { second = eng.Now() }, nil)
	for eng.Step() {
	}
	// first: inj 0..5, head 0+2, done = 2+5 = 7
	if first != 7 {
		t.Fatalf("first delivered at %d, want 7", first)
	}
	// second: inj starts at 5, head 5+2, done 7+5 = 12
	if second != 12 {
		t.Fatalf("second delivered at %d, want 12", second)
	}
	if m.Stats().InjectWait != 5 {
		t.Fatalf("InjectWait = %d, want 5", m.Stats().InjectWait)
	}
}

func TestEjectionPortSerializes(t *testing.T) {
	eng, m := newTestMesh()
	var a, b sim.Time
	// Two 5-flit messages to node 0 from equidistant sources.
	m.SendArg(1, 0, 5, func(any) { a = eng.Now() }, nil)
	m.SendArg(8, 0, 5, func(any) { b = eng.Now() }, nil)
	for eng.Step() {
	}
	// a: head at 2, done 7. b: head at 2, must wait eject until 7, done 12.
	if a != 7 || b != 12 {
		t.Fatalf("deliveries at %d,%d; want 7,12", a, b)
	}
	if m.Stats().EjectWait != 5 {
		t.Fatalf("EjectWait = %d, want 5", m.Stats().EjectWait)
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, m := newTestMesh()
	m.SendArg(0, 63, 5, func(any) {}, nil)
	m.SendArg(63, 0, 2, func(any) {}, nil)
	for eng.Step() {
	}
	s := m.Stats()
	if s.Messages != 2 || s.Flits != 7 || s.HopsTotal != 28 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSendPanicsOnBadArgs(t *testing.T) {
	_, m := newTestMesh()
	for name, fn := range map[string]func(){
		"bad src":   func() { m.SendArg(-1, 0, 1, nil, nil) },
		"bad dst":   func() { m.SendArg(0, 64, 1, nil, nil) },
		"bad flits": func() { m.SendArg(0, 1, 0, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-width mesh")
		}
	}()
	New(sim.NewEngine(), Config{Width: 0, Height: 8})
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	run := func() []int {
		eng, m := newTestMesh()
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			src := NodeID(i % 8)
			dst := NodeID(63 - i%8)
			m.SendArg(src, dst, 1+i%5, func(any) { order = append(order, i) }, nil)
		}
		for eng.Step() {
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}

// TestSendOneEventPerMessage pins hop-collapsed transit: a message costs the
// engine exactly one event whatever its distance, with or without
// internal-router modeling. Per-hop events creeping back in fails here.
func TestSendOneEventPerMessage(t *testing.T) {
	const msgs = 5
	for _, routers := range []bool{false, true} {
		for _, dist := range []int{1, 4, 7, 14} {
			cfg := DefaultConfig()
			cfg.ModelRouters = routers
			eng := sim.NewEngine()
			m := New(eng, cfg)
			// Exhaust X first, then Y, the dimension-order route shape.
			dx := min(dist, cfg.Width-1)
			dst := NodeID((dist-dx)*cfg.Width + dx)
			if got := hops(m, 0, dst); got != dist {
				t.Fatalf("destination %d is %d hops away, want %d", dst, got, dist)
			}
			delivered := 0
			deliver := func(any) { delivered++ }
			for range msgs {
				m.SendArg(0, dst, m.Flits(8), deliver, nil)
				for eng.Step() {
				}
			}
			if delivered != msgs {
				t.Fatalf("routers=%v hops=%d: delivered %d of %d messages", routers, dist, delivered, msgs)
			}
			if got := eng.EventsExecuted(); got != uint64(delivered) {
				t.Errorf("routers=%v hops=%d: %d events for %d messages, want one per message", routers, dist, got, delivered)
			}
		}
	}
}
