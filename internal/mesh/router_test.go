package mesh

import (
	"testing"

	"dsm/internal/sim"
)

func newRouterMesh() (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ModelRouters = true
	return eng, New(eng, cfg)
}

func TestRouterModeUncontendedMatchesSimpleModel(t *testing.T) {
	// Without contention, per-link routing gives the same head latency as
	// the hops*HopDelay abstraction.
	engA, mA := newTestMesh()
	engB, mB := newRouterMesh()
	var a, b sim.Time
	mA.SendArg(0, 63, 5, func(any) { a = engA.Now() }, nil)
	mB.SendArg(0, 63, 5, func(any) { b = engB.Now() }, nil)
	for engA.Step() {
	}
	for engB.Step() {
	}
	if a != b {
		t.Fatalf("uncontended latency differs: simple %d vs routed %d", a, b)
	}
}

func TestRouterModeSharedLinkSerializes(t *testing.T) {
	// Two messages whose dimension-order routes share the 1->2 link: the
	// second head waits for the first message's tail.
	eng, m := newRouterMesh()
	var first, second sim.Time
	m.SendArg(0, 2, 5, func(any) { first = eng.Now() }, nil)  // route 0->1->2
	m.SendArg(1, 2, 5, func(any) { second = eng.Now() }, nil) // route 1->2
	for eng.Step() {
	}
	if m.Stats().LinkWait == 0 {
		t.Fatal("no link contention recorded on a shared link")
	}
	if second <= first-5 {
		t.Fatalf("second message unaffected by link contention: %d vs %d", second, first)
	}
}

func TestRouterModeDisjointPathsDoNotInterfere(t *testing.T) {
	// Messages on disjoint rows never share a link.
	eng, m := newRouterMesh()
	m.SendArg(0, 7, 5, func(any) {}, nil)   // row 0
	m.SendArg(8, 15, 5, func(any) {}, nil)  // row 1
	m.SendArg(16, 23, 5, func(any) {}, nil) // row 2
	for eng.Step() {
	}
	if m.Stats().LinkWait != 0 {
		t.Fatalf("disjoint paths recorded LinkWait=%d", m.Stats().LinkWait)
	}
}

func TestRouterModeDimensionOrderXFirst(t *testing.T) {
	// A 0 -> 9 message (diagonal) routes X first: link 0->1, then the
	// vertical link 1->9. A message 1 -> 9 shares that vertical link; a
	// message 8 -> 9 (the Y-first alternative's last link) does not.
	eng, m := newRouterMesh()
	m.SendArg(0, 9, 5, func(any) {}, nil)
	m.SendArg(1, 9, 5, func(any) {}, nil)
	for eng.Step() {
	}
	if m.Stats().LinkWait == 0 {
		t.Fatal("X-first route did not use the 1->9 link")
	}

	eng2, m2 := newRouterMesh()
	m2.SendArg(0, 9, 5, func(any) {}, nil)
	m2.SendArg(8, 9, 5, func(any) {}, nil)
	for eng2.Step() {
	}
	if m2.Stats().LinkWait != 0 {
		t.Fatal("route unexpectedly used the 8->9 link (Y-first?)")
	}
}

func TestRouterModeOppositeDirectionsIndependent(t *testing.T) {
	// Links are directed: 0->1 and 1->0 do not contend.
	eng, m := newRouterMesh()
	m.SendArg(0, 1, 5, func(any) {}, nil)
	m.SendArg(1, 0, 5, func(any) {}, nil)
	for eng.Step() {
	}
	if m.Stats().LinkWait != 0 {
		t.Fatalf("opposite directions contended: LinkWait=%d", m.Stats().LinkWait)
	}
}
