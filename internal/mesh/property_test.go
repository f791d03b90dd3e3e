package mesh

import (
	"testing"
	"testing/quick"

	"dsm/internal/sim"
)

// TestPropertyRoutedMatchesSimpleWhenUncontended verifies that the
// per-link router model degenerates to the hops*HopDelay abstraction for
// any isolated message.
func TestPropertyRoutedMatchesSimpleWhenUncontended(t *testing.T) {
	f := func(srcRaw, dstRaw, flitsRaw uint8) bool {
		src := NodeID(srcRaw % 64)
		dst := NodeID(dstRaw % 64)
		flits := int(flitsRaw%6) + 1

		engA := sim.NewEngine()
		mA := New(engA, DefaultConfig())
		cfgB := DefaultConfig()
		cfgB.ModelRouters = true
		engB := sim.NewEngine()
		mB := New(engB, cfgB)

		var a, b sim.Time
		mA.SendArg(src, dst, flits, func(any) { a = engA.Now() }, nil)
		mB.SendArg(src, dst, flits, func(any) { b = engB.Now() }, nil)
		for engA.Step() {
		}
		for engB.Step() {
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyLatencyMonotonicInDistance: farther destinations never
// deliver earlier, all else equal.
func TestPropertyLatencyMonotonicInDistance(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := NodeID(aRaw % 64)
		b := NodeID(bRaw % 64)
		eng := sim.NewEngine()
		m := New(eng, DefaultConfig())
		var ta, tb sim.Time
		// Independent meshes would be cleaner, but distinct sources avoid
		// port interference here.
		m.SendArg(0, a, 2, func(any) { ta = eng.Now() }, nil)
		for eng.Step() {
		}
		eng2 := sim.NewEngine()
		m2 := New(eng2, DefaultConfig())
		m2.SendArg(0, b, 2, func(any) { tb = eng2.Now() }, nil)
		for eng2.Step() {
		}
		if m.Stats().HopsTotal <= m2.Stats().HopsTotal {
			return ta <= tb
		}
		return ta >= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyFlitsMonotonicInPayload: bigger payloads never take fewer
// flits.
func TestPropertyFlitsMonotonicInPayload(t *testing.T) {
	m := New(sim.NewEngine(), DefaultConfig())
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Flits(x) <= m.Flits(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
