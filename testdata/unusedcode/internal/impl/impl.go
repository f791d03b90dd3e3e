// Package impl holds the declarations the unused-code guard's fixture
// judges.
package impl

// Counter.Reset is used by the facade.
type Counter struct{ n int }

func (c *Counter) Reset() { c.n = 0 }

// Timer.Reset is called only by a test, and shares Counter.Reset's name.
type Timer struct{ start int }

func (t *Timer) Reset() { t.start = 0 }

// Namer is the interface production code reaches Named.Name through.
type Namer interface{ Name() string }

// Named.Name has no direct caller; Describe calls it through Namer.
type Named struct{}

func (Named) Name() string { return "named" }

// Describe returns n's name.
func Describe(n Namer) string { return n.Name() }

// Gauge.Add has no caller, but the facade re-exports Gauge by alias.
type Gauge struct{ v int }

func (g *Gauge) Add(d int) { g.v += d }

// unusedLimit has no reference at all.
const unusedLimit = 8
