// Package impl holds the declarations the unused-code guard's fixture
// judges.
package impl

// Counter.Reset is used by the facade.
type Counter struct{}

func (c *Counter) Reset() {}

// Timer.Reset is called only by a test, and shares Counter.Reset's name.
type Timer struct{}

func (t *Timer) Reset() {}

// Namer is the interface production code reaches Named.Name through.
type Namer interface{ Name() string }

// Named.Name has no direct caller; Describe calls it through Namer.
type Named struct{}

func (Named) Name() string { return "named" }

// Describe returns n's name.
func Describe(n Namer) string { return n.Name() }

// Gauge.Add has no caller, but the facade re-exports Gauge by alias.
type Gauge struct{}

func (g *Gauge) Add(d int) {}

// unusedLimit has no reference at all.
const unusedLimit = 8

// Base is embedded in Tally; Count reads its n as a promoted field.
type Base struct{ n int }

// Tally holds the field cases. Count reads read, and encoding/json would
// read Tagged by its tag. written is only assigned, incremented and keyed
// in a composite literal, and only a test reads testRead.
type Tally struct {
	Base
	read     int
	written  int
	testRead int
	Tagged   int `json:"tagged"`
}

// NewTally returns a tally with its fields set.
func NewTally() *Tally {
	return &Tally{Base: Base{n: 1}, read: 1, written: 1, testRead: 1, Tagged: 1}
}

// Count bumps the tally and returns its readable counts.
func (t *Tally) Count() int {
	t.written++
	t.written += 2
	t.testRead = 3
	return t.read + t.n
}
