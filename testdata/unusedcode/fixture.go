// Package fixture is the root package of the unused-code guard's fixture
// module: it re-exports impl.Gauge by alias and uses the rest of impl.
package fixture

import "fixture/internal/impl"

// Gauge is library surface: its methods count as used.
type Gauge = impl.Gauge

// Run resets a counter, counts a tally and describes a name.
func Run(c *impl.Counter, _ *impl.Timer) string {
	c.Reset()
	impl.NewTally().Count()
	return impl.Describe(impl.Named{})
}
