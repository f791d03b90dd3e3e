package locks

import (
	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
)

// Counter is a lock-free shared counter, the paper's first synthetic
// workload and the building block of the Transitive Closure application's
// dynamic scheduler.
type Counter struct {
	Addr arch.Addr
	Opts Options
}

// NewCounter allocates a counter in its own block under the given policy.
func NewCounter(m *machine.Machine, policy proto.Policy, opts Options) *Counter {
	return &Counter{Addr: m.AllocSync(policy), Opts: opts}
}

// Inc atomically increments the counter and returns the previous value.
// With Options.Drop set, the processor drops its copy afterwards so the
// next processor's update needs fewer serialized messages.
func (c *Counter) Inc(p *machine.Proc) arch.Word {
	old := c.Opts.FetchAdd(p, c.Addr, 1)
	if c.Opts.Drop {
		p.DropCopy(c.Addr)
	}
	return old
}

// Add atomically adds delta and returns the previous value.
func (c *Counter) Add(p *machine.Proc, delta arch.Word) arch.Word {
	old := c.Opts.FetchAdd(p, c.Addr, delta)
	if c.Opts.Drop {
		p.DropCopy(c.Addr)
	}
	return old
}

// Read returns the counter's current value (an ordinary load).
func (c *Counter) Read(p *machine.Proc) arch.Word {
	return p.Load(c.Addr)
}
