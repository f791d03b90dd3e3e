package locks

import (
	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// CentralBarrier is the classic sense-reversing centralized barrier: a
// shared arrival counter (updated with the primitive family under study)
// and a global release flag all waiters spin on. It is the foil for the
// scalable tree barrier — under INV every release invalidates every
// spinner, and the counter is a hot spot, which is exactly why the paper's
// Transitive Closure uses the tree barrier instead.
// TestCentralVsTreeBarrierScaling measures that gap.
type CentralBarrier struct {
	count arch.Addr // arrivals this episode
	sense arch.Addr // release flag: episode number
	n     int
	opts  Options

	episode []arch.Word // per-processor private episode counter
}

// NewCentralBarrier allocates the barrier under the given policy for its
// counter (the hot atomic word); the release flag is ordinary data.
func NewCentralBarrier(m *machine.Machine, policy proto.Policy, opts Options) *CentralBarrier {
	return &CentralBarrier{
		count:   m.AllocSync(policy),
		sense:   m.Alloc(4),
		n:       m.Procs(),
		opts:    opts,
		episode: make([]arch.Word, m.Procs()),
	}
}

// Wait blocks (in simulated time) until all processors have arrived.
func (b *CentralBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	b.episode[i]++
	target := b.episode[i]
	arrived := b.opts.FetchAdd(p, b.count, 1)
	if int(arrived) == b.n-1 {
		// Last arriver: reset the counter and release everyone.
		p.Store(b.count, 0)
		p.Store(b.sense, target)
		return
	}
	for p.Load(b.sense) < target {
		p.Compute(sim.Time(4 + p.Rand().Intn(12)))
	}
}
