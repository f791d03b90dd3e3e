package locks

import (
	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// TTSLock is the test-and-test-and-set lock with bounded exponential
// backoff (Rudolph & Segall's test-and-test-and-set plus the backoff of
// Mellor-Crummey & Scott), the lock the paper substitutes for the SPLASH
// library locks.
type TTSLock struct {
	Addr arch.Addr
	Opts Options

	// MinBackoff/MaxBackoff bound the exponential backoff, in cycles.
	MinBackoff sim.Time
	MaxBackoff sim.Time
}

// NewTTSLock allocates a lock in its own block under the given policy.
func NewTTSLock(m *machine.Machine, policy proto.Policy, opts Options) *TTSLock {
	return &TTSLock{
		Addr:       m.AllocSync(policy),
		Opts:       opts,
		MinBackoff: 16,
		MaxBackoff: 1024,
	}
}

// Acquire spins until it holds the lock.
func (l *TTSLock) Acquire(p *machine.Proc) {
	backoff := l.MinBackoff
	for {
		// Test: spin on ordinary loads (cache hits under INV/UPD) until
		// the lock looks free.
		for p.Load(l.Addr) != 0 {
			p.Compute(jitter(p, backoff))
			backoff = nextBackoff(backoff, l.MaxBackoff)
		}
		// Test-and-set with the configured primitive.
		if l.Opts.TestAndSet(p, l.Addr) == 0 {
			return
		}
		p.Compute(jitter(p, backoff))
		backoff = nextBackoff(backoff, l.MaxBackoff)
	}
}

// Release frees the lock with an ordinary store (optionally dropping the
// copy to speed the next acquirer).
func (l *TTSLock) Release(p *machine.Proc) {
	p.Store(l.Addr, 0)
	if l.Opts.Drop {
		p.DropCopy(l.Addr)
	}
}

// nextBackoff doubles an exponential backoff bound, capped at max.
func nextBackoff(b, max sim.Time) sim.Time { return min(2*b, max) }

// jitter returns a uniformly random delay in [1, bound], from the
// processor's private stream.
func jitter(p *machine.Proc, bound sim.Time) sim.Time {
	if bound <= 1 {
		return 1
	}
	return 1 + sim.Time(p.Rand().Intn(int(bound)))
}
