package locks

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

// RWLock is a counter-based reader-writer lock (after Mellor-Crummey &
// Scott's simple scalable reader-writer locks), one of the synchronization
// styles the paper cites general-purpose primitives for. The lock word
// packs a writer bit (bit 0) and a reader count (bits 1..31); readers
// enter with fetch_and_add(+2) and retreat if a writer is present, writers
// enter with fetch_and_or(1) and drain readers. Every atomic step is
// expressible in all three primitive families.
type RWLock struct {
	Addr arch.Addr
	Opts Options

	MinBackoff sim.Time
	MaxBackoff sim.Time
}

// NewRWLock allocates the lock word in its own block under the policy.
func NewRWLock(m *machine.Machine, policy core.Policy, opts Options) *RWLock {
	return &RWLock{
		Addr:       m.AllocSync(policy),
		Opts:       opts,
		MinBackoff: 16,
		MaxBackoff: 512,
	}
}

const (
	rwWriterBit = 1
	rwReaderInc = 2
)

// RLock acquires the lock for reading (shared with other readers).
func (l *RWLock) RLock(p *machine.Proc) {
	backoff := l.MinBackoff
	for {
		old := l.Opts.FetchAdd(p, l.Addr, rwReaderInc)
		if old&rwWriterBit == 0 {
			return
		}
		// A writer holds or is draining; retreat and retry.
		l.Opts.FetchAdd(p, l.Addr, ^arch.Word(rwReaderInc-1)) // -2
		p.Compute(jitter(p, backoff))
		backoff = nextBackoff(backoff, l.MaxBackoff)
	}
}

// RUnlock releases a read hold.
func (l *RWLock) RUnlock(p *machine.Proc) {
	l.Opts.FetchAdd(p, l.Addr, ^arch.Word(rwReaderInc-1)) // -2
}

// Lock acquires the lock for writing (exclusive).
func (l *RWLock) Lock(p *machine.Proc) {
	backoff := l.MinBackoff
	// Claim the writer bit against other writers.
	for {
		old := l.Opts.FetchOr(p, l.Addr, rwWriterBit)
		if old&rwWriterBit == 0 {
			break
		}
		p.Compute(jitter(p, backoff))
		backoff = nextBackoff(backoff, l.MaxBackoff)
	}
	// Drain readers (including retreating ones).
	for p.Load(l.Addr)>>1 != 0 {
		p.Compute(jitter(p, l.MinBackoff))
	}
}

// Unlock releases a write hold.
func (l *RWLock) Unlock(p *machine.Proc) {
	// Subtracting 1 clears the writer bit; transient retreating readers in
	// the upper bits are unaffected.
	l.Opts.FetchAdd(p, l.Addr, ^arch.Word(0)) // -1
}
