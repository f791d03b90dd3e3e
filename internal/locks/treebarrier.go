package locks

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/mesh"
)

// arity of the arrival tree (the MCS barrier uses a 4-ary arrival tree and
// a binary wakeup tree).
const arrivalArity = 4

// TreeBarrier is the scalable sense-reversing tree barrier of
// Mellor-Crummey & Scott, used by the Transitive Closure application. Each
// processor spins only on flags homed at its own node; arrival climbs a
// 4-ary tree and wakeup descends a binary tree. Instead of sense reversal
// the flags carry a monotonic round number, which is equivalent and
// simpler to verify.
type TreeBarrier struct {
	n      int
	arrive [][]arch.Addr // [parent][slot]: written by child, spun on by parent
	wake   []arch.Addr   // [proc]: written by wakeup parent, spun on by proc
	round  []arch.Word   // per-processor private round counter
}

// NewTreeBarrier allocates the barrier's flags, homed for local spinning.
func NewTreeBarrier(m *machine.Machine) *TreeBarrier {
	n := m.Procs()
	b := &TreeBarrier{
		n:      n,
		arrive: make([][]arch.Addr, n),
		wake:   make([]arch.Addr, n),
		round:  make([]arch.Word, n),
	}
	for i := 0; i < n; i++ {
		b.arrive[i] = make([]arch.Addr, arrivalArity)
		for k := 0; k < arrivalArity; k++ {
			if arrivalArity*i+k+1 < n {
				b.arrive[i][k] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
			}
		}
		b.wake[i] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
	}
	return b
}

// Wait blocks (in simulated time) until all processors have called Wait
// for the current round.
func (b *TreeBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	b.round[i]++
	round := b.round[i]

	// Arrival: wait for our subtree, then report to the parent.
	for k := 0; k < arrivalArity; k++ {
		if arrivalArity*i+k+1 >= b.n {
			break
		}
		p.SpinWhile(b.arrive[i][k], machine.Less, round, 2)
	}
	if i != 0 {
		parent := (i - 1) / arrivalArity
		slot := (i - 1) % arrivalArity
		p.Store(b.arrive[parent][slot], round)
		p.SpinWhile(b.wake[i], machine.Less, round, 2)
	}
	// Wakeup: release our binary-tree children.
	for _, c := range []int{2*i + 1, 2*i + 2} {
		if c < b.n {
			p.Store(b.wake[c], round)
		}
	}
}
