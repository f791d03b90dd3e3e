package locks

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/mesh"
)

// DisseminationBarrier is the dissemination barrier of Hensgen, Finkel &
// Manber: ceil(log2 n) rounds in which processor i signals processor
// (i + 2^k) mod n and spins on its own round-k flag, homed at its node.
// Unlike the tree and tournament barriers there is no wakeup phase — the
// last signalling round completes the barrier for everyone — at the cost
// of n flags written per round instead of n-1 total. Like the others it
// needs no atomic primitive, and flags carry a monotonic round number
// rather than sense reversal.
type DisseminationBarrier struct {
	n     int
	flags [][]arch.Addr // [proc][round]: written by the partner, spun on locally
	round []arch.Word   // per-processor private episode counter
}

// NewDisseminationBarrier allocates the per-round flags, each homed at
// its spinner's node.
func NewDisseminationBarrier(m *machine.Machine) *DisseminationBarrier {
	n := m.Procs()
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	b := &DisseminationBarrier{
		n:     n,
		flags: make([][]arch.Addr, n),
		round: make([]arch.Word, n),
	}
	for i := 0; i < n; i++ {
		b.flags[i] = make([]arch.Addr, rounds)
		for k := 0; k < rounds; k++ {
			b.flags[i][k] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
		}
	}
	return b
}

// Wait blocks (in simulated time) until all processors have called Wait
// for the current episode.
func (b *DisseminationBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	b.round[i]++
	episode := b.round[i]
	for k := range b.flags[i] {
		partner := (i + 1<<k) % b.n
		p.Store(b.flags[partner][k], episode)
		p.SpinWhile(b.flags[i][k], machine.Less, episode, 2)
	}
}
