package locks

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/mesh"
)

// TournamentBarrier is the tournament barrier of Hensgen, Finkel & Manber
// as presented by Mellor-Crummey & Scott: arrival is a sequence of
// two-processor matches whose outcome is statically determined, so no
// atomic primitive is needed at all — each match is one ordinary store to
// a flag homed at the winner plus a local spin. Processor i loses the
// level-k match iff bit k is the lowest set bit of i; processor 0 wins
// every match (the champion) and starts the wakeup broadcast, which
// retraces the matches in reverse. Flags carry a monotonic round number
// instead of the textbook sense reversal — equivalent, simpler to verify.
type TournamentBarrier struct {
	n      int
	levels int
	arrive [][]arch.Addr // [winner][level]: written by loser, spun on locally
	wake   []arch.Addr   // [proc]: written by the winner that beat proc
	round  []arch.Word   // per-processor private round counter
}

// NewTournamentBarrier allocates the match flags, each homed at its
// spinner's node for local spinning.
func NewTournamentBarrier(m *machine.Machine) *TournamentBarrier {
	n := m.Procs()
	levels := 0
	for 1<<levels < n {
		levels++
	}
	b := &TournamentBarrier{
		n:      n,
		levels: levels,
		arrive: make([][]arch.Addr, n),
		wake:   make([]arch.Addr, n),
		round:  make([]arch.Word, n),
	}
	for i := 0; i < n; i++ {
		b.arrive[i] = make([]arch.Addr, levels)
		for k := 0; k < levels; k++ {
			if i&(1<<k) == 0 && i|1<<k < n && i|1<<k != i {
				b.arrive[i][k] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
			}
		}
		b.wake[i] = m.AllocSyncAt(mesh.NodeID(i), core.PolicyINV)
	}
	return b
}

// Wait blocks (in simulated time) until all processors have called Wait
// for the current round.
func (b *TournamentBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	b.round[i]++
	round := b.round[i]

	// Arrival: play matches up the levels until we lose one (or become
	// champion). A winner first waits for the loser it is matched with.
	lost := b.levels
	for k := 0; k < b.levels; k++ {
		if i&(1<<k) != 0 {
			// We lose this match: report to the winner, then wait for
			// the wakeup broadcast.
			winner := i &^ (1 << k)
			p.Store(b.arrive[winner][k], round)
			p.SpinWhile(b.wake[i], machine.Less, round, 2)
			lost = k
			break
		}
		if loser := i | 1<<k; loser < b.n {
			p.SpinWhile(b.arrive[i][k], machine.Less, round, 2)
		}
	}
	// Wakeup: retrace the matches we won, highest level first.
	for k := lost - 1; k >= 0; k-- {
		if loser := i | 1<<k; loser < b.n && loser != i {
			p.Store(b.wake[loser], round)
		}
	}
}
