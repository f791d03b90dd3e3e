package exper

import (
	"sync"

	"dsm/internal/core"
	"dsm/internal/machine"
)

// Machine reuse has one form, MachineSlot: per-worker ownership. A sweep
// worker (or serve pool worker) holds one slot for its lifetime and reuses
// its resident machine across jobs, with no locking and no handoff between
// goroutines. Plan.Run and the serving layer go through slots, and
// Point.Run shares one slot under a lock. machine.Reset replays a fresh
// machine cycle for cycle, so reuse changes host time and memory only.
//
// Callers that own a machine for one run (Table1Par, cmd/dsmsim) build a
// fresh one with NewMachine. A machine allocates its cache lines page by
// page on first fill, so a fresh 64-node machine costs ~0.1 ms and
// ~0.3 MB. Machines of mismatched geometry (Reset returns false) are
// simply dropped to the GC.

// oneOff is the slot Point.Run shares. Reusing one machine keeps a caller
// that runs points one at a time, such as one recomputing served results,
// from building and dropping a machine per point, which churns the heap.
var oneOff struct {
	mu   sync.Mutex
	slot MachineSlot
}

// SlotMachines bounds how many machines of distinct geometry one slot
// keeps resident. Mixed-geometry work (a sweep spanning several processor
// counts, a serve worker fed arbitrary specs) cycles through its
// geometries without rebuilding, while the worst case stays a few MB of
// resident simulator state per worker.
const SlotMachines = 4

// MachineSlot holds one worker goroutine's dedicated machines: a small
// most-recently-used cache keyed by machine geometry. The zero value is
// ready to use; Machine builds on first use of a geometry and
// reset-and-reuses thereafter, evicting the least recently used machine
// past the SlotMachines bound. A slot must only be used by one goroutine
// at a time — that exclusivity is the point: no lock and no handoff
// between cores.
type MachineSlot struct {
	ms []*machine.Machine // most recently used first; len <= SlotMachines

	builds uint64 // machines constructed (cache misses)
	resets uint64 // machines reset-and-reused (cache hits)
}

// Machine returns a machine configured as cfg, reusing a resident machine
// whose structure matches and building one otherwise. The returned machine
// stays owned by the slot; call Machine again for the next run. Matching is by attempted Reset — Reset
// refuses structural mismatches and leaves the machine untouched, so
// probing the residents in recency order is both the lookup and the reuse.
func (s *MachineSlot) Machine(cfg core.Config) *machine.Machine {
	for i, m := range s.ms {
		if m.Reset(cfg) {
			s.resets++
			if i != 0 {
				copy(s.ms[1:i+1], s.ms[:i])
				s.ms[0] = m
			}
			return m
		}
	}
	m := machine.New(cfg)
	s.builds++
	if len(s.ms) < SlotMachines {
		s.ms = append(s.ms, nil)
	}
	// Shift right; when the slot is full this drops the last (least
	// recently used) machine to the garbage collector.
	copy(s.ms[1:], s.ms)
	s.ms[0] = m
	return m
}

// Stats reports the slot's lifetime cache behavior: machines built (misses,
// including evictions refilled later) and machines reset-and-reused (hits).
func (s *MachineSlot) Stats() (builds, resets uint64) { return s.builds, s.resets }

// MachineConfig is the machine configuration a bar needs at the given
// scale: a near-square mesh accommodating o.Procs nodes, with the bar's
// CAS variant.
func MachineConfig(o RunOpts, b Bar) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = o.Procs
	w := 1
	for w*w < o.Procs {
		w++
	}
	cfg.Mesh.Width = w
	cfg.Mesh.Height = (o.Procs + w - 1) / w
	cfg.CAS = b.Variant
	return cfg
}

// NewMachine builds a fresh machine for one bar under the given scale.
func NewMachine(o RunOpts, b Bar) *machine.Machine {
	return machine.New(MachineConfig(o, b))
}
