// Package mem models the queued memory modules of the simulated machine.
//
// Each node owns one module holding that node's share of physical memory.
// Requests are serviced in arrival order: a module can overlap the tail of
// one access with the next (occupancy < latency models a pipelined DRAM
// bank), so under load the effective service rate is one access per
// occupancy period, while an isolated access completes after the full
// latency. This is the "queued memory" of the paper's methodology and is
// the source of memory contention in all experiments.
package mem

import (
	"dsm/internal/arch"
	"dsm/internal/sim"
)

// Config holds memory module timing parameters, in cycles.
type Config struct {
	Latency   sim.Time // arrival (at the module) to data available
	Occupancy sim.Time // minimum spacing between successive service starts
}

// DefaultConfig models a moderately fast early-90s DRAM bank.
func DefaultConfig() Config {
	return Config{Latency: 18, Occupancy: 6}
}

// Stats aggregates module activity.
type Stats struct {
	Accesses  uint64 `json:"accesses"`   // serviced requests
	QueueWait uint64 `json:"queue_wait"` // total cycles requests waited to start service
}

// Module is one node's memory bank plus its physical storage. Storage is
// block-granular and allocated a page of blocks at a time on first touch;
// untouched blocks read as zero, matching the zero-initialized shared
// address space the applications expect. A module holds every nodes-th
// block (blocks interleave across modules by block number), so storage is
// keyed by the module's local block index (arch.LocalBlock).
type Module struct {
	eng        *sim.Engine
	cfg        Config
	busy       sim.Time // next service may start at this time
	data       arch.Table[arch.BlockData]
	interleave uint32
	stats      Stats
}

// Init (re)initializes a module in place as one of nodes interleaved
// modules, for callers that embed Module by value. Every address passed to
// the module must be homed there.
func (m *Module) Init(eng *sim.Engine, cfg Config, nodes int) {
	*m = Module{eng: eng, cfg: cfg, interleave: uint32(nodes)}
}

// Stats returns a snapshot of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// Reset returns the module to its post-Init state: bank idle, counters
// cleared, storage reading as zero everywhere. Pages are zeroed in place
// rather than dropped: a reused machine touches the same blocks every run,
// and a zeroed block is indistinguishable from an absent one, so refilling
// after a reset allocates nothing in the steady state.
func (m *Module) Reset() {
	m.busy = 0
	m.stats = Stats{}
	m.data.Clear()
}

// AccessArg enqueues one memory access and runs done(arg) when its data is
// available. Queueing and bank occupancy are modeled; the handler performs
// the actual storage read/update at completion time. With a preallocated
// handler and a pointer payload, enqueueing an access allocates nothing.
func (m *Module) AccessArg(done func(any), arg any) {
	m.eng.AtArg(m.serviceTime(), done, arg)
}

// serviceTime books one access through the bank queue and returns the
// absolute time its data is available.
func (m *Module) serviceTime() sim.Time {
	start := m.eng.Now()
	if m.busy > start {
		m.stats.QueueWait += uint64(m.busy - start)
		start = m.busy
	}
	m.busy = start + m.cfg.Occupancy
	m.stats.Accesses++
	return start + m.cfg.Latency
}

// block returns the storage for the block containing a, allocating its
// page on first touch.
func (m *Module) block(a arch.Addr) *arch.BlockData {
	return m.data.At(arch.LocalBlock(a, m.interleave))
}

// ReadBlock returns a copy of the block containing a.
func (m *Module) ReadBlock(a arch.Addr) arch.BlockData {
	return *m.block(a)
}

// WriteBlock replaces the block containing a.
func (m *Module) WriteBlock(a arch.Addr, d arch.BlockData) {
	*m.block(a) = d
}

// ReadWord returns the word at a (word-aligned).
func (m *Module) ReadWord(a arch.Addr) arch.Word {
	arch.CheckWordAligned(a)
	return m.block(a)[arch.WordIndex(a)]
}

// WriteWord stores v at a (word-aligned).
func (m *Module) WriteWord(a arch.Addr, v arch.Word) {
	arch.CheckWordAligned(a)
	m.block(a)[arch.WordIndex(a)] = v
}
