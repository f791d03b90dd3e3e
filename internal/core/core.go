// Package core implements the paper's contribution: hardware
// implementations of the general-purpose atomic primitives fetch_and_Φ,
// compare_and_swap, and load_linked/store_conditional on a directory-based
// cache-coherent DSM multiprocessor, under three coherence policies for
// atomically accessed data:
//
//   - INV: computational power in the cache controllers, write-invalidate
//     coherence. Includes the compare_and_swap variants INVd ("deny") and
//     INVs ("share") that compare at the home/owner and refuse to migrate
//     the line when the comparison fails.
//   - UPD: computational power in the memory modules, write-update
//     coherence.
//   - UNC: computational power in the memory modules, caching disabled.
//
// It also implements the auxiliary instructions load_exclusive and
// drop_copy, cache-side LL/SC reservations (one reservation bit and address
// register per processor) and the three memory-side reservation schemes of
// section 3.1 (full bit vector, limited-k, serial numbers).
//
// The protocols are home-centric DASH-style directory protocols with
// negative acknowledgments and requester retry for transient states, over
// the substrates in internal/{cache,dir,mem,mesh,sim}. The protocol itself
// — which (state, event) pairs are legal and what each one does — is not
// coded here: it lives as guarded-action transition tables in
// internal/proto, and CacheCtl/HomeCtl are interpreters that bind the
// tables' closed action vocabulary to the simulated machine (cache arrays,
// directory, memory, mesh). This is the only binding: the package's model
// checker (the TestMC* tests) replaces the mesh with queues whose delivery
// order it chooses, and explores small configurations exhaustively through
// these same controllers.
package core

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/cache"
	"dsm/internal/dir"
	"dsm/internal/mem"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
	"dsm/internal/stats"
)

// The protocol vocabulary — policies, compare_and_swap variants, operation
// kinds — is owned by internal/proto together with the transition tables;
// core re-exports the names so existing callers are unaffected.
type (
	Policy     = proto.Policy
	CASVariant = proto.CASVariant
	OpKind     = proto.OpKind
)

const (
	PolicyINV = proto.PolicyINV
	PolicyUPD = proto.PolicyUPD
	PolicyUNC = proto.PolicyUNC

	CASPlain = proto.CASPlain
	CASDeny  = proto.CASDeny
	CASShare = proto.CASShare

	OpLoad          = proto.OpLoad
	OpStore         = proto.OpStore
	OpLoadExclusive = proto.OpLoadExclusive
	OpDropCopy      = proto.OpDropCopy
	OpFetchAdd      = proto.OpFetchAdd
	OpFetchStore    = proto.OpFetchStore
	OpFetchOr       = proto.OpFetchOr
	OpTestAndSet    = proto.OpTestAndSet
	OpCAS           = proto.OpCAS
	OpLL            = proto.OpLL
	OpSC            = proto.OpSC
)

// Request is one processor-issued memory operation handed to the node's
// cache controller. Exactly one request per processor may be outstanding.
type Request struct {
	Op   OpKind
	Addr arch.Addr
	// Val is the store value, fetch_and_Φ operand, CAS expected value, or
	// SC value.
	Val arch.Word
	// Val2 is the CAS new value, or the expected serial number for SC
	// under the serial-number reservation scheme.
	Val2 arch.Word
	// Done receives the result when the operation completes.
	Done func(Result)
}

// Result is the outcome of a completed Request.
type Result struct {
	// Value is the loaded or fetched (old) value.
	Value arch.Word
	// OK is the success indication of compare_and_swap and
	// store_conditional; true for all other operations.
	OK bool
	// Serial is the block's write serial number returned by load_linked
	// under the serial-number reservation scheme.
	Serial arch.Word
	// Chain is the number of serialized network messages this operation
	// required (Table 1's metric). Local hits are 0.
	Chain int
}

// MaxNodes is the largest node count a machine can have: the paper's
// machine, and the width of the directory's sharer vector (dir.Bitset).
const MaxNodes = 64

// Config carries the protocol and timing configuration of the system.
type Config struct {
	Nodes int // processor/memory node count (must fit the mesh)

	Cache cache.Config
	Mem   mem.Config
	Mesh  mesh.Config

	CacheHitTime sim.Time // cycles for a cache hit / local controller step
	RetryDelay   sim.Time // base delay before retrying a NAKed request

	CAS CASVariant // INV-policy compare_and_swap implementation

	// ResvScheme and ResvLimit select the memory-side LL/SC reservation
	// representation (UNC and UPD policies).
	ResvScheme dir.ResvScheme
	ResvLimit  int
}

// DefaultConfig is the machine of the paper's methodology: 64 nodes,
// directory-based 32-byte-block caches, queued memory, 2-D wormhole mesh.
func DefaultConfig() Config {
	return Config{
		Nodes:        64,
		Cache:        cache.DefaultConfig(),
		Mem:          mem.DefaultConfig(),
		Mesh:         mesh.DefaultConfig(),
		CacheHitTime: 1,
		RetryDelay:   20,
		CAS:          CASPlain,
		ResvScheme:   dir.ResvBitVector,
		ResvLimit:    4,
	}
}

// Counters aggregates protocol-level event counts across the system.
type Counters struct {
	Requests    uint64 `json:"requests"`      // processor requests issued
	LocalHits   uint64 `json:"local_hits"`    // requests satisfied without leaving the node
	Naks        uint64 `json:"naks"`          // negative acknowledgments received by requesters
	Retries     uint64 `json:"retries"`       // request retries after NAK
	Invals      uint64 `json:"invals"`        // invalidation messages sent
	Updates     uint64 `json:"updates"`       // update messages sent
	Writebacks  uint64 `json:"writebacks"`    // dirty data returned to memory
	SCFailLocal uint64 `json:"sc_fail_local"` // store_conditionals failed without network traffic
}

// System is the collection of cache controllers and home controllers over
// one machine's substrates. All methods must be called from the simulation
// engine's event loop (or before it starts).
type System struct {
	cfg     Config
	eng     *sim.Engine
	mesh    *mesh.Mesh
	network network // meshNet{s} outside the model checker
	caches  []*CacheCtl
	homes   []*HomeCtl

	policies arch.Table[Policy] // by block number; untouched blocks are PolicyINV

	// msgPool recycles protocol messages (see msg.go); steady-state
	// request/reply/coherence traffic allocates no *msg.
	msgPool []*msg

	counters   Counters
	chains     *stats.ChainRecorder
	contention *stats.ContentionTracker
	writeRuns  *stats.WriteRunTracker

	tracer Tracer
}

// Tracer receives protocol events (see internal/trace for a ring-buffer
// implementation). A nil tracer costs nothing.
type Tracer interface {
	Record(at sim.Time, node int, kind, detail string)
}

// SetTracer installs (or, with nil, removes) a protocol event tracer.
func (s *System) SetTracer(t Tracer) { s.tracer = t }

// trace records one protocol event when a tracer is installed.
func (s *System) trace(node mesh.NodeID, kind, format string, args ...any) {
	if s.tracer == nil {
		return
	}
	s.tracer.Record(s.eng.Now(), int(node), kind, fmt.Sprintf(format, args...))
}

// NewSystem builds the controllers for a machine with the given
// configuration over the given engine and mesh.
func NewSystem(eng *sim.Engine, net *mesh.Mesh, cfg Config) *System {
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		panic(fmt.Sprintf("core: node count %d outside 1..%d", cfg.Nodes, MaxNodes))
	}
	if cfg.Nodes > net.Nodes() {
		panic("core: more nodes than mesh positions")
	}
	s := &System{
		cfg:  cfg,
		eng:  eng,
		mesh: net,
		chains: stats.NewChainGrid(proto.NumOps, proto.NumPolicies, func(op, pol int) string {
			return OpKind(op).String() + "/" + Policy(pol).String()
		}),
		contention: stats.NewContentionTracker(),
		writeRuns:  stats.NewWriteRunTracker(),
	}
	s.network = meshNet{s}
	// Controllers live in two slabs; the pointer slices index into them.
	ccs := make([]CacheCtl, cfg.Nodes)
	hcs := make([]HomeCtl, cfg.Nodes)
	s.caches = make([]*CacheCtl, cfg.Nodes)
	s.homes = make([]*HomeCtl, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		s.caches[n] = &ccs[n]
		s.homes[n] = &hcs[n]
		s.caches[n].init(s, mesh.NodeID(n))
		s.homes[n].init(s, mesh.NodeID(n))
	}
	return s
}

// Reset returns the system to its post-NewSystem state under cfg, keeping
// every allocation: controller slabs, cache line storage (invalidated by
// epoch), directory and memory pages (cleared in place), the message pool,
// and the stats trackers. It reports whether the reset was possible: cfg
// must match the existing controllers' structure (node count, cache and
// memory geometry); behavioral fields (CAS variant, retry delay,
// reservation scheme) may differ and are adopted. On false the
// system is unchanged. Reset must only be called on a quiescent system (no
// transactions or messages in flight).
func (s *System) Reset(cfg Config) bool {
	if cfg.Nodes != s.cfg.Nodes || cfg.Cache != s.cfg.Cache || cfg.Mem != s.cfg.Mem {
		return false
	}
	s.cfg = cfg
	s.policies.Clear() // zero value is PolicyINV, the default
	s.counters = Counters{}
	s.chains.Reset()
	s.contention.Reset()
	s.writeRuns.Reset()
	s.tracer = nil
	for n := range s.caches {
		s.caches[n].reset()
		s.homes[n].reset()
	}
	return true
}

// Cache returns node n's cache controller.
func (s *System) Cache(n mesh.NodeID) *CacheCtl { return s.caches[n] }

// Home returns node n's home (memory/directory) controller.
func (s *System) Home(n mesh.NodeID) *HomeCtl { return s.homes[n] }

// HomeOf returns the home node of an address: blocks are interleaved across
// the nodes by block number.
func (s *System) HomeOf(a arch.Addr) mesh.NodeID {
	return mesh.NodeID(int(arch.BlockNumber(a)) % s.cfg.Nodes)
}

// SetPolicy assigns a coherence policy to the block containing a. It must
// be called before any reference to the block (policy changes with data in
// flight are not modeled; real machines would flush first).
func (s *System) SetPolicy(a arch.Addr, p Policy) {
	*s.policies.At(arch.BlockNumber(a)) = p
}

// PolicyOf returns the coherence policy of the block containing a.
func (s *System) PolicyOf(a arch.Addr) Policy {
	if p := s.policies.Get(arch.BlockNumber(a)); p != nil {
		return *p
	}
	return PolicyINV
}

// Counters returns a snapshot of the protocol counters.
func (s *System) Counters() Counters { return s.counters }

// Chains returns the serialized-message-chain recorder (Table 1).
func (s *System) Chains() *stats.ChainRecorder { return s.chains }

// Contention returns the contention tracker (Figure 2).
func (s *System) Contention() *stats.ContentionTracker { return s.contention }

// WriteRuns returns the write-run-length tracker (section 4.2). Call Flush
// on it at the end of a run before reading the mean.
func (s *System) WriteRuns() *stats.WriteRunTracker { return s.writeRuns }

// CheckCoherence validates the global single-writer/multi-reader invariant:
// for every block, either at most one cache holds it Exclusive and no cache
// holds it Shared, or any number hold it Shared; and the directory entry
// (when quiescent) agrees with cache contents. It panics with a description
// of the first violation. Intended for tests; call only when no transaction
// is in flight.
func (s *System) CheckCoherence() {
	type copies struct {
		shared []mesh.NodeID
		excl   []mesh.NodeID
	}
	seen := make(map[arch.Addr]*copies)
	for n, cc := range s.caches {
		n := mesh.NodeID(n)
		cc.cache.ForEach(func(l *cache.Line) {
			c := seen[l.Base]
			if c == nil {
				c = &copies{}
				seen[l.Base] = c
			}
			switch l.State {
			case cache.SharedRO:
				c.shared = append(c.shared, n)
			case cache.ExclusiveRW:
				c.excl = append(c.excl, n)
			}
		})
	}
	for base, c := range seen {
		if len(c.excl) > 1 {
			panic(fmt.Sprintf("core: block %#x exclusive in %v", base, c.excl))
		}
		if len(c.excl) == 1 && len(c.shared) > 0 {
			panic(fmt.Sprintf("core: block %#x exclusive in %d and shared in %v",
				base, c.excl[0], c.shared))
		}
		e := s.homes[s.HomeOf(base)].dir.Peek(base)
		if e == nil {
			panic(fmt.Sprintf("core: block %#x cached but unknown to home", base))
		}
		if len(c.excl) == 1 && (e.State != dir.Exclusive || e.Owner != c.excl[0]) {
			panic(fmt.Sprintf("core: block %#x owner %d but directory %v/%d",
				base, c.excl[0], e.State, e.Owner))
		}
		for _, n := range c.shared {
			if e.State != dir.Shared || !e.Sharers.Has(n) {
				panic(fmt.Sprintf("core: block %#x shared in %d but directory %v/%b",
					base, n, e.State, e.Sharers))
			}
		}
	}
}

// trackAccess feeds the write-run bookkeeping of synchronization locations
// (words ever accessed atomically) for one completed (or locally performed)
// access.
func (s *System) trackAccess(a arch.Addr, proc mesh.NodeID, op OpKind, wrote bool) {
	s.writeRuns.SyncAccess(stats.Location(a), int(proc), wrote, op.IsAtomic())
}

// net reports whether a message between two nodes crosses the network.
func (s *System) net(a, b mesh.NodeID) int {
	if a == b {
		return 0
	}
	return 1
}
