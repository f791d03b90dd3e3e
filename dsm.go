// Package dsm is a library-level reproduction of "Implementation of Atomic
// Primitives on Distributed Shared Memory Multiprocessors" (Michael &
// Scott, HPCA 1995).
//
// It provides an execution-driven, cycle-level simulator of a 64-node
// directory-based cache-coherent DSM multiprocessor (32-byte blocks,
// queued memory, 2-D wormhole mesh) and hardware implementations of the
// general-purpose atomic primitives the paper studies — fetch_and_Φ,
// compare_and_swap, and load_linked/store_conditional — under three
// coherence policies for atomically accessed data (INV, UPD, UNC), the
// compare_and_swap variants INVd and INVs, and the auxiliary instructions
// load_exclusive and drop_copy.
//
// Application code runs one coroutine per simulated processor against the
// Proc interface, exactly as the paper drives its back end with MINT:
//
//	m := dsm.New64()
//	counter := m.AllocSync(dsm.INV)
//	m.Run(func(p *dsm.Proc) {
//	    p.FetchAdd(counter, 1)
//	})
//
// Higher-level synchronization (test-and-test-and-set locks with bounded
// exponential backoff, MCS queue locks, scalable tree barriers, lock-free
// counters) and the paper's workloads are re-exported from the internal
// packages, along with the statistics machinery that regenerates every
// table and figure of the paper's evaluation (see EXPERIMENTS.md and
// cmd/figures).
package dsm

import (
	"dsm/internal/apps"
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/dir"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/sim"
	"dsm/internal/trace"
)

// Core simulated-machine types.
type (
	// Machine is one simulated DSM multiprocessor.
	Machine = machine.Machine
	// Proc is a simulated processor, the handle application code uses to
	// issue timed memory references.
	Proc = machine.Proc
	// Config selects machine size, timing, and protocol options.
	Config = core.Config
	// Addr is a physical byte address in the simulated shared memory.
	Addr = arch.Addr
	// Word is the 32-bit unit of all memory operations.
	Word = arch.Word
	// Time is simulated time, in processor cycles.
	Time = sim.Time
	// Policy is the coherence policy for atomically accessed data.
	Policy = core.Policy
	// CASVariant selects among the INV-policy compare_and_swap
	// implementations (plain, INVd, INVs).
	CASVariant = core.CASVariant
	// ResvScheme selects the memory-side LL/SC reservation representation.
	ResvScheme = dir.ResvScheme
	// Request and Result expose the raw operation interface, including
	// the serialized-message chain measurements of Table 1.
	Request = core.Request
	Result  = core.Result
	// OpKind identifies a raw memory operation for Request.
	OpKind = core.OpKind
	// NodeID identifies a processing node (for placement-aware allocation
	// with Machine.AllocSyncAt).
	NodeID = mesh.NodeID
	// Cmp is the comparison Proc.SpinWhile tests each loaded value
	// against; the spin continues while it holds.
	Cmp = machine.Cmp
)

// Spin comparisons for Proc.SpinWhile.
const (
	Less     = machine.Less
	Equal    = machine.Equal
	NotEqual = machine.NotEqual
)

// Raw operation kinds for Proc.Do.
const (
	OpLoad          = core.OpLoad
	OpStore         = core.OpStore
	OpLoadExclusive = core.OpLoadExclusive
	OpDropCopy      = core.OpDropCopy
	OpFetchAdd      = core.OpFetchAdd
	OpFetchStore    = core.OpFetchStore
	OpFetchOr       = core.OpFetchOr
	OpTestAndSet    = core.OpTestAndSet
	OpCAS           = core.OpCAS
	OpLL            = core.OpLL
	OpSC            = core.OpSC
)

// Synchronization algorithm types (the paper's software layer).
type (
	// Prim selects the primitive family an algorithm is built on.
	Prim = locks.Prim
	// Options tunes primitive use (load_exclusive, drop_copy).
	Options = locks.Options
	// Counter is a lock-free shared counter.
	Counter = locks.Counter
	// TTSLock is a test-and-test-and-set lock with bounded exponential
	// backoff.
	TTSLock = locks.TTSLock
	// MCSLock is the MCS queue-based spin lock.
	MCSLock = locks.MCSLock
	// TreeBarrier is the scalable MCS tree barrier.
	TreeBarrier = locks.TreeBarrier
	// Stack is a Treiber lock-free stack with recyclable nodes
	// (demonstrates the paper's section-2.2 pointer/ABA problem; see
	// examples/abaproblem).
	Stack = locks.TreiberStack
	// Queue is a bounded fetch_and_add FIFO queue.
	Queue = locks.Queue
	// CentralBarrier is a sense-reversing centralized barrier.
	CentralBarrier = locks.CentralBarrier
	// Pattern describes a synthetic workload's sharing pattern (the
	// paper's contention level c and write-run length a).
	Pattern = apps.Pattern
	// PatternResult reports a pattern-driven workload run.
	PatternResult = apps.Result
)

// Coherence policies for atomically accessed data.
const (
	// INV: primitives execute in the cache controllers under
	// write-invalidate — the paper's recommended implementation.
	INV = core.PolicyINV
	// UPD: primitives execute at the memory under write-update.
	UPD = core.PolicyUPD
	// UNC: primitives execute at the memory; the data is never cached.
	UNC = core.PolicyUNC
)

// Primitive families.
const (
	// FAP is the fetch_and_Φ family (fetch_and_add, fetch_and_store,
	// fetch_and_or, test_and_set).
	FAP = locks.PrimFAP
	// CAS is compare_and_swap.
	CAS = locks.PrimCAS
	// LLSC is load_linked/store_conditional.
	LLSC = locks.PrimLLSC
)

// compare_and_swap implementation variants (Config.CAS).
const (
	CASPlain = core.CASPlain
	CASDeny  = core.CASDeny
	CASShare = core.CASShare
)

// Memory-side LL/SC reservation schemes (Config.ResvScheme).
const (
	ResvBitVector = dir.ResvBitVector
	ResvLimited   = dir.ResvLimited
	ResvSerial    = dir.ResvSerial
)

// DefaultConfig returns the paper's machine: 64 nodes, 8x8 wormhole mesh,
// 32-byte blocks, queued memory.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) *Machine { return machine.New(cfg) }

// New64 builds the paper's 64-processor machine with default settings.
func New64() *Machine { return machine.New(core.DefaultConfig()) }

// NewSmall builds an n-processor machine (n up to 64) on the smallest
// square mesh that fits — convenient for tests and examples.
func NewSmall(n int) *Machine {
	cfg := core.DefaultConfig()
	cfg.Nodes = n
	w := 1
	for w*w < n {
		w++
	}
	cfg.Mesh.Width, cfg.Mesh.Height = w, (n+w-1)/w
	if cfg.Mesh.Width*cfg.Mesh.Height < n {
		cfg.Mesh.Height++
	}
	return machine.New(cfg)
}

// NewCounter allocates a lock-free counter under the given policy.
func NewCounter(m *Machine, policy Policy, opts Options) *Counter {
	return locks.NewCounter(m, policy, opts)
}

// NewTTSLock allocates a test-and-test-and-set lock with bounded
// exponential backoff.
func NewTTSLock(m *Machine, policy Policy, opts Options) *TTSLock {
	return locks.NewTTSLock(m, policy, opts)
}

// NewMCSLock allocates an MCS queue lock.
func NewMCSLock(m *Machine, policy Policy, opts Options) *MCSLock {
	return locks.NewMCSLock(m, policy, opts)
}

// NewTreeBarrier allocates a scalable tree barrier over all processors.
func NewTreeBarrier(m *Machine) *TreeBarrier {
	return locks.NewTreeBarrier(m)
}

// NewStack allocates a lock-free stack with nodes 1..capacity; under CAS
// its top is a counted pointer (clear Tagged for the textbook, ABA-prone
// compare_and_swap).
func NewStack(m *Machine, policy Policy, capacity int, opts Options) *Stack {
	return locks.NewTreiberStack(m, policy, capacity, opts)
}

// NewQueue allocates a bounded fetch_and_add FIFO queue (Gottlieb et al.,
// the paper's reference [9]).
func NewQueue(m *Machine, policy Policy, slots int, opts Options) *Queue {
	return locks.NewQueue(m, policy, slots, opts)
}

// NewCentralBarrier allocates a sense-reversing centralized barrier, the
// tree barrier's unscalable foil.
func NewCentralBarrier(m *Machine, policy Policy, opts Options) *CentralBarrier {
	return locks.NewCentralBarrier(m, policy, opts)
}

// Trace is a bounded ring buffer of protocol events for debugging and
// teaching; attach one with AttachTrace.
type Trace = trace.Buffer

// AttachTrace installs a protocol-event trace retaining the most recent
// capacity events and returns it.
func AttachTrace(m *Machine, capacity int) *Trace {
	t := trace.New(capacity)
	m.System().SetTracer(t)
	return t
}

// RunSynthetic drives one update function under a sharing pattern, as the
// paper's synthetic applications do (barrier-separated rounds).
func RunSynthetic(m *Machine, pat Pattern, update func(p *Proc)) PatternResult {
	return apps.RunSynthetic(m, pat, update)
}

// CounterApp, TTSApp, and MCSApp are the paper's three synthetic
// applications (figures 3, 4, and 5).
func CounterApp(m *Machine, policy Policy, opts Options, pat Pattern) PatternResult {
	return apps.CounterApp(m, policy, opts, pat)
}

// TTSApp runs the counter-under-TTS-lock synthetic application.
func TTSApp(m *Machine, policy Policy, opts Options, pat Pattern) PatternResult {
	return apps.TTSApp(m, policy, opts, pat)
}

// MCSApp runs the counter-under-MCS-lock synthetic application.
func MCSApp(m *Machine, policy Policy, opts Options, pat Pattern) PatternResult {
	return apps.MCSApp(m, policy, opts, pat)
}
