// Package machine assembles the simulated multiprocessor and provides the
// execution-driven front end that plays the role MINT plays in the paper:
// application code runs as one coroutine per simulated processor and issues
// timed memory references to the back end (internal/core) through a Proc
// handle.
//
// Determinism: the simulation engine and the processor programs take turns,
// one running at a time. The engine resumes a processor by switching to its
// coroutine, and the program runs until it yields its next timed action (a
// memory operation, a barrier arrival, or termination), which switches
// back. A compute delay does not switch: the program runs past it, and its
// next action carries the delay and takes effect when the delay has
// elapsed, as MINT enters the back end only at timed actions. A constant-gap
// spin-wait is one action too: Proc.SpinWhile hands the engine the address,
// comparison and gap, and the engine runs the loads, counting each as the
// Go loop would, until the comparison fails; only then does the program
// resume. A spin whose load hits its own cache parks until the cache
// receives a message for the line. Its loads then pass as virtual events
// of a sim.Chain, which the engine does not run or step: the wake finds
// how many passed and counts them in bulk. All back-end activity happens
// in the engine's event loop, so a given program and configuration always
// produce the same cycle-for-cycle execution.
//
// Each processor's coroutine is resident: created at its first program and
// kept across runs and Resets. A panic in a program reaches RunEach's
// caller, and a machine that is dropped rather than run to completion
// releases its coroutines when it is garbage collected.
package machine

import (
	"fmt"
	"runtime"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/dir"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// Machine is one simulated DSM multiprocessor.
type Machine struct {
	cfg   core.Config
	eng   *sim.Engine
	net   *mesh.Mesh
	sys   *core.System
	procs []*Proc
	coros []coro // procs[i].co is &coros[i]

	allocNext arch.Addr
	seed      uint64

	barrier barrierState
	running int // processors still executing the current program

	// progScratch is Run's per-call program slice, retained so repeated
	// runs on one machine do not allocate it.
	progScratch []func(p *Proc)

	// appScratch is an opaque slot the application layer uses to cache
	// reusable per-machine structures (program runners, preallocated
	// closures) across runs. Reset leaves it alone: it carries host-side
	// scaffolding only, never simulated state.
	appScratch any
}

// barrierState implements the constant-time barrier MINT provides to the
// synthetic applications: it enforces the intended sharing pattern without
// perturbing the measurements (all waiters resume one cycle after the last
// arrival). The two slices ping-pong: while a release event holds one, new
// arrivals accumulate in the other, so barrier rounds reuse their storage.
type barrierState struct {
	waiting []*Proc
	spare   []*Proc
	arrived int

	// releasing is the slice a pending release event will drain, and
	// releaseFn the preallocated event body that drains it — at most one
	// release is ever pending (see releaseBarrier), so a single pair
	// suffices and no closure is allocated per barrier round.
	releasing []*Proc
	releaseFn func()
}

// Shared-memory allocation starts above a reserved low page, and the
// per-processor random streams derive from a fixed default seed; Reset
// restores both so a reused machine replays allocation and randomness
// exactly as a fresh one would.
const (
	allocBase   arch.Addr = 0x1000
	defaultSeed uint64    = 0x5eed
)

// New builds a machine. The mesh geometry must accommodate cfg.Nodes.
func New(cfg core.Config) *Machine {
	eng := sim.NewEngine()
	net := mesh.New(eng, cfg.Mesh)
	m := &Machine{
		cfg:       cfg,
		eng:       eng,
		net:       net,
		sys:       core.NewSystem(eng, net, cfg),
		allocNext: allocBase,
		seed:      defaultSeed,
	}
	m.barrier.waiting = make([]*Proc, 0, cfg.Nodes)
	m.barrier.spare = make([]*Proc, 0, cfg.Nodes)
	m.barrier.releaseFn = func() {
		for _, w := range m.barrier.releasing {
			w.step(core.Result{})
		}
	}
	ps := make([]Proc, cfg.Nodes)
	m.procs = make([]*Proc, cfg.Nodes)
	m.coros = make([]coro, cfg.Nodes)
	for i := range m.procs {
		m.procs[i] = &ps[i]
		m.procs[i].init(m, mesh.NodeID(i), &m.coros[i])
	}
	// A machine dropped between runs (after a one-off run, by a slot
	// eviction, or on a caller's panic path) is still collected, because
	// the coroutine slab does not reach m; this then stops its parked
	// coroutines.
	runtime.AddCleanup(m, haltAll, m.coros)
	return m
}

// Reset returns the machine to its post-New state under cfg — clock at
// zero, caches, directories, and memory empty, counters cleared — while
// keeping every allocation: the engine's event pool, the message pool, the
// cache line pages filled so far, and the mesh route tables. It reports whether the reset
// was possible: cfg must structurally match the machine (node count, mesh,
// cache and memory geometry); behavioral fields (CAS variant, reservation
// scheme, tracking, delays) may differ. On false the machine is unchanged
// and the caller should build a fresh one.
//
// A reset machine reproduces a fresh machine's execution cycle for cycle:
// the virtual clock, event sequence numbers, allocation cursor, and RNG
// seed all restart from their initial values. Reset must only be called
// between runs, on a quiescent machine.
func (m *Machine) Reset(cfg core.Config) bool {
	if cfg.Nodes != m.cfg.Nodes || cfg.Mesh != m.cfg.Mesh {
		return false
	}
	if !m.sys.Reset(cfg) {
		return false
	}
	m.cfg = cfg
	m.eng.Reset()
	m.net.Reset()
	m.allocNext = allocBase
	m.seed = defaultSeed
	m.running = 0
	m.barrier.waiting = m.barrier.waiting[:0]
	m.barrier.spare = m.barrier.spare[:0]
	m.barrier.arrived = 0
	for _, p := range m.procs {
		p.stats = ProcStats{}
		p.lastSerial = 0
	}
	return true
}

// Procs returns the number of simulated processors.
func (m *Machine) Procs() int { return m.cfg.Nodes }

// System exposes the protocol layer (stats, policies, invariant checks).
func (m *Machine) System() *core.System { return m.sys }

// Mesh exposes the interconnect (traffic statistics).
func (m *Machine) Mesh() *mesh.Mesh { return m.net }

// Engine exposes the simulation engine (current time).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current simulated time in cycles.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// ProcStats returns processor i's accumulated activity counters.
func (m *Machine) ProcStats(i int) ProcStats { return m.procs[i].stats }

// SetSeed sets the seed from which per-processor random streams derive.
// Call before Run.
func (m *Machine) SetSeed(s uint64) { m.seed = s }

// ------------------------------------------------------------ memory ----

// Alloc reserves size bytes of zeroed shared memory starting at a block
// boundary and returns the base address. Consecutive blocks interleave
// across home nodes, as on the simulated hardware.
func (m *Machine) Alloc(size uint32) arch.Addr {
	if size == 0 {
		panic("machine: zero-size allocation")
	}
	base := m.allocNext
	blocks := (arch.Addr(size) + arch.BlockBytes - 1) / arch.BlockBytes
	m.allocNext += blocks * arch.BlockBytes
	return base
}

// AllocSync reserves one word in its own block under the given coherence
// policy and returns its address. Each call advances to a fresh block, so
// distinct synchronization variables never exhibit false sharing.
func (m *Machine) AllocSync(p proto.Policy) arch.Addr {
	a := m.Alloc(arch.BlockBytes)
	m.sys.SetPolicy(a, p)
	return a
}

// AllocSyncAt is AllocSync with the block homed at a specific node.
func (m *Machine) AllocSyncAt(home mesh.NodeID, p proto.Policy) arch.Addr {
	for mesh.NodeID(int(arch.BlockNumber(m.allocNext))%m.cfg.Nodes) != home {
		m.allocNext += arch.BlockBytes
	}
	return m.AllocSync(p)
}

// Poke writes a word directly into memory, bypassing the simulation (for
// initializing inputs). It must not be used while data is cached dirty.
func (m *Machine) Poke(a arch.Addr, v arch.Word) {
	m.sys.Home(m.sys.HomeOf(a)).Memory().WriteWord(a, v)
}

// Peek returns the current coherent value of a word without simulation
// cost: the owner's cached copy if the block is dirty, memory otherwise.
func (m *Machine) Peek(a arch.Addr) arch.Word {
	h := m.sys.Home(m.sys.HomeOf(a))
	if e := h.Directory().Peek(a); e != nil && e.State == dir.Exclusive {
		if l := m.sys.Cache(e.Owner).CacheArray().Peek(a); l != nil {
			return l.Word(a)
		}
	}
	return h.Memory().ReadWord(a)
}

// --------------------------------------------------------------- run ----

// Run executes program once per processor (each sees its own Proc) and
// returns the elapsed simulated time from start to the completion of the
// last processor. It may be called repeatedly; time accumulates.
func (m *Machine) Run(program func(p *Proc)) sim.Time {
	if m.progScratch == nil {
		m.progScratch = make([]func(p *Proc), m.Procs())
	}
	progs := m.progScratch
	for i := range progs {
		progs[i] = program
	}
	return m.RunEach(progs)
}

// AppScratch returns the value stored by SetAppScratch, or nil. The slot
// lets application packages keep reusable run scaffolding resident on the
// machine (surviving Reset) without the machine knowing its type.
func (m *Machine) AppScratch() any { return m.appScratch }

// SetAppScratch stores an application-layer cache on the machine.
func (m *Machine) SetAppScratch(v any) { m.appScratch = v }

// RunEach executes programs[i] on processor i (nil entries idle). It
// returns the elapsed simulated time. A panic in a program, or a deadlock,
// panics out of RunEach after every processor's coroutine is stopped (its
// program unwound, deferred calls run); the machine may then be Reset and
// reused.
func (m *Machine) RunEach(programs []func(p *Proc)) sim.Time {
	if len(programs) != m.Procs() {
		panic(fmt.Sprintf("machine: %d programs for %d processors", len(programs), m.Procs()))
	}
	start := m.eng.Now()
	m.running = 0
	for i, prog := range programs {
		if prog == nil {
			continue
		}
		m.running++
		p := m.procs[i]
		p.begin(prog, m.seed)
	}
	if m.running == 0 {
		return 0
	}
	// A panic or Goexit out of the event loop leaves programs suspended
	// mid-run, their coroutines holding the machine; unwind them all.
	finished := false
	defer func() {
		if !finished {
			haltAll(m.coros)
		}
	}()
	for i, prog := range programs {
		if prog == nil {
			continue
		}
		m.eng.At(start, m.procs[i].resumeFn)
	}
	for m.running > 0 {
		if !m.eng.Step() {
			panic(fmt.Sprintf("machine: deadlock with %d processors unfinished", m.running))
		}
	}
	finished = true
	elapsed := m.eng.Now() - start
	// Drain in-flight fire-and-forget traffic (write-backs, drop hints) so
	// Peek and the coherence invariants see a quiescent machine. This does
	// not affect the reported elapsed time.
	for m.eng.Step() {
	}
	return elapsed
}

// arriveBarrier records a processor at the constant-time barrier; when all
// running processors have arrived, all resume one cycle later.
func (m *Machine) arriveBarrier(p *Proc) {
	b := &m.barrier
	b.waiting = append(b.waiting, p)
	b.arrived++
	if b.arrived < m.running {
		return
	}
	m.releaseBarrier()
}

// releaseBarrier resumes every waiter one cycle from now. The drained slice
// goes back to the ping-pong pair once the release has fired; at most one
// release is ever pending (waiters cannot re-arrive before they resume), so
// the swap never hands out storage a pending release still holds and the
// single releasing/releaseFn pair carries every round.
func (m *Machine) releaseBarrier() {
	b := &m.barrier
	b.releasing = b.waiting
	b.waiting = b.spare[:0]
	b.spare = b.releasing
	b.arrived = 0
	m.eng.After(1, b.releaseFn)
}

// procDone records a processor finishing its program.
func (m *Machine) procDone() {
	m.running--
	// A barrier can complete when the last non-finished processor is
	// already waiting and a peer exits (programs should not mix exits
	// with barriers, but do not deadlock if they do).
	if m.running > 0 && m.barrier.arrived >= m.running && m.barrier.arrived > 0 {
		m.releaseBarrier()
	}
}
