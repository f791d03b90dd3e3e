// Package apps contains the paper's workloads: the three synthetic
// applications used for the controlled measurements of figures 3-5 (a
// lock-free counter, a counter under a test-and-test-and-set lock, and a
// counter under an MCS lock), and the three "real" applications of figures
// 2 and 6 (Transitive Closure, implemented in full from the paper's figure
// 1, plus LocusRoute-like and Cholesky-like kernels that reproduce the
// sharing patterns the paper measured in the SPLASH originals).
package apps

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/check"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

// Pattern describes the sharing pattern a synthetic run enforces, mirroring
// the paper's parameters: p processors, contention level c, and average
// write-run length a.
type Pattern struct {
	// Contention is the number of processors concurrently updating the
	// counter in each round (the paper's c). 1 means no contention.
	Contention int
	// WriteRun is the average number of consecutive updates by the active
	// processor per turn (the paper's a); meaningful when Contention is 1.
	// Fractional averages (e.g. 1.5) alternate shorter and longer runs.
	WriteRun float64
	// Rounds is the number of barrier-separated rounds to execute.
	Rounds int
}

// String renders the pattern as the paper labels its graphs.
func (pat Pattern) String() string {
	if pat.Contention <= 1 {
		return fmt.Sprintf("c=1 a=%g", pat.WriteRun)
	}
	return fmt.Sprintf("c=%d", pat.Contention)
}

// contention returns the pattern's contention level clamped to 1..procs.
func (pat Pattern) contention(procs int) int {
	return min(max(pat.Contention, 1), procs)
}

// runsFor returns how many consecutive updates the active processor
// performs in the given round to achieve the pattern's average write-run
// length: with a = n + f, a fraction f of turns perform n+1 updates.
func (pat Pattern) runsFor(round int) int {
	a := pat.WriteRun
	if a < 1 {
		a = 1
	}
	n := int(a)
	frac := a - float64(n)
	// Spread the longer turns evenly: turn r is long when the accumulated
	// fraction crosses an integer boundary.
	if int(float64(round+1)*frac) > int(float64(round)*frac) {
		return n + 1
	}
	return n
}

// Result reports a run's headline numbers under their wire names:
// exper.Result embeds it, and the service's response body embeds that.
// Real applications fill only Elapsed and Work.
type Result struct {
	Elapsed sim.Time `json:"elapsed_cycles"` // simulated cycles for the whole run
	// Ops counts completed work: counter updates, queue/stack operations,
	// RCU reads+updates, or barrier-app counter increments.
	Ops uint64 `json:"ops,omitempty"`
	// AvgCycles is Elapsed per operation — the y-axis of figures 3, 4,
	// and 5 — or, for the barrier apps, per barrier round.
	AvgCycles float64 `json:"avg_cycles,omitempty"`
	// Retries counts failed atomic swings (CAS misses, SC failures) of the
	// queue and stack.
	Retries uint64 `json:"retries,omitempty"`
	// TornReads counts the RCU readers' torn snapshots, which must be zero.
	TornReads uint64 `json:"torn_reads,omitempty"`
	// Work counts a real application's completed work: wires routed,
	// columns factored, or reachable pairs in the closure.
	Work uint64 `json:"work,omitempty"`
}

// runner is the pattern runner: barrier-separated rounds in which the
// pattern's active processors each run one episode, followed by a wait.
// One runner lives in each machine's app-scratch slot, holding the program
// closure handed to machine.Run, every app's episode body, and the values
// they drive, so a reused machine runs every subsequent point without
// allocating closures or lock objects — the sweep and serving hot path.
// All simulated state is still allocated through the machine per run, so
// a reused runner replays exactly what fresh closures would.
type runner struct {
	m    *machine.Machine
	prog func(p *machine.Proc) // allocated once; body reads the fields below

	pat      Pattern
	procs, c int
	// episode is an active processor's turn in a round: runs is the write
	// run the pattern assigns it (1 under contention). wait separates the
	// rounds.
	episode func(p *machine.Proc, round, runs int)
	wait    func(p *machine.Proc)
	ops     uint64
	hist    *check.History // per-operation history (nil for none)

	// The synthetic apps: update runs once per counter update.
	update                     func(p *machine.Proc)
	updateEp                   func(p *machine.Proc, round, runs int)
	counterUpd, ttsUpd, mcsUpd func(p *machine.Proc)
	counter                    locks.Counter // also the barrier apps' counter
	tts                        locks.TTSLock
	mcs                        locks.MCSLock
	ctr                        arch.Addr // the plain counter under the TTS/MCS locks

	// The queue and stack apps: put and take are the structure's
	// operations, and under the universal primitives the resident
	// structures are reinitialized in place every run.
	queueEp, stackEp     func(p *machine.Proc, round, runs int)
	put                  func(p *machine.Proc, v arch.Word)
	take                 func(p *machine.Proc) arch.Word
	msq                  locks.MSQueue
	treiber              locks.TreiberStack
	held                 []arch.Word // per processor: the Treiber node it owns
	msqPut, treiberPut   func(p *machine.Proc, v arch.Word)
	msqTake, treiberTake func(p *machine.Proc) arch.Word

	// The barrier apps: one counter increment per episode.
	incEp func(p *machine.Proc, round, runs int)
}

// runnerFor returns m's resident runner, creating it on first use.
func runnerFor(m *machine.Machine) *runner {
	if r, ok := m.AppScratch().(*runner); ok {
		return r
	}
	r := &runner{m: m}
	r.prog = r.body
	r.updateEp = func(p *machine.Proc, _, runs int) {
		for ; runs > 0; runs-- {
			r.update(p)
			r.ops++
		}
	}
	r.counterUpd = func(p *machine.Proc) { r.counter.Inc(p) }
	r.ttsUpd = func(p *machine.Proc) {
		r.tts.Acquire(p)
		p.Store(r.ctr, p.Load(r.ctr)+1)
		r.tts.Release(p)
	}
	r.mcsUpd = func(p *machine.Proc) {
		r.mcs.Acquire(p)
		p.Store(r.ctr, p.Load(r.ctr)+1)
		r.mcs.Release(p)
	}
	r.queueEp = func(p *machine.Proc, round, runs int) { r.pairs(p, round, runs, check.Enq, check.Deq) }
	r.stackEp = func(p *machine.Proc, round, runs int) { r.pairs(p, round, runs, check.Push, check.Pop) }
	r.msqPut = func(p *machine.Proc, v arch.Word) { r.msq.Enqueue(p, r.msq.AcquireNode(), v) }
	r.msqTake = func(p *machine.Proc) arch.Word {
		v, ok := r.msq.Dequeue(p)
		if !ok {
			panic("apps: balanced queue workload saw an empty queue")
		}
		return v
	}
	r.treiberPut = func(p *machine.Proc, v arch.Word) { r.treiber.Push(p, r.held[p.ID()], v) }
	r.treiberTake = func(p *machine.Proc) arch.Word {
		node, v, ok := r.treiber.Pop(p, nil)
		if !ok {
			panic("apps: balanced stack workload saw an empty stack")
		}
		r.held[p.ID()] = node
		return v
	}
	r.incEp = func(p *machine.Proc, _, _ int) {
		inv := p.Now()
		fetched := r.counter.Inc(p)
		record(r.hist, p, check.Inc, inv, fetched)
		r.ops++
	}
	m.SetAppScratch(r)
	return r
}

// body is the per-processor program: rounds separated by wait, with the
// pattern selecting who runs an episode when.
func (r *runner) body(p *machine.Proc) {
	for round := 0; round < r.pat.Rounds; round++ {
		if r.c == 1 {
			// No contention: one processor per round, performing a
			// write run; ownership rotates so data changes hands.
			if p.ID() == round%r.procs {
				r.episode(p, round, r.pat.runsFor(round))
			}
		} else if (p.ID()-round*r.c%r.procs+r.procs)%r.procs < r.c {
			// Contention: c processors run concurrently; the active
			// window rotates across rounds.
			r.episode(p, round, 1)
		}
		r.wait(p)
	}
}

// procBarrier is the MINT constant-time barrier the paper's methodology
// separates rounds with.
var procBarrier = (*machine.Proc).Barrier

// run executes one point: episode under pat, rounds separated by wait.
func (r *runner) run(pat Pattern, episode func(p *machine.Proc, round, runs int), wait func(p *machine.Proc)) Result {
	r.pat, r.procs = pat, r.m.Procs()
	r.c = pat.contention(r.procs)
	r.episode, r.wait, r.ops = episode, wait, 0
	elapsed := r.m.Run(r.prog)
	res := Result{Ops: r.ops, Elapsed: elapsed}
	if r.ops > 0 {
		res.AvgCycles = float64(elapsed) / float64(r.ops)
	}
	r.episode, r.wait, r.update, r.put, r.take, r.hist = nil, nil, nil, nil, nil, nil
	return res
}

// RunSynthetic drives update on m's processors under the given sharing
// pattern. Each round is separated by the MINT constant-time barrier, as
// in the paper's methodology; update is invoked once per counter update.
func RunSynthetic(m *machine.Machine, pat Pattern, update func(p *machine.Proc)) Result {
	r := runnerFor(m)
	r.update = update
	return r.run(pat, r.updateEp, procBarrier)
}

// CounterApp is the paper's first synthetic application: a lock-free
// counter updated with the primitive family under study.
func CounterApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern) Result {
	r := runnerFor(m)
	r.counter = locks.Counter{Addr: m.AllocSync(policy), Opts: opts}
	return RunSynthetic(m, pat, r.counterUpd)
}

// TTSApp is the second synthetic application: a counter protected by a
// test-and-test-and-set lock with bounded exponential backoff. The counter
// itself is ordinary (INV) data; only the lock uses the policy under study.
func TTSApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern) Result {
	r := runnerFor(m)
	r.tts = *locks.NewTTSLock(m, policy, opts)
	r.ctr = m.Alloc(4)
	return RunSynthetic(m, pat, r.ttsUpd)
}

// MCSApp is the third synthetic application: a counter protected by an MCS
// queue lock, exercising the case where load_linked/store_conditional
// simulates compare_and_swap (the release path).
func MCSApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern) Result {
	r := runnerFor(m)
	r.mcs.Init(m, policy, opts)
	r.ctr = m.Alloc(4)
	return RunSynthetic(m, pat, r.mcsUpd)
}
