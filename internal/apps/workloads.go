package apps

import (
	"dsm/internal/arch"
	"dsm/internal/check"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

// This file is the lock-free workload library: the data structures the
// paper's primitives exist to support, run under the same sharing-pattern
// methodology as the synthetic counters. Each workload reuses Pattern —
// Contention is how many processors operate on the structure per
// barrier-separated round (for RCU, how many write), and WriteRun is the
// number of consecutive operation pairs an uncontended owner performs per
// turn. Every workload runs under every policy×primitive bar; the queue
// and stack need a universal primitive, so under fetch_and_Φ they fall
// back to the structures that family can express (the Gottlieb-style
// ticket queue of locks.Queue, and a stack under a test-and-set lock) —
// the comparison the paper's section 6 draws between primitive families.
//
// The queue and stack optionally record per-operation invoke/respond
// histories into a check.History, closing the loop with the exact
// linearizability checkers: the simulation's full protocol stack — mesh,
// directory, caches, primitive implementations — sits between the
// operations and the checker's verdict.

// WorkloadResult reports a lock-free workload run.
type WorkloadResult struct {
	// Ops counts completed structure operations: queue/stack ops, RCU
	// reads+updates, or barrier-app counter increments.
	Ops uint64
	// Retries counts failed atomic swings (CAS misses, SC failures); for
	// RCU it counts torn reads, which must be zero.
	Retries uint64
	Elapsed sim.Time
	// AvgCycles is Elapsed per unit of work: per structure operation, or
	// per barrier episode for the barrier workloads.
	AvgCycles float64
}

// scratch is the machine's resident app-layer container: one slot per
// runner family, so alternating synthetic and workload points on a reused
// machine does not thrash either runner.
type scratch struct {
	synth *synthRunner
	work  *workRunner
}

// scratchFor returns m's scratch container, creating it on first use.
func scratchFor(m *machine.Machine) *scratch {
	if sc, ok := m.AppScratch().(*scratch); ok {
		return sc
	}
	sc := &scratch{}
	m.SetAppScratch(sc)
	return sc
}

// workRunner is the resident scaffolding for workload runs, mirroring
// synthRunner: the program closure is allocated once per machine, while
// all simulated state is allocated per run so reuse replays exactly.
type workRunner struct {
	m    *machine.Machine
	prog func(p *machine.Proc)

	pat      Pattern
	procs, c int
	episode  func(p *machine.Proc, round, runs int)
	ops      uint64

	// The queue and stack workloads' episode bodies, allocated once, and
	// what they operate on: the structure's operations, the history being
	// recorded (nil for none), and under the universal primitives the
	// resident structures, reinitialized in place every run.
	queueEp, stackEp     func(p *machine.Proc, round, runs int)
	put                  func(p *machine.Proc, v arch.Word)
	take                 func(p *machine.Proc) arch.Word
	hist                 *check.History
	msq                  locks.MSQueue
	treiber              locks.TreiberStack
	held                 []arch.Word // per processor: the Treiber node it owns
	msqPut, treiberPut   func(p *machine.Proc, v arch.Word)
	msqTake, treiberTake func(p *machine.Proc) arch.Word
}

func workFor(m *machine.Machine) *workRunner {
	sc := scratchFor(m)
	if sc.work != nil {
		return sc.work
	}
	r := &workRunner{m: m}
	r.prog = r.body
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
	sc.work = r
	return r
}

// pairs is the queue and stack episode: runs pairs of a put of a fresh
// value then a take, each recorded in r.hist under the given kinds.
func (r *workRunner) pairs(p *machine.Proc, round, runs int, putKind, takeKind check.Kind) {
	for it := 0; it < runs; it++ {
		v := workVal(round, r.procs, p.ID(), it)
		inv := p.Now()
		r.put(p, v)
		record(r.hist, p, putKind, inv, v)
		inv = p.Now()
		got := r.take(p)
		record(r.hist, p, takeKind, inv, got)
		r.ops += 2
	}
}

// body mirrors synthRunner.body: barrier-separated rounds with the
// pattern selecting the active processors; an uncontended owner performs
// a write run of episodes.
func (r *workRunner) body(p *machine.Proc) {
	for round := 0; round < r.pat.Rounds; round++ {
		if r.c == 1 {
			if p.ID() == round%r.procs {
				r.episode(p, round, r.pat.runsFor(round))
			}
		} else if (p.ID()-round*r.c%r.procs+r.procs)%r.procs < r.c {
			r.episode(p, round, 1)
		}
		p.Barrier()
	}
}

func (r *workRunner) run(pat Pattern, episode func(p *machine.Proc, round, runs int)) (uint64, sim.Time) {
	procs := r.m.Procs()
	c := pat.Contention
	if c < 1 {
		c = 1
	}
	if c > procs {
		c = procs
	}
	r.pat, r.procs, r.c = pat, procs, c
	r.episode = episode
	r.ops = 0
	elapsed := r.m.Run(r.prog)
	r.episode = nil
	return r.ops, elapsed
}

// clampC mirrors run's contention clamping for pre-run sizing.
func clampC(pat Pattern, procs int) int {
	c := pat.Contention
	if c < 1 {
		c = 1
	}
	if c > procs {
		c = procs
	}
	return c
}

// totalEpisodes is the number of operation pairs the pattern will drive.
func totalEpisodes(pat Pattern, procs int) int {
	c := clampC(pat, procs)
	total := 0
	for round := 0; round < pat.Rounds; round++ {
		if c == 1 {
			total += pat.runsFor(round)
		} else {
			total += c
		}
	}
	return total
}

// workVal builds the unique value for an episode iteration: values are
// distinct across the whole run (the differentiated-history requirement
// of the queue checker). Write runs are at most 11 long (WriteRun ≤ 10),
// so 16 slots per (round, proc) suffice.
func workVal(round, procs, id, it int) arch.Word {
	return arch.Word((round*procs+id)*16 + it + 1)
}

// record appends one op to h (nil h skips recording). Histories are
// written from processor programs, which run one at a time.
func record(h *check.History, p *machine.Proc, kind check.Kind, invoke sim.Time, v arch.Word) {
	if h != nil {
		h.Record(check.Op{Proc: p.ID(), Invoke: invoke, Respond: p.Now(), Kind: kind, Value: v})
	}
}

// QueueApp drives a FIFO queue under the pattern: each active processor
// enqueues a fresh value and then dequeues one, so rounds stay balanced
// and dequeues never find the queue empty. Under CAS and LL/SC the queue
// is the Michael-Scott lock-free queue; fetch_and_Φ cannot express its
// pointer swings, so that family runs the ticket queue built on
// fetch_and_add. With h non-nil every operation is recorded for
// (*check.History).CheckQueue.
func QueueApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern, h *check.History) WorkloadResult {
	r := workFor(m)
	procs := m.Procs()
	var retries *uint64
	if opts.Prim == locks.PrimFAP {
		q := locks.NewQueue(m, policy, procs+1, opts)
		r.put, r.take = q.Enqueue, q.Dequeue
	} else {
		r.msq.Init(m, policy, totalEpisodes(pat, procs), opts)
		r.put, r.take = r.msqPut, r.msqTake
		retries = &r.msq.Retries
	}
	return r.runPairs(pat, r.queueEp, h, retries)
}

// runPairs runs a queue or stack episode body under the pattern and
// reports its operations, elapsed time and retries (nil for none).
func (r *workRunner) runPairs(pat Pattern, episode func(p *machine.Proc, round, runs int), h *check.History, retries *uint64) WorkloadResult {
	r.hist = h
	ops, elapsed := r.run(pat, episode)
	r.hist, r.put, r.take = nil, nil, nil
	res := WorkloadResult{Ops: ops, Elapsed: elapsed}
	if retries != nil {
		res.Retries = *retries
	}
	if ops > 0 {
		res.AvgCycles = float64(elapsed) / float64(ops)
	}
	return res
}

// ttsStack is the fetch_and_Φ stack fallback: an array stack under a
// test-and-test-and-set lock (test_and_set is in the fetch_and_Φ family).
type ttsStack struct {
	lock *locks.TTSLock
	sp   arch.Addr
	slot []arch.Addr
}

func newTTSStack(m *machine.Machine, policy core.Policy, capacity int, opts locks.Options) *ttsStack {
	s := &ttsStack{lock: locks.NewTTSLock(m, policy, opts), sp: m.Alloc(4), slot: make([]arch.Addr, capacity)}
	for i := range s.slot {
		s.slot[i] = m.Alloc(arch.BlockBytes)
	}
	return s
}

func (s *ttsStack) push(p *machine.Proc, v arch.Word) {
	s.lock.Acquire(p)
	n := p.Load(s.sp)
	p.Store(s.slot[n], v)
	p.Store(s.sp, n+1)
	s.lock.Release(p)
}

func (s *ttsStack) pop(p *machine.Proc) arch.Word {
	s.lock.Acquire(p)
	n := p.Load(s.sp)
	v := p.Load(s.slot[n-1])
	p.Store(s.sp, n-1)
	s.lock.Release(p)
	return v
}

// StackApp drives a LIFO stack under the pattern, push-then-pop per
// episode like QueueApp. Under CAS and LL/SC it is the Treiber stack with
// genuinely recycled nodes: each processor starts owning one node and
// afterwards owns whichever node its pop returned, so re-pushes race
// stale readers exactly as the paper's section 2.2 describes — the
// counted-pointer tag (CAS) or the reservation (LL/SC) is load-bearing.
// Under fetch_and_Φ it is an array stack under a TTS lock. With h
// non-nil every operation is recorded for (*check.History).CheckStack.
func StackApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern, h *check.History) WorkloadResult {
	r := workFor(m)
	procs := m.Procs()
	var retries *uint64
	if opts.Prim == locks.PrimFAP {
		s := newTTSStack(m, policy, procs+1, opts)
		r.put, r.take = s.push, s.pop
	} else {
		r.treiber.Init(m, policy, procs, opts)
		if cap(r.held) < procs {
			r.held = make([]arch.Word, procs)
		}
		r.held = r.held[:procs]
		for i := range r.held {
			r.held[i] = arch.Word(i + 1)
		}
		r.put, r.take = r.treiberPut, r.treiberTake
		retries = &r.treiber.Retries
	}
	return r.runPairs(pat, r.stackEp, h, retries)
}

// rcuSnapshotWords is the snapshot size the RCU workload publishes.
const rcuSnapshotWords = 4

// RCUApp drives the read-copy-update workload: Contention processors
// write (serialized, each performing Rounds updates with grace periods),
// the rest read and announce quiescent states until the writers finish.
// This is the read-mostly inverse of every other workload — readers issue
// only ordinary loads — so UPD/INV/UNC differentiate on the publish
// fan-out rather than on atomic-op latency. Retries reports torn reads,
// which grace periods make impossible; a nonzero count is a protocol
// violation.
func RCUApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern) WorkloadResult {
	r := workFor(m)
	procs := m.Procs()
	writers := clampC(pat, procs)
	if writers >= procs && procs > 1 {
		writers = procs - 1
	}
	rcu := locks.NewRCU(m, policy, rcuSnapshotWords, opts)
	isReader := func(i int) bool { return i >= writers }
	done := m.AllocSync(core.PolicyINV)
	torn := uint64(0)
	// The RCU workload cannot use the round/barrier scaffold: a writer
	// waiting out a grace period needs the readers still running, not
	// parked at a barrier. Readers therefore spin until the last writer
	// raises done.
	r.ops = 0
	elapsed := m.Run(func(p *machine.Proc) {
		if p.ID() < writers {
			for u := 0; u < pat.Rounds; u++ {
				rcu.Update(p, isReader)
				r.ops++
				p.Compute(sim.Time(10 + p.Rand().Intn(20)))
			}
			p.FetchAdd(done, 1)
			return
		}
		for p.Load(done) < arch.Word(writers) {
			_, bad := rcu.ReadSnapshot(p)
			if bad {
				torn++
			}
			r.ops++
			rcu.Quiesce(p)
			p.Compute(sim.Time(5 + p.Rand().Intn(10)))
		}
	})
	res := WorkloadResult{Ops: r.ops, Retries: torn, Elapsed: elapsed}
	if r.ops > 0 {
		res.AvgCycles = float64(elapsed) / float64(r.ops)
	}
	return res
}

// waiter is the common face of the scalable barriers.
type waiter interface {
	Wait(p *machine.Proc)
}

// runBarrierApp drives a barrier workload: per round, the pattern's
// active processors increment a shared counter with the primitive under
// study (recorded as Inc ops for the counter checker when h is non-nil),
// then every processor enters the barrier. AvgCycles is per barrier
// episode — the barrier-latency figure — while Ops counts the increments.
func runBarrierApp(r *workRunner, b waiter, ctr *locks.Counter, pat Pattern, h *check.History) WorkloadResult {
	procs := r.m.Procs()
	c := clampC(pat, procs)
	r.pat, r.procs, r.c = pat, procs, c
	r.ops = 0
	elapsed := r.m.Run(func(p *machine.Proc) {
		for round := 0; round < pat.Rounds; round++ {
			if (p.ID()-round*c%procs+procs)%procs < c {
				inv := p.Now()
				fetched := ctr.Inc(p)
				record(h, p, check.Inc, inv, fetched)
				r.ops++
			}
			b.Wait(p)
		}
	})
	res := WorkloadResult{Ops: r.ops, Elapsed: elapsed}
	if pat.Rounds > 0 {
		res.AvgCycles = float64(elapsed) / float64(pat.Rounds)
	}
	return res
}

// TournamentApp runs the counter-then-barrier workload over the
// tournament barrier.
func TournamentApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern, h *check.History) WorkloadResult {
	ctr := &locks.Counter{Addr: m.AllocSync(policy), Opts: opts}
	return runBarrierApp(workFor(m), locks.NewTournamentBarrier(m), ctr, pat, h)
}

// DisseminationApp runs the counter-then-barrier workload over the
// dissemination barrier.
func DisseminationApp(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern, h *check.History) WorkloadResult {
	ctr := &locks.Counter{Addr: m.AllocSync(policy), Opts: opts}
	return runBarrierApp(workFor(m), locks.NewDisseminationBarrier(m), ctr, pat, h)
}
