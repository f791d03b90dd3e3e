package apps

import (
	"dsm/internal/arch"
	"dsm/internal/check"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// This file is the lock-free workload library: the data structures the
// paper's primitives exist to support, run under the same sharing-pattern
// methodology as the synthetic counters. Each workload reuses Pattern —
// Contention is how many processors operate on the structure per
// barrier-separated round (for RCU, how many write), and WriteRun is the
// number of consecutive operation pairs an uncontended queue or stack
// owner performs per turn (RCU and the barrier apps ignore it). Every
// workload runs under every policy×primitive bar; the queue
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

// totalEpisodes is the number of operation pairs the pattern will drive.
func totalEpisodes(pat Pattern, procs int) int {
	c := pat.contention(procs)
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
func QueueApp(m *machine.Machine, policy proto.Policy, opts locks.Options, pat Pattern, h *check.History) Result {
	r := runnerFor(m)
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

// pairs is the queue and stack episode: runs pairs of a put of a fresh
// value then a take, each recorded in r.hist under the given kinds.
func (r *runner) pairs(p *machine.Proc, round, runs int, putKind, takeKind check.Kind) {
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

// runPairs runs a queue or stack episode body under the pattern and
// reports its operations, elapsed time and retries (nil for none).
func (r *runner) runPairs(pat Pattern, episode func(p *machine.Proc, round, runs int), h *check.History, retries *uint64) Result {
	r.hist = h
	res := r.run(pat, episode, procBarrier)
	if retries != nil {
		res.Retries = *retries
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

func newTTSStack(m *machine.Machine, policy proto.Policy, capacity int, opts locks.Options) *ttsStack {
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
func StackApp(m *machine.Machine, policy proto.Policy, opts locks.Options, pat Pattern, h *check.History) Result {
	r := runnerFor(m)
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
// fan-out rather than on atomic-op latency. TornReads counts torn reads,
// which grace periods make impossible; a nonzero count is a protocol
// violation.
func RCUApp(m *machine.Machine, policy proto.Policy, opts locks.Options, pat Pattern) Result {
	procs := m.Procs()
	writers := pat.contention(procs)
	if writers >= procs && procs > 1 {
		writers = procs - 1
	}
	rcu := locks.NewRCU(m, policy, rcuSnapshotWords, opts)
	isReader := func(i int) bool { return i >= writers }
	done := m.AllocSync(proto.PolicyINV)
	var ops, torn uint64
	// The RCU workload cannot use the pattern runner: a writer waiting out
	// a grace period needs the readers still running, not parked at a
	// barrier. Readers therefore spin until the last writer raises done.
	elapsed := m.Run(func(p *machine.Proc) {
		if p.ID() < writers {
			for u := 0; u < pat.Rounds; u++ {
				rcu.Update(p, isReader)
				ops++
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
			ops++
			rcu.Quiesce(p)
			p.Compute(sim.Time(5 + p.Rand().Intn(10)))
		}
	})
	res := Result{Ops: ops, TornReads: torn, Elapsed: elapsed}
	if ops > 0 {
		res.AvgCycles = float64(elapsed) / float64(ops)
	}
	return res
}

// runBarrierApp drives a barrier workload: per round, the pattern's
// active processors increment the counter with the primitive under study
// (recorded as Inc ops for the counter checker when h is non-nil), then
// every processor waits at the barrier. An uncontended owner increments
// once, whatever the write run. AvgCycles is per barrier round — the
// barrier-latency figure — while Ops counts the increments.
func runBarrierApp(r *runner, wait func(p *machine.Proc), pat Pattern, h *check.History) Result {
	r.hist = h
	res := r.run(pat, r.incEp, wait)
	if pat.Rounds > 0 {
		res.AvgCycles = float64(res.Elapsed) / float64(pat.Rounds)
	}
	return res
}

// TournamentApp runs the counter-then-barrier workload over the
// tournament barrier.
func TournamentApp(m *machine.Machine, policy proto.Policy, opts locks.Options, pat Pattern, h *check.History) Result {
	r := runnerFor(m)
	r.counter = locks.Counter{Addr: m.AllocSync(policy), Opts: opts}
	return runBarrierApp(r, locks.NewTournamentBarrier(m).Wait, pat, h)
}

// DisseminationApp runs the counter-then-barrier workload over the
// dissemination barrier.
func DisseminationApp(m *machine.Machine, policy proto.Policy, opts locks.Options, pat Pattern, h *check.History) Result {
	r := runnerFor(m)
	r.counter = locks.Counter{Addr: m.AllocSync(policy), Opts: opts}
	return runBarrierApp(r, locks.NewDisseminationBarrier(m).Wait, pat, h)
}
