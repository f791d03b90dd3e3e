package exper

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepSlots runs job(slot, 0) .. job(slot, n-1) across a pool of par
// worker goroutines and returns when all jobs have finished. Each worker
// owns one MachineSlot for the sweep's lifetime and passes it to every job
// it executes, so a job that runs its point on the slot's machine reuses
// that machine across jobs with no rebuild and no cross-worker
// contention — the per-worker ownership that lets a sweep actually scale
// with GOMAXPROCS.
//
// Each simulation run owns its machine — engine, mesh, protocol state, RNG
// streams, and statistics are all per-Machine, and the packages underneath
// hold no mutable package-level state — so independent runs share nothing
// and the fan-out cannot perturb results. Determinism is preserved by
// construction: a reset machine replays a fresh one cycle for cycle, jobs
// write their results into caller-provided slots indexed by job number,
// and callers render the slots in serial order afterwards, so output is
// byte-identical for every par, including par == 1.
//
// par <= 0 selects GOMAXPROCS workers; par == 1 runs the jobs serially on
// the calling goroutine with a single slot (no goroutines spawned),
// restoring the pre-parallel execution exactly. Jobs are handed out by an
// atomic counter rather than striped up front, so long runs (real
// applications) do not straggle behind a fixed partition.
func SweepSlots(n, par int, job func(s *MachineSlot, i int)) {
	if n <= 0 {
		return
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par == 1 {
		var s MachineSlot
		for i := 0; i < n; i++ {
			job(&s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			var s MachineSlot
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(&s, i)
			}
		}()
	}
	wg.Wait()
}

// Sweep is SweepSlots without the machine slot, for jobs that manage their
// own machines (or run none at all). Scheduling and determinism guarantees
// are identical.
func Sweep(n, par int, job func(i int)) {
	SweepSlots(n, par, func(_ *MachineSlot, i int) { job(i) })
}
