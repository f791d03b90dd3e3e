package apps

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/sim"
)

// LocusRouteConfig parameterizes the LocusRoute-like kernel.
//
// The SPLASH LocusRoute sources are not redistributable, so this is a
// standard-cell-router kernel with the same synchronization structure the
// paper relies on: a central wire work queue protected by a lock, and a
// shared routing-cost grid updated under geographically partitioned locks.
// The paper characterizes LocusRoute only through the average write-run
// length of its lock variables (1.70-1.83) and a contention histogram
// dominated by the no-contention case with a short low-contention tail;
// this kernel reproduces both (see the package tests).
type LocusRouteConfig struct {
	Grid    int // cost-grid edge length
	Wires   int // wires to route
	Regions int // geographic lock count
	Policy  core.Policy
	Opts    locks.Options
	Seed    uint64
}

// DefaultLocusRoute sizes the kernel for a 64-processor run. The work per
// wire is coarse relative to the lock operations so that, as in the SPLASH
// original, the no-contention case dominates the lock histograms.
func DefaultLocusRoute(procs int) LocusRouteConfig {
	return LocusRouteConfig{Grid: 32, Wires: 4 * procs, Regions: 16, Seed: 0x10c05}
}

// LocusRoute routes Wires wires through the shared cost grid: each
// processor repeatedly takes a wire from the central queue (lock-protected,
// dynamic scheduling), evaluates the two L-shaped routes by reading the
// cost grid, and claims the cheaper one by incrementing the cost of its
// cells under the region locks.
func LocusRoute(m *machine.Machine, cfg LocusRouteConfig) Result {
	if cfg.Grid <= 0 || cfg.Wires <= 0 || cfg.Regions <= 0 {
		panic("apps: invalid LocusRoute config")
	}
	g := cfg.Grid

	grid := m.Alloc(uint32(g * g * arch.WordBytes))
	cellAddr := func(x, y int) arch.Addr {
		return grid + arch.Addr((y*g+x)*arch.WordBytes)
	}
	queueLock := locks.NewTTSLock(m, cfg.Policy, cfg.Opts)
	queueIdx := m.Alloc(4)
	regionLocks := make([]*locks.TTSLock, cfg.Regions)
	for i := range regionLocks {
		regionLocks[i] = locks.NewTTSLock(m, cfg.Policy, cfg.Opts)
	}
	regionOf := func(x, y int) int {
		return (y * cfg.Regions / g) % cfg.Regions
	}

	// The wire list is input data, generated deterministically.
	type wire struct{ x1, y1, x2, y2 int }
	wires := make([]wire, cfg.Wires)
	rng := sim.NewRNG(cfg.Seed)
	for i := range wires {
		wires[i] = wire{rng.Intn(g), rng.Intn(g), rng.Intn(g), rng.Intn(g)}
	}

	var routed uint64
	elapsed := m.Run(func(p *machine.Proc) {
		// Startup skew: processors enter the routing phase as the
		// sequential setup hands off, not in lockstep.
		p.Compute(sim.Time(p.ID()) * 450)
		for {
			// Dynamic scheduling: take the next wire under the queue lock.
			queueLock.Acquire(p)
			idx := int(p.Load(queueIdx))
			p.Store(queueIdx, arch.Word(idx+1))
			queueLock.Release(p)
			if idx >= len(wires) {
				return
			}
			w := wires[idx]

			// Evaluate both L-shaped routes by reading the cost grid.
			costA := routeCost(p, cellAddr, w.x1, w.y1, w.x2, w.y2, true)
			costB := routeCost(p, cellAddr, w.x1, w.y1, w.x2, w.y2, false)
			horizFirst := costA <= costB

			// Claim the cheaper route: bump each cell's cost under the
			// covering region lock, re-acquiring only on region change.
			held := -1
			walkRoute(w.x1, w.y1, w.x2, w.y2, horizFirst, func(x, y int) {
				r := regionOf(x, y)
				if r != held {
					if held >= 0 {
						regionLocks[held].Release(p)
					}
					regionLocks[r].Acquire(p)
					held = r
				}
				a := cellAddr(x, y)
				p.Store(a, p.Load(a)+1)
			})
			if held >= 0 {
				regionLocks[held].Release(p)
			}
			routed++
			// Per-wire cost propagation and bookkeeping: routing a wire
			// is coarse work relative to the lock operations, as in the
			// original router, so the queue stays mostly uncontended.
			p.Compute(20000 + sim.Time(p.Rand().Intn(6000)))
		}
	})
	return Result{Elapsed: elapsed, Work: routed}
}

// routeCost sums the cost of the L-shaped route (horizontal-then-vertical
// or vertical-then-horizontal) with ordinary loads.
func routeCost(p *machine.Proc, cell func(x, y int) arch.Addr, x1, y1, x2, y2 int, horizFirst bool) arch.Word {
	var sum arch.Word
	walkRoute(x1, y1, x2, y2, horizFirst, func(x, y int) {
		sum += p.Load(cell(x, y))
	})
	return sum
}

// walkRoute visits each cell of an L-shaped route once.
func walkRoute(x1, y1, x2, y2 int, horizFirst bool, visit func(x, y int)) {
	step := func(a, b int) int {
		if a < b {
			return 1
		}
		return -1
	}
	if horizFirst {
		for x := x1; x != x2; x += step(x1, x2) {
			visit(x, y1)
		}
		for y := y1; y != y2; y += step(y1, y2) {
			visit(x2, y)
		}
	} else {
		for y := y1; y != y2; y += step(y1, y2) {
			visit(x1, y)
		}
		for x := x1; x != x2; x += step(x1, x2) {
			visit(x, y2)
		}
	}
	visit(x2, y2)
}
