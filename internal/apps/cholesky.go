package apps

import (
	"dsm/internal/arch"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// CholeskyConfig parameterizes the Cholesky-like kernel.
//
// The SPLASH Cholesky sources are not redistributable, so this is a
// right-looking sparse-factorization skeleton with the same
// synchronization structure: a central column task queue protected by a
// lock, and per-column locks guarding the updates a finished column
// applies to its dependents. The paper characterizes Cholesky only through
// its lock write-run lengths (1.59-1.62) and a mostly-uncontended
// histogram; the kernel reproduces both (see the package tests).
type CholeskyConfig struct {
	Columns int // columns to factor
	Length  int // words of data per column
	Fanout  int // dependent columns each column updates
	Policy  proto.Policy
	Opts    locks.Options
	Seed    uint64
}

// DefaultCholesky sizes the kernel for a machine with procs processors.
func DefaultCholesky(procs int) CholeskyConfig {
	return CholeskyConfig{Columns: 3 * procs, Length: 16, Fanout: 2, Seed: 0xc401e5}
}

// Cholesky factors Columns columns: each processor takes the next column
// from the queue (lock-protected), "factors" it by scanning its data, and
// scatters updates into each dependent column under that column's lock.
func Cholesky(m *machine.Machine, cfg CholeskyConfig) Result {
	if cfg.Columns <= 0 || cfg.Length <= 0 {
		panic("apps: invalid Cholesky config")
	}

	cols := make([]arch.Addr, cfg.Columns)
	colLocks := make([]*locks.TTSLock, cfg.Columns)
	for i := range cols {
		cols[i] = m.Alloc(uint32(cfg.Length * arch.WordBytes))
		colLocks[i] = locks.NewTTSLock(m, cfg.Policy, cfg.Opts)
	}
	queueLock := locks.NewTTSLock(m, cfg.Policy, cfg.Opts)
	queueIdx := m.Alloc(4)

	// Seed the matrix with deterministic nonzeros.
	rng := sim.NewRNG(cfg.Seed)
	for _, base := range cols {
		for w := 0; w < cfg.Length; w++ {
			m.Poke(base+arch.Addr(w*arch.WordBytes), arch.Word(1+rng.Intn(9)))
		}
	}

	var factored uint64
	elapsed := m.Run(func(p *machine.Proc) {
		// Startup skew, as in LocusRoute.
		p.Compute(sim.Time(p.ID()) * 450)
		for {
			queueLock.Acquire(p)
			j := int(p.Load(queueIdx))
			p.Store(queueIdx, arch.Word(j+1))
			queueLock.Release(p)
			if j >= cfg.Columns {
				return
			}

			// Factor column j: scan its data and normalize.
			base := cols[j]
			var pivot arch.Word
			for w := 0; w < cfg.Length; w++ {
				pivot += p.Load(base + arch.Addr(w*arch.WordBytes))
			}
			// Numeric factorization of the column: coarse private work
			// relative to the lock operations, as in the SPLASH original.
			// Work varies by column, as supernode sizes vary in a real
			// sparse matrix; the variation also keeps processors from
			// returning to the task queue in lockstep convoys.
			work := sim.Time((600 + 140*(j%13)) * cfg.Length)
			p.Compute(work + sim.Time(p.Rand().Intn(4000)))

			// Scatter updates into dependents under their column locks.
			// Dependents are scattered, as in a real sparse structure, so
			// processors on nearby tasks rarely collide on a column lock.
			for d := 1; d <= cfg.Fanout; d++ {
				k := (j + d*17 + 5) % cfg.Columns
				if k == j {
					continue
				}
				colLocks[k].Acquire(p)
				for w := 0; w < cfg.Length; w += 4 {
					a := cols[k] + arch.Addr(w*arch.WordBytes)
					p.Store(a, p.Load(a)+pivot)
				}
				colLocks[k].Release(p)
				p.Compute(120)
			}
			factored++
		}
	})
	return Result{Elapsed: elapsed, Work: factored}
}
