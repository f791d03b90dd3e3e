package apps

import (
	"dsm/internal/arch"
	"dsm/internal/locks"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// TClosureConfig parameterizes the Transitive Closure application.
type TClosureConfig struct {
	Size   int           // number of graph vertices
	Policy proto.Policy  // coherence policy for the job counter
	Opts   locks.Options // primitive family (FAP / CAS / LLSC) and auxiliaries
	Seed   uint64        // input graph seed
	// EdgeDenom controls input density: edge (i,j) exists when
	// rng % EdgeDenom == 0 (default 4).
	EdgeDenom int
}

// TClosure runs the paper's transitive-closure application (its figure 1):
// a Floyd-Warshall-style boolean closure over a shared adjacency matrix,
// with variable-size input-dependent jobs distributed through a lock-free
// counter and rounds separated by the scalable tree barrier.
func TClosure(m *machine.Machine, cfg TClosureConfig) Result {
	if cfg.Size <= 0 {
		panic("apps: TClosure size must be positive")
	}
	if cfg.EdgeDenom <= 0 {
		cfg.EdgeDenom = 4
	}
	size := cfg.Size
	procs := m.Procs()

	e := m.Alloc(uint32(size * size * arch.WordBytes))
	cell := func(i, j int) arch.Addr {
		return e + arch.Addr((i*size+j)*arch.WordBytes)
	}
	initTClosureInput(m, cell, size, cfg.Seed, cfg.EdgeDenom)

	counter := m.AllocSync(cfg.Policy)
	flag := m.Alloc(4)
	bar := locks.NewTreeBarrier(m)

	elapsed := m.Run(func(p *machine.Proc) {
		pid := p.ID()
		for i := 0; i < size; i++ {
			if pid == 0 {
				p.Store(counter, 0)
				p.Store(flag, 0)
			}
			row, rows := 0, 0
			bar.Wait(p)
			for p.Load(flag) == 0 {
				rows = ((size-row-rows-1)>>1)/procs + 1
				row = int(cfg.Opts.FetchAdd(p, counter, arch.Word(rows)))
				if row >= size {
					p.Store(flag, 1)
					break
				}
				work := rows
				if size-row < work {
					work = size - row
				}
				for j := row; j < row+work; j++ {
					if p.Load(cell(j, i)) != 0 && i != j {
						for k := 0; k < size; k++ {
							p.Compute(1)
							if p.Load(cell(i, k)) != 0 {
								p.Store(cell(j, k), 1)
							}
						}
					}
					p.Compute(2)
				}
			}
			bar.Wait(p)
		}
	})

	var reach uint64
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if m.Peek(cell(i, j)) != 0 {
				reach++
			}
		}
	}
	return Result{Elapsed: elapsed, Work: reach}
}

// initTClosureInput pokes a deterministic sparse directed graph into the
// shared matrix.
func initTClosureInput(m *machine.Machine, cell func(i, j int) arch.Addr, size int, seed uint64, denom int) {
	rng := sim.NewRNG(seed ^ 0x7c105)
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if i == j || rng.Intn(denom) == 0 {
				m.Poke(cell(i, j), 1)
			}
		}
	}
}

// TClosureReference computes the closure of the same input in plain Go, for
// validating the simulated run.
func TClosureReference(size int, seed uint64, denom int) int {
	if denom <= 0 {
		denom = 4
	}
	adj := make([][]bool, size)
	rng := sim.NewRNG(seed ^ 0x7c105)
	for i := range adj {
		adj[i] = make([]bool, size)
		for j := range adj[i] {
			if i == j || rng.Intn(denom) == 0 {
				adj[i][j] = true
			}
		}
	}
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if adj[j][i] && i != j {
				for k := 0; k < size; k++ {
					if adj[i][k] {
						adj[j][k] = true
					}
				}
			}
		}
	}
	n := 0
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				n++
			}
		}
	}
	return n
}
