// Transitive closure: the paper's real application (its figure 1), run at
// full machine scale. A Floyd-Warshall-style boolean closure distributes
// variable-size jobs through a lock-free counter and synchronizes rounds
// with the scalable tree barrier, comparing the counter's primitive
// families and coherence policies.
package main

import (
	"fmt"

	"dsm"
	"dsm/internal/apps"
	"dsm/internal/locks"
)

func main() {
	const size, seed = 16, 11

	type variant struct {
		name   string
		policy dsm.Policy
		prim   dsm.Prim
	}
	variants := []variant{
		{"UNC fetch_and_add", dsm.UNC, dsm.FAP},
		{"INV fetch_and_add", dsm.INV, dsm.FAP},
		{"INV compare_and_swap", dsm.INV, dsm.CAS},
		{"INV load_linked/store_conditional", dsm.INV, dsm.LLSC},
	}

	want := apps.TClosureReference(size, seed, 4)
	fmt.Printf("transitive closure of a %d-vertex graph on 64 processors (reference: %d reachable pairs)\n",
		size, want)

	for _, v := range variants {
		m := dsm.New64()
		res := apps.TClosure(m, apps.TClosureConfig{
			Size:   size,
			Policy: v.policy,
			Opts:   locks.Options{Prim: v.prim},
			Seed:   seed,
		})
		status := "ok"
		if res.Work != uint64(want) {
			status = fmt.Sprintf("WRONG (%d)", res.Work)
		}
		hist := m.System().Contention().Histogram()
		fmt.Printf("  %-36s %9d cycles  result=%s  peak contention=%d\n",
			v.name, res.Elapsed, status, hist.Max())
	}
}
