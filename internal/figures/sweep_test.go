package figures

import (
	"bytes"
	"testing"

	"dsm/internal/exper"
)

// The bare Sweep executor is tested in internal/exper (it lives there
// now); these tests pin the rendering layer's determinism contract on top
// of it: byte-identical figure output for any sweep width.

// TestParallelSyntheticCSVDeterminism checks the determinism contract:
// the same seed and scale produce byte-identical figure CSV whether runs
// execute serially or fanned across workers.
func TestParallelSyntheticCSVDeterminism(t *testing.T) {
	render := func(par int) string {
		o := exper.RunOpts{Procs: 8, Rounds: 2, Par: par}
		var b bytes.Buffer
		WriteSyntheticCSV(&b, "fig3", exper.AppCounter, o)
		return b.String()
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != serial {
			t.Fatalf("par=%d CSV differs from serial:\n%s\n--- vs ---\n%s", par, got, serial)
		}
	}
}

// TestParallelFig6CyclesDeterminism checks that per-run simulated cycle
// counts (the figure-6 observable) are unaffected by host parallelism.
func TestParallelFig6CyclesDeterminism(t *testing.T) {
	render := func(par int) string {
		o := exper.RunOpts{Procs: 4, Rounds: 1, TCSize: 6, Par: par}
		var b bytes.Buffer
		WriteFig6CSV(&b, o)
		return b.String()
	}
	serial := render(1)
	if got := render(8); got != serial {
		t.Fatalf("parallel Fig6 CSV differs from serial:\n%s\n--- vs ---\n%s", got, serial)
	}
}

// TestParallelTable1Determinism checks Table 1 rows come back in case order
// with the paper's counts regardless of sweep width.
func TestParallelTable1Determinism(t *testing.T) {
	serial := exper.Table1Par(1)
	for _, par := range []int{0, 4} {
		rows := exper.Table1Par(par)
		if len(rows) != len(serial) {
			t.Fatalf("par=%d: %d rows, want %d", par, len(rows), len(serial))
		}
		for i := range rows {
			if rows[i] != serial[i] {
				t.Fatalf("par=%d row %d = %+v, want %+v", par, i, rows[i], serial[i])
			}
		}
	}
}

// TestParallelFig2Determinism checks the contention-histogram rendering
// (whose plan collects whole reports across the sweep) is order-stable.
func TestParallelFig2Determinism(t *testing.T) {
	render := func(par int) string {
		o := exper.RunOpts{Procs: 8, Rounds: 2, TCSize: 8, Par: par}
		var b bytes.Buffer
		Fig2(&b, o)
		return b.String()
	}
	serial := render(1)
	if got := render(8); got != serial {
		t.Fatalf("parallel Fig2 differs from serial:\n%s\n--- vs ---\n%s", got, serial)
	}
}
