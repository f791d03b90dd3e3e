package figures

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/proto"
)

// goldenOpts is the reduced scale the golden output is recorded at
// (cmd/figures -all -procs 16 -rounds 6 -tcsize 12 -par 1).
func goldenOpts() exper.RunOpts {
	return exper.RunOpts{Procs: 16, Rounds: 6, TCSize: 12, Par: 1}
}

// writeAll renders every artifact in cmd/figures -all order: the TC
// efficiency line, Table 1, then Figures 2-6, a blank line after each
// section. If cmd/figures changes its output, the golden must be
// regenerated and this renderer kept in step — a drift between the two
// fails the comparison rather than hiding.
func writeAll(w io.Writer, o exper.RunOpts) {
	bar := exper.Bar{Policy: proto.PolicyUNC, Prim: locks.PrimFAP}
	fmt.Fprintf(w, "Transitive Closure parallel efficiency at p=%d, n=%d: %.1f%%\n",
		o.Procs, o.TCSize, 100*exper.TCEfficiency(o, bar))
	fmt.Fprintln(w)
	WriteTable1Par(w, o.Par)
	fmt.Fprintln(w)
	Fig2(w, o)
	fmt.Fprintln(w)
	Fig3(w, o)
	fmt.Fprintln(w)
	Fig4(w, o)
	fmt.Fprintln(w)
	Fig5(w, o)
	fmt.Fprintln(w)
	Fig6(w, o)
	fmt.Fprintln(w)
}

// TestGoldenFigures regenerates every artifact at the recorded reduced
// scale and requires the output byte-identical to the checked-in golden.
// This is the determinism guard for the whole stack — scheduler ordering,
// mesh latency tables, machine reuse: any change that perturbs simulated
// results at all shows up here as a diff.
func TestGoldenFigures(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeAll(&got, goldenOpts())
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figures output diverged from testdata/golden_small.txt\ngot %d bytes, want %d\n--- got ---\n%s",
			got.Len(), len(want), got.String())
	}
}

// TestGoldenFiguresParallelIdentical re-renders the synthetic figure with
// maximum fan-out and requires the grid identical to the serial run:
// parallelism across runs must not leak into results.
func TestGoldenFiguresParallelIdentical(t *testing.T) {
	o := goldenOpts()
	serial, _, _ := SyntheticFigure(exper.AppCounter, o)
	o.Par = 0
	par, _, _ := SyntheticFigure(exper.AppCounter, o)
	for pi := range serial {
		for bi := range serial[pi] {
			if serial[pi][bi] != par[pi][bi] {
				t.Fatalf("pattern %d bar %d: serial %v != parallel %v", pi, bi, serial[pi][bi], par[pi][bi])
			}
		}
	}
}

// TestExperimentsMatchGolden requires every line of EXPERIMENTS.md's
// figure code blocks (all but the ```sh command blocks) to appear in the
// paper-scale golden, so the document cannot drift from what cmd/figures
// prints.
func TestExperimentsMatchGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/golden_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]bool)
	for _, line := range strings.Split(string(golden), "\n") {
		pinned[line] = true
	}
	inBlock, figure, checked := false, false, 0
	for i, line := range strings.Split(string(doc), "\n") {
		if info, fence := strings.CutPrefix(line, "```"); fence {
			inBlock = !inBlock
			figure = inBlock && info == ""
			continue
		}
		if figure && line != "" {
			checked++
			if !pinned[line] {
				t.Errorf("EXPERIMENTS.md:%d is not in testdata/golden_full.txt: %q", i+1, line)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no figure lines found in EXPERIMENTS.md")
	}
}
