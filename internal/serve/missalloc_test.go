// The race runtime adds allocations of its own (slices.Grow's temporary
// slice among them), so these counts are pinned without it, as fleet's
// routed-hit count is.

//go:build !race

package serve

import (
	"testing"

	"dsm/internal/exper"
	"dsm/internal/report"
)

// collectAllocs is what report.Collect allocates for a tiny counter run:
// the report, its contention histogram and that histogram's count array,
// and the chain summary slice.
const collectAllocs = 4

// TestMissPathAllocs pins what a /v1/sim miss allocates outside the
// simulation, on the serve_dup90 benchmark's fresh-miss shape (an
// 8-processor counter at contention 8): report.Collect allocates
// collectAllocs times, encoding the collected outcome into a warmed buffer
// allocates nothing, and a miss on a warmed machine slot adds two
// allocations to Collect's: Encode's working buffer, which holds the whole
// outcome without growing, and the copy of exactly the encoded length
// that the cache stores.
func TestMissPathAllocs(t *testing.T) {
	sp, err := Spec{App: "counter", Procs: 8, Contention: 8, Rounds: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pt := sp.Point()

	t.Run("collect", func(t *testing.T) {
		m := exper.NewMachine(pt.Scale, pt.Bar)
		pt.RunOn(m)
		if r := report.Collect(m); len(r.Chains) != 1 || r.Contention.Total() == 0 {
			t.Fatalf("chains %+v, contention %s: not the shape collectAllocs counts", r.Chains, r.Contention)
		}
		if n := testing.AllocsPerRun(50, func() { report.Collect(m) }); n != collectAllocs {
			t.Fatalf("report.Collect allocates %.1f times, want %d", n, collectAllocs)
		}
	})

	t.Run("encode", func(t *testing.T) {
		o := Run(sp)
		buf, err := o.AppendJSON(nil)
		n := testing.AllocsPerRun(50, func() { buf, err = o.AppendJSON(buf[:0]) })
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("Outcome.AppendJSON into a warmed buffer allocates %.1f times, want 0", n)
		}
	})

	t.Run("miss", func(t *testing.T) {
		s := newTestServer(t, Config{Workers: 1})
		want, err := Run(sp).Encode()
		if err != nil {
			t.Fatal(err)
		}
		var slot exper.MachineSlot
		addr := sp.Key()
		data, err := s.runEncoded(sp, addr, &slot) // builds the slot's machine
		if err != nil || string(data) != string(want) {
			t.Fatalf("runEncoded = %s, %v; want Run's bytes %s", data, err, want)
		}
		n := testing.AllocsPerRun(20, func() { data, err = s.runEncoded(sp, addr, &slot) })
		if err != nil {
			t.Fatal(err)
		}
		if n != collectAllocs+2 {
			t.Fatalf("a miss on a warmed slot allocates %.1f times, want %d (Collect, the working buffer and the stored copy)", n, collectAllocs+2)
		}
		if cap(data) != len(data) {
			t.Fatalf("stored copy has capacity %d for %d bytes", cap(data), len(data))
		}
	})
}
