package stats

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Total() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Add(1)
	h.Add(1)
	h.Add(3)
	if h.Total() != 3 || h.Count(1) != 2 || h.Count(3) != 1 || h.Count(2) != 0 {
		t.Fatalf("histogram = %s", h)
	}
	if h.Mean() != 5.0/3.0 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 3 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.Percent(1); got < 66.6 || got > 66.7 {
		t.Fatalf("Percent(1) = %v", got)
	}
}

func TestHistogramAddN(t *testing.T) {
	h := NewHistogram()
	h.AddN(5, 10)
	h.AddN(5, 0) // no-op
	if h.Total() != 10 || h.Count(5) != 10 || h.Mean() != 5 {
		t.Fatalf("histogram = %s", h)
	}
}

func TestHistogramValuesSorted(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{9, 2, 7, 2, 0} {
		h.Add(v)
	}
	if got, want := h.String(), "0:1 2:2 7:1 9:1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if data, want := h.AppendJSON(nil), `[{"v":0,"n":1},{"v":2,"n":2},{"v":7,"n":1},{"v":9,"n":1}]`; string(data) != want {
		t.Fatalf("AppendJSON = %s, want %s", data, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Fatalf("merged = %s", a)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(2)
	h.Add(1)
	h.Add(2)
	if h.String() != "1:1 2:2" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramMeanMatchesSamplesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram()
		sum := 0
		for _, v := range raw {
			h.Add(int(v))
			sum += int(v)
		}
		if len(raw) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(raw))
		diff := h.Mean() - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContentionNoOverlap(t *testing.T) {
	c := NewContentionTracker()
	for i := 0; i < 5; i++ {
		c.Begin(0x100, i)
		c.End(0x100, i)
	}
	h := c.Histogram()
	if h.Total() != 5 || h.Count(1) != 5 {
		t.Fatalf("histogram = %s", h)
	}
}

func TestContentionConcurrentAccesses(t *testing.T) {
	c := NewContentionTracker()
	c.Begin(0x100, 0) // sees 1
	c.Begin(0x100, 1) // sees 2
	c.Begin(0x100, 2) // sees 3
	c.End(0x100, 1)
	c.Begin(0x100, 3) // sees 3 again
	h := c.Histogram()
	if h.Count(1) != 1 || h.Count(2) != 1 || h.Count(3) != 2 {
		t.Fatalf("histogram = %s", h)
	}
}

func TestContentionPerLocationIndependent(t *testing.T) {
	c := NewContentionTracker()
	c.Begin(0x100, 0)
	c.Begin(0x200, 1) // different location: sees 1, not 2
	if c.Histogram().Count(2) != 0 || c.Histogram().Count(1) != 2 {
		t.Fatalf("histogram = %s", c.Histogram())
	}
}

func TestContentionNestedSameProc(t *testing.T) {
	c := NewContentionTracker()
	c.Begin(0x100, 0)
	c.Begin(0x100, 0) // same proc again (retry overlap): still one proc
	if c.Histogram().Count(1) != 2 {
		t.Fatalf("histogram = %s", c.Histogram())
	}
	c.End(0x100, 0)
	c.End(0x100, 0)
	c.Begin(0x100, 1)
	if c.Histogram().Count(1) != 3 {
		t.Fatal("proc not fully removed after nested ends")
	}
}

func TestContentionEndWithoutBeginPanics(t *testing.T) {
	c := NewContentionTracker()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.End(0x100, 0)
}

func TestWriteRunSingleWriter(t *testing.T) {
	w := NewWriteRunTracker()
	for i := 0; i < 4; i++ {
		w.SyncAccess(0x100, 0, true, true)
	}
	w.Flush()
	if w.Histogram().Count(4) != 1 || w.Histogram().Total() != 1 {
		t.Fatalf("histogram = %s", w.Histogram())
	}
}

func TestWriteRunAlternatingWriters(t *testing.T) {
	w := NewWriteRunTracker()
	for i := 0; i < 6; i++ {
		w.SyncAccess(0x100, i%2, true, true)
	}
	w.Flush()
	if w.Mean() != 1 {
		t.Fatalf("Mean = %v, want 1 for alternating writers", w.Mean())
	}
	if w.Histogram().Total() != 6 {
		t.Fatalf("runs = %d, want 6", w.Histogram().Total())
	}
}

func TestWriteRunReadByOtherEndsRun(t *testing.T) {
	w := NewWriteRunTracker()
	w.SyncAccess(0x100, 0, true, true)
	w.SyncAccess(0x100, 0, true, true)
	w.SyncAccess(0x100, 1, false, true) // read by other proc intervenes
	w.SyncAccess(0x100, 0, true, true)
	w.Flush()
	h := w.Histogram()
	if h.Count(2) != 1 || h.Count(1) != 1 {
		t.Fatalf("histogram = %s", h)
	}
}

func TestWriteRunOwnReadDoesNotEndRun(t *testing.T) {
	w := NewWriteRunTracker()
	w.SyncAccess(0x100, 0, true, true)
	w.SyncAccess(0x100, 0, false, true) // own read: acquire-test pattern
	w.SyncAccess(0x100, 0, true, true)
	w.Flush()
	if w.Histogram().Count(2) != 1 {
		t.Fatalf("histogram = %s", w.Histogram())
	}
}

func TestWriteRunLocationsIndependent(t *testing.T) {
	w := NewWriteRunTracker()
	w.SyncAccess(0x100, 0, true, true)
	w.SyncAccess(0x200, 1, true, true) // other location: not an intervention
	w.SyncAccess(0x100, 0, true, true)
	w.Flush()
	if w.Histogram().Count(2) != 1 || w.Histogram().Count(1) != 1 {
		t.Fatalf("histogram = %s", w.Histogram())
	}
}

func TestWriteRunReadOnlyNeverRecords(t *testing.T) {
	w := NewWriteRunTracker()
	w.SyncAccess(0x100, 0, false, true)
	w.SyncAccess(0x100, 1, false, true)
	w.Flush()
	if w.Histogram().Total() != 0 {
		t.Fatalf("reads created runs: %s", w.Histogram())
	}
}

func TestWriteRunLockPatternMeansNearTwo(t *testing.T) {
	// Acquire (write) + release (write) by the same proc, then another
	// proc: classic lock pattern => run length 2.
	w := NewWriteRunTracker()
	for i := 0; i < 10; i++ {
		p := i % 4
		w.SyncAccess(0x100, p, true, true) // acquire
		w.SyncAccess(0x100, p, true, true) // release
	}
	w.Flush()
	if w.Mean() != 2 {
		t.Fatalf("Mean = %v, want 2", w.Mean())
	}
}

func TestChainRecorder(t *testing.T) {
	names := [2][2]string{{"inv-load", "unc-load"}, {"inv-store-remote-exclusive", "unc-store"}}
	c := NewChainGrid(2, 2, func(row, col int) string { return names[row][col] })
	c.RecordAt(1, 0, 4)
	c.RecordAt(1, 0, 4)
	c.RecordAt(1, 1, 2)
	var got []string
	for class, h := range c.All() {
		got = append(got, class+"="+h.String())
	}
	// Recorded classes only, in name order, not grid order.
	if want := []string{"inv-store-remote-exclusive=4:2", "unc-store=2:1"}; !slices.Equal(got, want) || c.Len() != 2 {
		t.Fatalf("All = %q (Len %d), want %q", got, c.Len(), want)
	}
	c.Reset()
	for class := range c.All() {
		t.Fatalf("All after Reset yields %s", class)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
}

// TestHistogramJSONByteStable pins a histogram's encoding, bins in
// value order, and checks that encoding it again yields the same bytes.
func TestHistogramJSONByteStable(t *testing.T) {
	h := NewHistogram()
	h.AddN(1, 5)
	h.AddN(16, 2)
	h.Add(3)
	want := `[{"v":1,"n":5},{"v":3,"n":1},{"v":16,"n":2}]`
	if data := h.AppendJSON(nil); string(data) != want {
		t.Fatalf("AppendJSON = %s, want %s", data, want)
	}
	// The encoding must be byte-stable across re-encodes.
	if again := h.AppendJSON(nil); string(again) != want {
		t.Fatalf("re-encoded = %s, want %s", again, want)
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	if data := NewHistogram().AppendJSON(nil); string(data) != "[]" {
		t.Fatalf("empty = %s, want []", data)
	}
}
