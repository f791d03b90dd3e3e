package stats

import (
	"iter"
	"slices"
	"strings"

	"dsm/internal/arch"
)

// Location identifies a tracked shared word (its byte address). Trackers key
// their per-word records by Location / arch.WordBytes.
type Location uint32

// word returns the table key of the word at loc.
func (loc Location) word() uint32 { return uint32(loc) / arch.WordBytes }

// maxProcs bounds the processor ids a ContentionTracker accepts: the
// largest machine the protocol layer builds.
const maxProcs = 64

// contended is one word's in-progress atomic accesses: how many distinct
// processors are inside one, and each processor's nesting depth.
type contended struct {
	procs int32
	nest  [maxProcs]uint8
}

// ContentionTracker builds the paper's contention histograms: at the
// beginning of each atomic access to a tracked location it records how many
// processors (including the newcomer) are concurrently attempting an atomic
// access to that location.
type ContentionTracker struct {
	active arch.Table[contended]
	hist   *Histogram
}

// NewContentionTracker returns an empty tracker.
func NewContentionTracker() *ContentionTracker {
	return &ContentionTracker{hist: NewHistogram()}
}

// Reset forgets all in-progress accesses and accumulated samples, keeping
// the per-word records' pages: a reused machine touches the same tracked
// locations every run, which keeps Begin allocation-free in the steady
// state.
func (t *ContentionTracker) Reset() {
	t.active.Clear()
	t.hist.Reset()
}

// Begin records that proc (below 64) started an atomic access to loc and
// samples the current contention level.
func (t *ContentionTracker) Begin(loc Location, proc int) {
	c := t.active.At(loc.word())
	if c.nest[proc] == 0 {
		c.procs++
	} else if c.nest[proc] == ^uint8(0) {
		panic("stats: contention Begin nested too deep")
	}
	c.nest[proc]++
	t.hist.Add(int(c.procs))
}

// End records that proc finished an atomic access to loc. Unmatched Ends
// indicate a protocol bug and panic.
func (t *ContentionTracker) End(loc Location, proc int) {
	c := t.active.Get(loc.word())
	if c == nil || c.nest[proc] == 0 {
		panic("stats: contention End without Begin")
	}
	c.nest[proc]--
	if c.nest[proc] == 0 {
		c.procs--
	}
}

// Histogram returns the accumulated contention histogram.
func (t *ContentionTracker) Histogram() *Histogram { return t.hist }

// written is one word's write-run state: the in-progress run, if live, and
// whether the word is a synchronization location (see SyncAccess).
type written struct {
	writer int32
	length int32
	live   bool
	sync   bool
}

// WriteRunTracker measures average write-run length: the number of
// consecutive writes (including atomic updates) by one processor to a
// location without intervening accesses — reads or writes — by any other
// processor (Eggers & Katz; paper section 4.2).
type WriteRunTracker struct {
	words arch.Table[written]
	hist  *Histogram
}

// NewWriteRunTracker returns an empty tracker.
func NewWriteRunTracker() *WriteRunTracker {
	return &WriteRunTracker{hist: NewHistogram()}
}

// Reset forgets all in-progress runs, synchronization marks and accumulated
// samples.
func (t *WriteRunTracker) Reset() {
	t.words.Clear()
	t.hist.Reset()
}

// SyncAccess records an access by proc to loc, tracking only
// synchronization locations, the words the paper measures: an atomic access
// marks loc as one, and accesses to unmarked words are ignored. Writes by
// the current run's writer extend the run; any access by another processor
// terminates it. Reads by the run's own writer neither extend nor
// terminate. One table lookup serves both the mark and the run.
func (t *WriteRunTracker) SyncAccess(loc Location, proc int, write, atomic bool) {
	var w *written
	if atomic {
		w = t.words.At(loc.word())
		w.sync = true
	} else if w = t.words.Get(loc.word()); w == nil || !w.sync {
		return
	}
	t.access(w, proc, write)
}

func (t *WriteRunTracker) access(w *written, proc int, write bool) {
	if w.live && int32(proc) != w.writer {
		// Intervening access by another processor ends the run.
		t.hist.Add(int(w.length))
		w.live = false
	}
	if !write {
		return
	}
	if !w.live {
		w.writer, w.length, w.live = int32(proc), 1, true
		return
	}
	w.length++
}

// Flush terminates all in-progress runs (call at end of simulation).
func (t *WriteRunTracker) Flush() {
	t.words.Each(func(_ uint32, w *written) {
		if w.live {
			t.hist.Add(int(w.length))
			w.live = false
		}
	})
}

// Histogram returns the run-length histogram (Flush first for completeness).
func (t *WriteRunTracker) Histogram() *Histogram { return t.hist }

// Mean returns the average completed run length.
func (t *WriteRunTracker) Mean() float64 { return t.hist.Mean() }

// ChainRecorder accumulates serialized-network-message chain lengths per
// operation class, reproducing Table 1.
//
// Classes are the cells of a rows x cols grid declared at construction
// (NewChainGrid), and RecordAt is a flat array index — the protocol layer
// records every completed transaction through it without building a class
// string or hashing one. Each cell's class name is rendered once, at
// construction, and All walks the recorded cells in class-name order.
type ChainRecorder struct {
	cols  int
	names []string     // class name of each cell
	order []int        // cell indices in increasing class-name order
	grid  []*Histogram // rows*cols; nil cells never recorded
	spare []*Histogram // reset histograms parked for reuse by RecordAt
}

// NewChainGrid returns a recorder over a rows x cols grid of classes; name
// renders a cell's class string, and every cell's name must be distinct.
func NewChainGrid(rows, cols int, name func(row, col int) string) *ChainRecorder {
	c := &ChainRecorder{
		cols:  cols,
		names: make([]string, rows*cols),
		order: make([]int, rows*cols),
		grid:  make([]*Histogram, rows*cols),
		spare: make([]*Histogram, rows*cols),
	}
	for i := range c.names {
		c.names[i] = name(i/cols, i%cols)
		c.order[i] = i
	}
	slices.SortFunc(c.order, func(a, b int) int { return strings.Compare(c.names[a], c.names[b]) })
	return c
}

// Reset forgets every recorded class. Grid cells return to nil so All
// yields exactly the classes recorded since the reset, as on a fresh
// recorder; the emptied histograms are parked in a spare grid for RecordAt
// to reclaim, keeping the reused-machine path allocation-free. Parking is
// safe because reports never alias chain histograms — report.Collect copies
// out scalar summaries.
func (c *ChainRecorder) Reset() {
	for i, h := range c.grid {
		if h != nil {
			h.Reset()
			c.spare[i] = h
			c.grid[i] = nil
		}
	}
}

// RecordAt logs a completed transaction of the grid class (row, col). It is
// the allocation-free hot path: no class string is built or hashed.
func (c *ChainRecorder) RecordAt(row, col, chain int) { c.RecordNAt(row, col, chain, 1) }

// RecordNAt is RecordAt for n transactions of one chain length.
func (c *ChainRecorder) RecordNAt(row, col, chain int, n uint64) {
	i := row*c.cols + col
	h := c.grid[i]
	if h == nil {
		if h = c.spare[i]; h != nil {
			c.spare[i] = nil
		} else {
			h = NewHistogram()
		}
		c.grid[i] = h
	}
	h.AddN(chain, n)
}

// Len returns the number of recorded classes.
func (c *ChainRecorder) Len() int {
	n := 0
	for _, h := range c.grid {
		if h != nil {
			n++
		}
	}
	return n
}

// All yields each recorded class's name and histogram in increasing
// class-name order.
func (c *ChainRecorder) All() iter.Seq2[string, *Histogram] {
	return func(yield func(string, *Histogram) bool) {
		for _, i := range c.order {
			if h := c.grid[i]; h != nil && !yield(c.names[i], h) {
				return
			}
		}
	}
}
