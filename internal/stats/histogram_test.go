package stats

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// refHistogram is the map-based histogram the dense one replaced, kept as
// the reference its observable behaviour is held to.
type refHistogram struct {
	counts map[int]uint64
	total  uint64
	sum    int64
}

func (r *refHistogram) addN(v int, n uint64) {
	if n == 0 {
		return
	}
	r.counts[v] += n
	r.total += n
	r.sum += int64(v) * int64(n)
}

func (r *refHistogram) values() []int {
	vs := make([]int, 0, len(r.counts))
	for v := range r.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (r *refHistogram) mean() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.total)
}

func (r *refHistogram) max() int {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

func (r *refHistogram) percent(v int) float64 {
	if r.total == 0 {
		return 0
	}
	return 100 * float64(r.counts[v]) / float64(r.total)
}

func (r *refHistogram) String() string {
	var b strings.Builder
	for i, v := range r.values() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", v, r.counts[v])
	}
	return b.String()
}

// refBin is one value/count pair of a histogram's JSON encoding.
type refBin struct {
	V int    `json:"v"`
	N uint64 `json:"n"`
}

// marshal is encoding/json's rendering of the histogram's bins, the
// oracle Histogram.AppendJSON is held to.
func (r *refHistogram) marshal() []byte {
	bins := make([]refBin, 0, len(r.counts))
	for _, v := range r.values() {
		bins = append(bins, refBin{V: v, N: r.counts[v]})
	}
	data, _ := json.Marshal(bins)
	return data
}

// TestHistogramMatchesMapReference drives the dense histogram and the map
// reference with the same random samples — Add, AddN (zero counts
// included), Merge and Reset — and compares every read.
func TestHistogramMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	h := NewHistogram()
	ref := &refHistogram{counts: make(map[int]uint64)}
	check := func(step int) {
		t.Helper()
		if h.Total() != ref.total || h.Mean() != ref.mean() || h.Max() != ref.max() {
			t.Fatalf("step %d: total/mean/max %d/%v/%d, want %d/%v/%d",
				step, h.Total(), h.Mean(), h.Max(), ref.total, ref.mean(), ref.max())
		}
		for v := -2; v <= ref.max()+2; v++ {
			if h.Count(v) != ref.counts[v] || h.Percent(v) != ref.percent(v) {
				t.Fatalf("step %d: Count/Percent(%d) = %d/%v, want %d/%v",
					step, v, h.Count(v), h.Percent(v), ref.counts[v], ref.percent(v))
			}
		}
		if h.String() != ref.String() {
			t.Fatalf("step %d: String %q, want %q", step, h.String(), ref.String())
		}
		if got, want := h.AppendJSON(nil), ref.marshal(); string(got) != string(want) {
			t.Fatalf("step %d: AppendJSON %s, want %s", step, got, want)
		}
	}
	for step := 0; step < 2000; step++ {
		v := rng.IntN(1 + rng.IntN(80))
		switch op := rng.IntN(20); {
		case op < 12:
			h.Add(v)
			ref.addN(v, 1)
		case op < 17:
			n := uint64(rng.IntN(4))
			h.AddN(v, n)
			ref.addN(v, n)
		case op < 19:
			other := NewHistogram()
			for i := rng.IntN(5); i > 0; i-- {
				w := rng.IntN(100)
				other.Add(w)
				ref.addN(w, 1)
			}
			h.Merge(other)
		default:
			h.Reset()
			ref = &refHistogram{counts: make(map[int]uint64)}
		}
		check(step)
	}
}

// FuzzHistogramJSON builds a histogram from arbitrary {"v","n"} bins, in
// any order and with repeated values, and checks that AppendJSON encodes
// it as encoding/json encodes the map reference: value-sorted, repeated
// values summed, empty bins dropped, appended after whatever dst holds,
// and byte-stable across re-encodes, as serving relies on.
func FuzzHistogramJSON(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"v":1,"n":5},{"v":3,"n":1},{"v":16,"n":2}]`,
		`[{"v":0,"n":0}]`,
		`[{"v":65536,"n":18446744073709551615}]`,
		`[{"v":-1,"n":1}]`,
		`[{"v":2,"n":1},{"v":2,"n":1}]`,
		`[{"v":1e3,"n":1}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var bins []refBin
		if json.Unmarshal(data, &bins) != nil {
			return
		}
		h := NewHistogram()
		ref := &refHistogram{counts: make(map[int]uint64)}
		for _, b := range bins {
			// Bound the dense array, and keep counts far from wrapping.
			if b.V < 0 || b.V > 1<<16 || b.N > 1<<32 {
				return
			}
			h.AddN(b.V, b.N)
			ref.addN(b.V, b.N)
		}
		enc := h.AppendJSON([]byte("x"))
		if want := ref.marshal(); string(enc) != "x"+string(want) {
			t.Fatalf("%q encodes to %s, want x%s", data, enc, want)
		}
		if again := h.AppendJSON([]byte("x")); string(again) != string(enc) {
			t.Fatalf("re-encoding %s gave %s", enc, again)
		}
	})
}
