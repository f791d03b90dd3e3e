// Package stats implements the measurement machinery of the paper's
// methodology: integer histograms, the contention tracker behind the
// figure-2 histograms ("number of processors contending to access an
// atomically accessed shared location at the beginning of each access"),
// the write-run-length tracker of Eggers & Katz as used in section 4.2, and
// the serialized-message-chain recorder behind Table 1.
package stats

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Histogram counts occurrences of small non-negative integer values. The
// counts are a dense array indexed by value, as long as the largest value
// recorded since the last Reset; every value is a contention level, a
// write-run length, or a message-chain length, so the arrays stay short.
type Histogram struct {
	counts []uint64 // counts[v]; empty or ending in a non-zero count
	total  uint64
	sum    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Reset forgets all samples, keeping the count array's storage.
func (h *Histogram) Reset() {
	h.counts = h.counts[:0]
	h.total = 0
	h.sum = 0
}

// Add records one occurrence of v, which must be non-negative.
func (h *Histogram) Add(v int) {
	h.AddN(v, 1)
}

// AddN records n occurrences of v, which must be non-negative.
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v >= len(h.counts) {
		h.grow(v)
	}
	h.counts[v] += n
	h.total += n
	h.sum += int64(v) * int64(n)
}

// grow extends the count array to hold value v, with zero counts above the
// old maximum.
func (h *Histogram) grow(v int) {
	n := len(h.counts)
	h.counts = slices.Grow(h.counts, v+1-n)[:v+1]
	clear(h.counts[n:]) // Reset keeps stale counts past the length
}

// Count returns the number of occurrences of v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average sample, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest recorded value, or 0 for an empty histogram.
func (h *Histogram) Max() int {
	if len(h.counts) == 0 {
		return 0
	}
	return len(h.counts) - 1
}

// Percent returns the percentage of samples equal to v.
func (h *Histogram) Percent(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return 100 * float64(h.Count(v)) / float64(h.total)
}

// Merge adds all samples of other into h, growing h's count array once.
func (h *Histogram) Merge(other *Histogram) {
	if n := len(other.counts); n > len(h.counts) {
		h.grow(n - 1)
	}
	for v, n := range other.counts {
		h.AddN(v, n)
	}
}

// AppendJSON appends the histogram's JSON encoding to dst: an array of
// {"v":value,"n":count} bins, one per non-zero count, in increasing value
// order, so the encoding of a given histogram is byte-stable.
func (h *Histogram) AppendJSON(dst []byte) []byte {
	open := len(dst)
	dst = append(dst, '[')
	for v, n := range h.counts {
		if n == 0 {
			continue
		}
		if len(dst) > open+1 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"v":`...), int64(v), 10)
		dst = strconv.AppendUint(append(dst, `,"n":`...), n, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// String renders "v:count" pairs in increasing value order.
func (h *Histogram) String() string {
	var b strings.Builder
	for v, n := range h.counts {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", v, n)
	}
	return b.String()
}
