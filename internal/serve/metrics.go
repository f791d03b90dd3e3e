package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyHist is a lock-free log-scale latency histogram: bucket i counts
// requests whose latency in microseconds has bit length i, so buckets
// cover [2^(i-1), 2^i) microseconds. Percentiles read as the upper bound
// of the bucket where the cumulative count crosses the quantile — a <=2x
// estimate, which is enough to watch a serving benchmark move.
type latencyHist struct {
	buckets [48]atomic.Uint64
	count   atomic.Uint64
	sumUS   atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.buckets[bits.Len64(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// quantile returns the approximate q-quantile latency in microseconds.
func (h *latencyHist) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > target {
			return 1 << i // bucket upper bound
		}
	}
	return 1 << (len(h.buckets) - 1)
}

func (h *latencyHist) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUS.Load()) / float64(n)
}

// LatencyBucket is one non-empty bucket of the exported latency histogram:
// Count requests finished in at most LeUS microseconds (and more than half
// that — the buckets are powers of two).
type LatencyBucket struct {
	LeUS  uint64 `json:"le_us"`
	Count uint64 `json:"count"`
}

// bucketsSnapshot exports the non-empty buckets in increasing bound order.
func (h *latencyHist) bucketsSnapshot() []LatencyBucket {
	var out []LatencyBucket
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, LatencyBucket{LeUS: 1 << i, Count: n})
		}
	}
	return out
}

// metrics holds the service counters behind /metrics. All fields are
// atomics; Snapshot assembles a consistent-enough view (counters are
// monotonic, exactness across fields is not required).
type metrics struct {
	requests   atomic.Uint64 // /v1/sim requests accepted for processing
	badRequest atomic.Uint64 // invalid specs rejected with 400
	hits       atomic.Uint64 // served from the result cache
	misses     atomic.Uint64 // required a new simulation (single-flight leaders)
	coalesced  atomic.Uint64 // joined an in-flight identical simulation
	rejected   atomic.Uint64 // bounced with 429 (queue full)
	timeouts   atomic.Uint64 // gave up waiting (per-request deadline)
	errors     atomic.Uint64 // internal failures answered with 500
	runs       atomic.Uint64 // simulations actually executed
	probes     atomic.Uint64 // cache probes (HEAD or ?probe=1; never simulate)
	probeHits  atomic.Uint64 // probes answered from the result cache

	sweeps         atomic.Uint64 // /v1/sweep plans accepted for processing
	sweepPoints    atomic.Uint64 // points across all accepted plans
	sweepHits      atomic.Uint64 // sweep points served from the result cache
	sweepMisses    atomic.Uint64 // sweep points that dispatched a new simulation
	sweepCoalesced atomic.Uint64 // sweep points merged into an in-flight run
	sweepErrors    atomic.Uint64 // sweep points answered with an error line

	latency latencyHist
}

// Snapshot is the exported /metrics payload. Field order is the JSON
// field order.
type Snapshot struct {
	Requests    uint64 `json:"requests"`
	BadRequests uint64 `json:"bad_requests"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`
	Rejected    uint64 `json:"rejected"`
	Timeouts    uint64 `json:"timeouts"`
	Errors      uint64 `json:"errors"`
	Runs        uint64 `json:"runs"`

	// Cache probes (HEAD /v1/sim or ?probe=1) answer hit/miss without
	// simulating.
	Probes    uint64 `json:"probes"`
	ProbeHits uint64 `json:"probe_hits"`

	Sweeps         uint64 `json:"sweeps"`
	SweepPoints    uint64 `json:"sweep_points"`
	SweepHits      uint64 `json:"sweep_hits"`
	SweepMisses    uint64 `json:"sweep_misses"`
	SweepCoalesced uint64 `json:"sweep_coalesced"`
	SweepErrors    uint64 `json:"sweep_errors"`

	// FlightMerges is the total single-flight merge count: requests (single
	// or sweep points) that joined an identical in-flight simulation instead
	// of running their own.
	FlightMerges uint64 `json:"flight_merges"`

	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	QueueDepth     int    `json:"queue_depth"`
	Workers        int    `json:"workers"`

	LatencyCount   uint64          `json:"latency_count"`
	LatencyMeanUS  float64         `json:"latency_mean_us"`
	LatencyP50US   uint64          `json:"latency_p50_us"`
	LatencyP90US   uint64          `json:"latency_p90_us"`
	LatencyP99US   uint64          `json:"latency_p99_us"`
	LatencyBuckets []LatencyBucket `json:"latency_buckets_us"`
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		Requests:       m.requests.Load(),
		BadRequests:    m.badRequest.Load(),
		CacheHits:      m.hits.Load(),
		CacheMisses:    m.misses.Load(),
		Coalesced:      m.coalesced.Load(),
		Rejected:       m.rejected.Load(),
		Timeouts:       m.timeouts.Load(),
		Errors:         m.errors.Load(),
		Runs:           m.runs.Load(),
		Probes:         m.probes.Load(),
		ProbeHits:      m.probeHits.Load(),
		Sweeps:         m.sweeps.Load(),
		SweepPoints:    m.sweepPoints.Load(),
		SweepHits:      m.sweepHits.Load(),
		SweepMisses:    m.sweepMisses.Load(),
		SweepCoalesced: m.sweepCoalesced.Load(),
		SweepErrors:    m.sweepErrors.Load(),
		FlightMerges:   m.coalesced.Load() + m.sweepCoalesced.Load(),
		LatencyCount:   m.latency.count.Load(),
		LatencyMeanUS:  m.latency.mean(),
		LatencyP50US:   m.latency.quantile(0.50),
		LatencyP90US:   m.latency.quantile(0.90),
		LatencyP99US:   m.latency.quantile(0.99),
		LatencyBuckets: m.latency.bucketsSnapshot(),
	}
}
