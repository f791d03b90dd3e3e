package fleet

import "sync/atomic"

// metrics holds the router counters behind /metrics. All monotonic
// atomics; the snapshot is consistent-enough, not atomic across fields.
type metrics struct {
	requests   atomic.Uint64 // /v1/sim requests accepted for routing
	badRequest atomic.Uint64 // invalid specs/plans rejected with 400
	coalesced  atomic.Uint64 // requests that joined an in-flight resolution
	hits       atomic.Uint64 // resolutions the owner served from its cache
	misses     atomic.Uint64 // resolutions the owner simulated
	probes     atomic.Uint64 // probe-only client requests routed through
	rejected   atomic.Uint64 // backend 429s propagated to the client
	upstreamEr atomic.Uint64 // upstream requests that failed at transport level
	errors     atomic.Uint64 // requests answered 502 (no backend could resolve)

	sweeps      atomic.Uint64 // /v1/sweep plans accepted for routing
	sweepPoints atomic.Uint64 // points across accepted plans
	sweepErrors atomic.Uint64 // sweep points answered with a router error line
}

// Snapshot is the exported /metrics payload of the router.
type Snapshot struct {
	Requests    uint64 `json:"requests"`
	BadRequests uint64 `json:"bad_requests"`
	Coalesced   uint64 `json:"coalesced"`

	// Hits and Misses count resolutions by the owning backend's X-Cache
	// answer: served from its result cache, or simulated there.
	// Hits/(Hits+Misses) is the fleet-wide hit ratio as the router sees it.
	Hits uint64 `json:"hits"`
	// PeerFills is always 0: the router no longer copies results between
	// backends. The field stays only because the benchmark module (bench/)
	// still reads it; it goes when the benchmark drops fleet.peer_fills.
	PeerFills uint64 `json:"peer_fills"`
	Misses    uint64 `json:"misses"`

	Probes   uint64 `json:"probes"`
	Rejected uint64 `json:"rejected"`
	// Replications is always 0, kept for bench/ like PeerFills; it goes
	// when the benchmark drops fleet.replications.
	Replications   uint64 `json:"replications"`
	UpstreamErrors uint64 `json:"upstream_errors"`
	Errors         uint64 `json:"errors"`

	Sweeps      uint64 `json:"sweeps"`
	SweepPoints uint64 `json:"sweep_points"`
	SweepErrors uint64 `json:"sweep_errors"`

	Backends        int      `json:"backends"`
	BackendRequests []uint64 `json:"backend_requests"`
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		Requests:       m.requests.Load(),
		BadRequests:    m.badRequest.Load(),
		Coalesced:      m.coalesced.Load(),
		Hits:           m.hits.Load(),
		Misses:         m.misses.Load(),
		Probes:         m.probes.Load(),
		Rejected:       m.rejected.Load(),
		UpstreamErrors: m.upstreamEr.Load(),
		Errors:         m.errors.Load(),
		Sweeps:         m.sweeps.Load(),
		SweepPoints:    m.sweepPoints.Load(),
		SweepErrors:    m.sweepErrors.Load(),
	}
}
