// Package report collects a machine's measurements into one structured
// value and renders it as text or CSV: protocol counters, network traffic,
// memory and cache activity, the contention histogram, write-run lengths,
// and per-operation serialized-message chains. cmd/dsmsim prints it after
// every run.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dsm/internal/cache"
	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/mem"
	"dsm/internal/mesh"
	"dsm/internal/stats"
)

// ChainSummary summarizes the serialized-message chains of one operation
// class (e.g. "compare_and_swap/INV").
type ChainSummary struct {
	Class string  `json:"class"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   int     `json:"max"`
}

// Report is a snapshot of every measurement the machine exposes.
type Report struct {
	Procs int `json:"procs"`

	Protocol core.Counters `json:"protocol"`
	Network  mesh.Stats    `json:"network"`
	Memory   mem.Stats     `json:"memory"` // summed over modules
	Cache    cache.Stats   `json:"cache"`  // summed over caches

	Contention    *stats.Histogram `json:"contention"`
	WriteRunMean  float64          `json:"write_run_mean"`
	WriteRunTotal uint64           `json:"write_run_total"`

	// Processor activity, summed over processors.
	ProcOps       uint64 `json:"proc_ops"`
	MemoryCycles  uint64 `json:"memory_cycles"`
	ComputeCycles uint64 `json:"compute_cycles"`
	BarrierCycles uint64 `json:"barrier_cycles"`

	Chains []ChainSummary `json:"chains,omitempty"` // sorted by class
}

// Collect gathers a report. It flushes the write-run tracker, terminating
// in-progress runs, so collect once at the end of a run.
func Collect(m *machine.Machine) *Report {
	sys := m.System()
	// Snapshot the contention histogram rather than aliasing the machine's
	// live one: the machine may be released to a pool and reset (clobbering
	// its trackers) while the report is still being read.
	cont := stats.NewHistogram()
	cont.Merge(sys.Contention().Histogram())
	r := &Report{
		Procs:      m.Procs(),
		Protocol:   sys.Counters(),
		Network:    m.Mesh().Stats(),
		Contention: cont,
	}
	for i := 0; i < m.Procs(); i++ {
		ms := sys.Home(mesh.NodeID(i)).Memory().Stats()
		r.Memory.Accesses += ms.Accesses
		r.Memory.QueueWait += ms.QueueWait
		cs := sys.Cache(mesh.NodeID(i)).CacheArray().Stats()
		r.Cache.Evictions += cs.Evictions
		r.Cache.DirtyEvictions += cs.DirtyEvictions
		ps := m.ProcStats(i)
		r.ProcOps += ps.Ops
		r.MemoryCycles += uint64(ps.MemoryCycles)
		r.ComputeCycles += uint64(ps.ComputeCycles)
		r.BarrierCycles += uint64(ps.BarrierCycles)
	}
	wr := sys.WriteRuns()
	wr.Flush()
	r.WriteRunMean = wr.Mean()
	r.WriteRunTotal = wr.Histogram().Total()

	rec := sys.Chains()
	classes := rec.Classes()
	sort.Strings(classes)
	for _, cl := range classes {
		h := rec.Class(cl)
		r.Chains = append(r.Chains, ChainSummary{
			Class: cl, Count: h.Total(), Mean: h.Mean(), Max: h.Max(),
		})
	}
	return r
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) {
	p := r.Protocol
	fmt.Fprintf(w, "processors: %d\n", r.Procs)
	fmt.Fprintf(w, "protocol:   requests=%d local-hits=%d (%.1f%%) invals=%d updates=%d writebacks=%d\n",
		p.Requests, p.LocalHits, pct(p.LocalHits, p.Requests), p.Invals, p.Updates, p.Writebacks)
	fmt.Fprintf(w, "            naks=%d retries=%d sc-fail-local=%d\n",
		p.Naks, p.Retries, p.SCFailLocal)
	n := r.Network
	fmt.Fprintf(w, "network:    messages=%d flits=%d local=%d inject-wait=%d eject-wait=%d\n",
		n.Messages, n.Flits, n.LocalMsgs, n.InjectWait, n.EjectWait)
	fmt.Fprintf(w, "memory:     accesses=%d queue-wait=%d\n", r.Memory.Accesses, r.Memory.QueueWait)
	fmt.Fprintf(w, "caches:     evictions=%d dirty=%d\n", r.Cache.Evictions, r.Cache.DirtyEvictions)
	fmt.Fprintf(w, "processors: ops=%d memory-cycles=%d compute-cycles=%d barrier-cycles=%d\n",
		r.ProcOps, r.MemoryCycles, r.ComputeCycles, r.BarrierCycles)
	if r.Contention.Total() > 0 {
		fmt.Fprintf(w, "contention: %s (mean %.2f)\n", r.Contention, r.Contention.Mean())
	}
	if r.WriteRunTotal > 0 {
		fmt.Fprintf(w, "write-runs: %d runs, mean length %.2f\n", r.WriteRunTotal, r.WriteRunMean)
	}
	if len(r.Chains) > 0 {
		fmt.Fprintln(w, "serialized message chains per operation class:")
		for _, c := range r.Chains {
			fmt.Fprintf(w, "  %-28s count=%-8d mean=%.2f max=%d\n", c.Class, c.Count, c.Mean, c.Max)
		}
	}
}

// WriteJSON renders the report as one JSON object followed by a newline.
// Field order is the struct declaration order and the contention histogram
// encodes as value-sorted bins, so the encoding of a given report is
// byte-stable: encoding the same report twice yields identical bytes. The
// serving layer relies on this to make cache hits byte-identical to the
// miss that populated them.
func (r *Report) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
