// Package report collects a machine's measurements into one structured
// value and renders it as text or CSV: protocol counters, network traffic,
// memory and cache activity, the contention histogram, write-run lengths,
// and per-operation serialized-message chains. cmd/dsmsim prints it after
// every run.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

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

	if rec := sys.Chains(); rec.Len() > 0 {
		r.Chains = make([]ChainSummary, 0, rec.Len())
		for cl, h := range rec.All() {
			r.Chains = append(r.Chains, ChainSummary{
				Class: cl, Count: h.Total(), Mean: h.Mean(), Max: h.Max(),
			})
		}
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

// WriteJSON renders the report as one JSON object (AppendJSON) followed
// by a newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.AppendJSON(make([]byte, 0, 1024))
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// AppendJSON appends the report's JSON encoding to dst without
// reflection: byte for byte what encoding/json renders for its fields,
// with the contention histogram as its value-sorted bins (the serve
// package's FuzzOutcomeAppendJSON). Fields appear in declaration order
// under their json tags, so the encoding of a given report is
// byte-stable: encoding the same report twice yields identical bytes.
// The serving layer relies on this to make cache hits byte-identical to
// the miss that populated them. Chain class names are written verbatim:
// Collect takes them from the protocol's op/policy names, none of which
// needs escaping. A NaN or infinite mean fails as encoding/json fails it.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"procs":`...), int64(r.Procs), 10)
	p := &r.Protocol
	dst = appendUint(dst, `,"protocol":{"requests":`, p.Requests)
	dst = appendUint(dst, `,"local_hits":`, p.LocalHits)
	dst = appendUint(dst, `,"naks":`, p.Naks)
	dst = appendUint(dst, `,"retries":`, p.Retries)
	dst = appendUint(dst, `,"invals":`, p.Invals)
	dst = appendUint(dst, `,"updates":`, p.Updates)
	dst = appendUint(dst, `,"writebacks":`, p.Writebacks)
	dst = appendUint(dst, `,"sc_fail_local":`, p.SCFailLocal)
	n := &r.Network
	dst = appendUint(dst, `},"network":{"messages":`, n.Messages)
	dst = appendUint(dst, `,"local_msgs":`, n.LocalMsgs)
	dst = appendUint(dst, `,"flits":`, n.Flits)
	dst = appendUint(dst, `,"hops_total":`, n.HopsTotal)
	dst = appendUint(dst, `,"inject_wait":`, n.InjectWait)
	dst = appendUint(dst, `,"eject_wait":`, n.EjectWait)
	dst = appendUint(dst, `,"link_wait":`, n.LinkWait)
	dst = appendUint(dst, `},"memory":{"accesses":`, r.Memory.Accesses)
	dst = appendUint(dst, `,"queue_wait":`, r.Memory.QueueWait)
	dst = appendUint(dst, `},"cache":{"evictions":`, r.Cache.Evictions)
	dst = appendUint(dst, `,"dirty_evictions":`, r.Cache.DirtyEvictions)
	dst = append(dst, `},"contention":`...)
	if r.Contention == nil {
		dst = append(dst, "null"...)
	} else {
		dst = r.Contention.AppendJSON(dst)
	}
	dst, err := AppendFloat(append(dst, `,"write_run_mean":`...), r.WriteRunMean)
	if err != nil {
		return dst, err
	}
	dst = appendUint(dst, `,"write_run_total":`, r.WriteRunTotal)
	dst = appendUint(dst, `,"proc_ops":`, r.ProcOps)
	dst = appendUint(dst, `,"memory_cycles":`, r.MemoryCycles)
	dst = appendUint(dst, `,"compute_cycles":`, r.ComputeCycles)
	dst = appendUint(dst, `,"barrier_cycles":`, r.BarrierCycles)
	if len(r.Chains) > 0 {
		dst = append(dst, `,"chains":[`...)
		for i := range r.Chains {
			c := &r.Chains[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, `{"class":"`...), c.Class...), '"')
			dst = appendUint(dst, `,"count":`, c.Count)
			if dst, err = AppendFloat(append(dst, `,"mean":`...), c.Mean); err != nil {
				return dst, err
			}
			dst = strconv.AppendInt(append(dst, `,"max":`...), int64(c.Max), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendUint appends prefix, then v in decimal.
func appendUint(dst []byte, prefix string, v uint64) []byte {
	return strconv.AppendUint(append(dst, prefix...), v, 10)
}

// AppendFloat appends f as encoding/json renders a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form when |f| is
// below 1e-6 or at least 1e21, with a negative exponent's leading zero
// trimmed ("1e-07" becomes "1e-7"). JSON has no NaN or infinity, so those
// fail, with encoding/json's error text.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim a two-digit negative exponent's leading zero: e-07 to e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
