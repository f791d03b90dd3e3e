package serve

import (
	"strconv"

	"dsm/internal/exper"
	"dsm/internal/report"
)

// Outcome is the service's response body: the canonical spec that was run,
// its content address, and the point's result — the workload's headline
// numbers and the full measurement report — embedded so its fields encode
// in place, under exper.Result's JSON names. AppendJSON is its one
// encoder, and it is byte-stable: encoding a given outcome twice yields
// identical bytes — the property behind the cache-hit determinism
// guarantee. The json tags name the fields the encoder writes, and tests
// hold it to encoding/json's rendering of them.
type Outcome struct {
	Spec Spec   `json:"spec"`
	Key  string `json:"key"`
	exper.Result
}

// outcomeSizeHint is the capacity of Encode's working buffer: a tiny
// run's outcome is about 1 KB, so most outcomes encode without growing it.
const outcomeSizeHint = 2048

// Encode renders the outcome as its canonical JSON bytes (AppendJSON plus
// a trailing newline, matching Report.WriteJSON framing). The cache keeps
// what a miss encodes, so Encode returns its working buffer only when the
// bytes fill at least seven eighths of it, and a copy of exactly their
// length otherwise: a cached entry wastes at most an eighth of its size.
func (o *Outcome) Encode() ([]byte, error) {
	b, err := o.AppendJSON(make([]byte, 0, outcomeSizeHint))
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	if len(b) >= cap(b)-cap(b)/8 {
		return b, nil
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// AppendJSON appends the outcome's JSON encoding to dst without
// reflection: byte for byte what encoding/json renders for its fields,
// with the contention histogram as its value-sorted bins
// (FuzzOutcomeAppendJSON). The spec is normalized, so Spec.AppendJSON
// renders it, and the key is a content address in lowercase hex, which
// needs no escaping. The result's headline fields follow with their
// omitempty rules, then the report, or null when the result carries none.
// A NaN or infinite float fails as encoding/json fails it.
func (o *Outcome) AppendJSON(dst []byte) ([]byte, error) {
	dst = o.Spec.AppendJSON(append(dst, `{"spec":`...))
	dst = append(append(append(dst, `,"key":"`...), o.Key...), '"')
	dst = strconv.AppendUint(append(dst, `,"elapsed_cycles":`...), uint64(o.Elapsed), 10)
	if o.Ops != 0 {
		dst = strconv.AppendUint(append(dst, `,"ops":`...), o.Ops, 10)
	}
	if o.AvgCycles != 0 {
		var err error
		if dst, err = report.AppendFloat(append(dst, `,"avg_cycles":`...), o.AvgCycles); err != nil {
			return dst, err
		}
	}
	if o.Retries != 0 {
		dst = strconv.AppendUint(append(dst, `,"retries":`...), o.Retries, 10)
	}
	if o.TornReads != 0 {
		dst = strconv.AppendUint(append(dst, `,"torn_reads":`...), o.TornReads, 10)
	}
	if o.Work != 0 {
		dst = strconv.AppendUint(append(dst, `,"work":`...), o.Work, 10)
	}
	dst = append(dst, `,"report":`...)
	if o.Report == nil {
		return append(dst, "null}"...), nil
	}
	dst, err := o.Report.AppendJSON(dst)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// Run executes one canonical spec as an exper point on a fresh machine
// and returns its outcome. The simulation is deterministic: the same
// canonical spec always produces the same outcome, on a fresh machine or a
// reused one (machine.Reset replays a fresh machine cycle for cycle), so
// Run is safe to memoize by spec key.
//
// The spec must already be normalized; Run panics on enum values
// Normalize would have rejected. The server's workers run specs on their
// own machine slots instead (Server.runEncoded), with byte-identical
// outcomes.
func Run(sp Spec) *Outcome {
	return outcome(sp, sp.Key(), sp.Point().Run(true))
}

// outcome assembles the response body of spec sp, whose content address
// is key.
func outcome(sp Spec, key string, res exper.Result) *Outcome {
	return &Outcome{Spec: sp, Key: key, Result: res}
}
