package serve

import (
	"bytes"
	"encoding/json"

	"dsm/internal/exper"
)

// Outcome is the service's response body: the canonical spec that was run,
// its content address, and the point's result — the workload's headline
// numbers and the full measurement report — embedded so its fields encode
// in place, under exper.Result's JSON names. Field order is fixed by
// declaration order and every nested encoder is byte-stable, so encoding a
// given outcome twice yields identical bytes — the property behind the
// cache-hit determinism guarantee.
type Outcome struct {
	Spec Spec   `json:"spec"`
	Key  string `json:"key"`
	exper.Result
}

// Encode renders the outcome as its canonical JSON bytes (one object plus
// a trailing newline, matching report.WriteJSON framing).
func (o *Outcome) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(o); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
