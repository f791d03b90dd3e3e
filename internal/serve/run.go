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
// Normalize would have rejected. Worker goroutines that run many specs
// should hold an exper.MachineSlot and call RunOn instead.
func Run(sp Spec) *Outcome {
	return outcome(sp, sp.Point().Run(true))
}

// RunOn executes one canonical spec on the slot's resident machine,
// resetting or rebuilding it to the spec's geometry. The outcome is
// byte-identical to Run's — determinism is per run, not per machine — and
// reusing the worker's own machine skips construction on the request path.
func RunOn(sp Spec, slot *exper.MachineSlot) *Outcome {
	return outcome(sp, sp.Point().RunSlot(slot, true))
}

func outcome(sp Spec, res exper.Result) *Outcome {
	return &Outcome{Spec: sp, Key: sp.Key(), Result: res}
}
