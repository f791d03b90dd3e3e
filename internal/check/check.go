// Package check verifies concurrent histories collected from the
// simulator: exact linearizability checkers for the shared counter, the
// FIFO queue, and the LIFO stack — the objects behind the synthetic and
// lock-free workloads. Each checker exploits its object's structure:
//
//   - CheckCounter: fetched values must be a permutation of 0..n-1 that
//     respects the real-time order of non-overlapping operations, and
//     reads must fall within the window of increments concurrent with
//     them.
//   - CheckQueue: the aspect rules of Henzinger, Sezgin & Vafeiadis — an
//     O(n²) pairwise test that is complete for complete histories with
//     distinct enqueued values.
//   - CheckStack: a memoized depth-first search over linearization
//     prefixes (Wing & Gong, with Lowe's state-set pruning).
//
// A naive brute-force reference checker (reference_test.go) independently
// re-derives each verdict on small histories; randomized property tests
// hold the three production checkers to it.
package check

import (
	"fmt"
	"sort"

	"dsm/internal/arch"
	"dsm/internal/sim"
)

// Op is one completed operation in a history.
type Op struct {
	Proc    int
	Invoke  sim.Time // when the operation was issued
	Respond sim.Time // when it completed
	Kind    Kind
	Value   arch.Word // increment: fetched (old) value; read: value seen
}

// Kind classifies history operations.
type Kind uint8

const (
	// Inc is a successful atomic increment (fetch_and_add(1), or a
	// CAS/LL-SC loop that succeeded).
	Inc Kind = iota
	// Read is an ordinary read of the counter.
	Read
	// Enq is a queue enqueue of Value.
	Enq
	// Deq is a queue dequeue that returned Value.
	Deq
	// DeqEmpty is a queue dequeue that reported an empty queue.
	DeqEmpty
	// Push is a stack push of Value.
	Push
	// Pop is a stack pop that returned Value.
	Pop
	// PopEmpty is a stack pop that reported an empty stack.
	PopEmpty
)

var kindNames = [...]string{"inc", "read", "enq", "deq", "deq-empty", "push", "pop", "pop-empty"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// History accumulates operations. Record order is irrelevant; operations
// carry their own timestamps.
type History struct {
	ops []Op
}

// Record appends one completed operation. It panics if the response
// precedes the invocation (a harness bug).
func (h *History) Record(op Op) {
	if op.Respond < op.Invoke {
		panic(fmt.Sprintf("check: response %d before invocation %d", op.Respond, op.Invoke))
	}
	h.ops = append(h.ops, op)
}

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// CheckCounter verifies that the history is a linearizable execution of a
// counter with initial value 0. It returns nil if so, or an error
// describing the first violation found.
func (h *History) CheckCounter() error {
	var incs, reads []Op
	for _, op := range h.ops {
		switch op.Kind {
		case Inc:
			incs = append(incs, op)
		case Read:
			reads = append(reads, op)
		default:
			return fmt.Errorf("check: unknown op kind %d", op.Kind)
		}
	}

	// 1. Fetched values are a permutation of 0..n-1.
	seen := make([]int, len(incs)) // fetched value -> count
	for _, op := range incs {
		v := int(op.Value)
		if v < 0 || v >= len(incs) {
			return fmt.Errorf("check: proc %d fetched %d outside 0..%d", op.Proc, v, len(incs)-1)
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			return fmt.Errorf("check: value %d fetched %d times", v, n)
		}
	}

	// 2. Real-time order: an increment that finished before another began
	// must have fetched a smaller value.
	byValue := append([]Op(nil), incs...)
	sort.Slice(byValue, func(i, j int) bool { return byValue[i].Value < byValue[j].Value })
	for i := range byValue {
		for j := i + 1; j < len(byValue); j++ {
			// byValue[j] linearized after byValue[i]; it must not have
			// completed before byValue[i] was invoked.
			if byValue[j].Respond < byValue[i].Invoke {
				return fmt.Errorf(
					"check: inc fetching %d (proc %d) completed at %d, before inc fetching %d (proc %d) began at %d",
					byValue[j].Value, byValue[j].Proc, byValue[j].Respond,
					byValue[i].Value, byValue[i].Proc, byValue[i].Invoke)
			}
		}
	}

	// 3. Reads: the value must lie between the number of increments that
	// completed before the read began and the number that began before the
	// read completed.
	for _, r := range reads {
		lo, hi := 0, 0
		for _, inc := range incs {
			if inc.Respond < r.Invoke {
				lo++
			}
			if inc.Invoke <= r.Respond {
				hi++
			}
		}
		v := int(r.Value)
		if v < lo || v > hi {
			return fmt.Errorf(
				"check: proc %d read %d during [%d,%d], legal window [%d,%d]",
				r.Proc, v, r.Invoke, r.Respond, lo, hi)
		}
	}

	// 4. Cross order: the value sequence fixes a required order between
	// every inc and every read (the inc fetching v precedes reads of
	// values above v and follows reads of values at or below v) and
	// between reads of different values; an op required later must not
	// complete before an op required earlier begins. Subsumes rule 3 but
	// kept separate for the clearer per-read message above.
	for _, r := range reads {
		for _, in := range incs {
			if in.Value < r.Value && r.Respond < in.Invoke {
				return fmt.Errorf(
					"check: proc %d read %d (ending %d) before the inc fetching %d began at %d",
					r.Proc, r.Value, r.Respond, in.Value, in.Invoke)
			}
			if r.Value <= in.Value && in.Respond < r.Invoke {
				return fmt.Errorf(
					"check: proc %d read %d at %d after the inc fetching %d completed at %d",
					r.Proc, r.Value, r.Invoke, in.Value, in.Respond)
			}
		}
	}
	for _, r1 := range reads {
		for _, r2 := range reads {
			if r1.Value < r2.Value && r2.Respond < r1.Invoke {
				return fmt.Errorf(
					"check: reads not monotonic: proc %d read %d (ending %d) before proc %d read %d (from %d)",
					r2.Proc, r2.Value, r2.Respond, r1.Proc, r1.Value, r1.Invoke)
			}
		}
	}
	return nil
}
