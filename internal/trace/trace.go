// Package trace provides an optional protocol-event trace for the
// simulator: a bounded ring buffer of timestamped events (processor
// operations, protocol messages, transaction completions) with filtering
// and text rendering. It exists for debugging protocol behaviour and for
// teaching: a trace of one atomic operation shows exactly the serialized
// message pattern Table 1 counts.
package trace

import (
	"fmt"
	"io"

	"dsm/internal/sim"
)

// Event is one timestamped trace record.
type Event struct {
	At     sim.Time
	Node   int    // node where the event occurred (-1 for system-wide)
	Kind   string // "issue", "send", "recv", "complete", ...
	Detail string
}

// String renders the event as a single trace line.
func (e Event) String() string {
	return fmt.Sprintf("%8d  n%02d  %-9s %s", e.At, e.Node, e.Kind, e.Detail)
}

// Buffer is a bounded ring of events. The zero value is unusable; call New.
type Buffer struct {
	ring []Event
	next int
}

// New returns a buffer retaining the most recent capacity events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

// Record appends an event, displacing the oldest when full. It implements
// the tracer hook of internal/core.
func (b *Buffer) Record(at sim.Time, node int, kind, detail string) {
	ev := Event{At: at, Node: node, Kind: kind, Detail: detail}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, ev)
		return
	}
	b.ring[b.next] = ev
	b.next = (b.next + 1) % cap(b.ring)
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.ring) }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// WriteTo renders the retained events, one per line.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range b.Events() {
		k, err := fmt.Fprintln(w, e)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
