package locks

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// Queue is a bounded FIFO built on fetch_and_add in the style of Gottlieb,
// Lubachevsky & Rudolph (the paper's reference [9] — "for many other
// objects" fetch_and_add is very efficient): producers and consumers claim
// slots with fetch_and_add on the tail and head tickets and then
// synchronize on a per-slot turn word, so the hot atomic words see exactly
// one atomic operation per queue operation.
//
// Slots and turn words live in distinct blocks to avoid false sharing.
// Values must be non-zero (zero marks an empty slot assertion in tests).
type Queue struct {
	head arch.Addr // consumer ticket counter
	tail arch.Addr // producer ticket counter
	turn []arch.Addr
	data []arch.Addr
	opts Options
}

// NewQueue allocates a queue with the given number of slots.
func NewQueue(m *machine.Machine, policy proto.Policy, slots int, opts Options) *Queue {
	if slots <= 0 {
		panic("locks: queue needs at least one slot")
	}
	q := &Queue{
		head: m.AllocSync(policy),
		tail: m.AllocSync(policy),
		turn: make([]arch.Addr, slots),
		data: make([]arch.Addr, slots),
		opts: opts,
	}
	for i := range q.turn {
		q.turn[i] = m.Alloc(arch.BlockBytes)
		q.data[i] = m.Alloc(arch.BlockBytes)
	}
	return q
}

// slots returns the capacity.
func (q *Queue) slots() int { return len(q.turn) }

// Enqueue appends v, blocking (in simulated time) while the queue is full.
func (q *Queue) Enqueue(p *machine.Proc, v arch.Word) {
	t := q.opts.FetchAdd(p, q.tail, 1)
	slot := int(t) % q.slots()
	round := arch.Word(int(t)/q.slots()) * 2 // even: slot free for this round
	for p.Load(q.turn[slot]) != round {
		p.Compute(sim.Time(8 + p.Rand().Intn(16)))
	}
	p.Store(q.data[slot], v)
	p.Store(q.turn[slot], round+1) // odd: full
}

// Dequeue removes and returns the oldest value, blocking while empty.
func (q *Queue) Dequeue(p *machine.Proc) arch.Word {
	h := q.opts.FetchAdd(p, q.head, 1)
	slot := int(h) % q.slots()
	round := arch.Word(int(h)/q.slots())*2 + 1 // odd: full for this round
	for p.Load(q.turn[slot]) != round {
		p.Compute(sim.Time(8 + p.Rand().Intn(16)))
	}
	v := p.Load(q.data[slot])
	p.Store(q.turn[slot], round+1) // even of next round: free
	return v
}

// String describes the queue configuration.
func (q *Queue) String() string {
	return fmt.Sprintf("faa-queue(slots=%d, prim=%s)", q.slots(), q.opts.Prim)
}
