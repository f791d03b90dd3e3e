package locks

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
)

// MSQueue is the Michael & Scott lock-free FIFO queue — by the same
// authors as the paper — built over statically allocated nodes on the
// simulated memory system. Head and Tail are single-word pointers updated
// with the universal primitive under study; fetch_and_Φ cannot express it
// (Herlihy's hierarchy), which is why the queue workload falls back to the
// fetch_and_add ticket queue under PrimFAP.
//
// ABA countermeasures follow the original algorithm's two deployments:
//
//   - PrimCAS: Head and Tail are counted ("tagged") pointers — the node id
//     in the low 16 bits, a modification count in the high 16 — so a
//     pointer popped and re-installed never compares equal to a stale
//     read. Nodes in this workload are never recycled, so the tag is
//     belt-and-braces here; the Treiber stack (TreiberStack) is where tag
//     omission corrupts.
//   - PrimLLSC: plain node ids. The reservation detects any intervening
//     write, tags are unnecessary — the hardware-LL/SC-vs-emulated-CAS
//     comparison of Blelloch & Wei (arXiv 1911.09671).
//
// Node ids are 1-based; id 0 is the null pointer. Each node owns one
// block: word 0 is the next link, word 1 the value. The dummy node the
// algorithm requires is id 1; AcquireNode hands out 2..capacity+1.
type MSQueue struct {
	Head arch.Addr
	Tail arch.Addr
	node []arch.Addr // per id (index 0 unused): word 0 next, word 1 value
	next uint16      // first unissued node id
	Opts Options

	// Retries counts failed pointer swings (CAS misses, SC failures, and
	// helped tail advances) — the contention metric of the workload.
	Retries uint64
}

// msTagBits is the width of the node-id field of a counted pointer; the
// remaining high bits hold the modification count.
const msTagBits = 16

// msPack builds a counted pointer from a node id and a tag.
func msPack(id, tag arch.Word) arch.Word {
	return tag<<msTagBits | id&(1<<msTagBits-1)
}

// msID extracts the node id of a counted pointer.
func msID(w arch.Word) arch.Word { return w & (1<<msTagBits - 1) }

// Init (re)initializes q in place: it allocates the queue and capacity
// nodes (plus the dummy), reusing the node table's storage, so a workload
// rerun on a reused machine allocates nothing. The caller acquires nodes
// with AcquireNode; they are not recycled.
func (q *MSQueue) Init(m *machine.Machine, policy core.Policy, capacity int, opts Options) {
	if opts.Prim == PrimFAP {
		panic("locks: the MS queue needs a universal primitive (CAS or LL/SC)")
	}
	if capacity < 1 || capacity+1 >= 1<<msTagBits {
		panic(fmt.Sprintf("locks: MS queue capacity %d out of range", capacity))
	}
	if cap(q.node) < capacity+2 {
		q.node = make([]arch.Addr, capacity+2)
	}
	*q = MSQueue{
		Head: m.AllocSync(policy),
		Tail: m.AllocSync(policy),
		node: q.node[:capacity+2],
		Opts: opts,
	}
	for id := 1; id < len(q.node); id++ {
		q.node[id] = m.AllocSync(policy)
	}
	q.next = 2 // id 1 is the initial dummy
	m.Poke(q.Head, q.ptr(1, 0))
	m.Poke(q.Tail, q.ptr(1, 0))
}

// ptr renders a head/tail word for the configured primitive: counted under
// CAS, a plain id under LL/SC.
func (q *MSQueue) ptr(id, tag arch.Word) arch.Word {
	if q.Opts.Prim == PrimLLSC {
		return id
	}
	return msPack(id, tag)
}

// AcquireNode hands out the next unused node id. Node issue order is a
// host-side cursor, so callers wanting determinism across runs must
// acquire in a deterministic order (the workload preassigns per-processor
// ranges for exactly that reason).
func (q *MSQueue) AcquireNode() arch.Word {
	if int(q.next) >= len(q.node) {
		panic("locks: MS queue out of nodes")
	}
	id := arch.Word(q.next)
	q.next++
	return id
}

func (q *MSQueue) nextAddr(id arch.Word) arch.Addr { return q.node[id] }
func (q *MSQueue) valAddr(id arch.Word) arch.Addr  { return q.node[id] + arch.WordBytes }

// Enqueue appends value in a fresh node (from AcquireNode) at the tail.
func (q *MSQueue) Enqueue(p *machine.Proc, node arch.Word, value arch.Word) {
	p.Store(q.nextAddr(node), 0)
	p.Store(q.valAddr(node), value)
	if q.Opts.Prim == PrimLLSC {
		q.enqueueLLSC(p, node)
		return
	}
	for {
		tail := p.Load(q.Tail)
		tn := msID(tail)
		next := q.Opts.read(p, q.nextAddr(tn))
		if tail != p.Load(q.Tail) { // tail moved while reading next
			q.Retries++
			continue
		}
		if next == 0 {
			// Tail was last: link the new node after it.
			if p.CompareAndSwap(q.nextAddr(tn), 0, node) {
				// Swing tail to the inserted node; a failure means
				// someone helped, which is not a retry of ours.
				p.CompareAndSwap(q.Tail, tail, msPack(node, tail>>msTagBits+1))
				return
			}
			q.Retries++
		} else {
			// Tail lagging: help swing it, then retry.
			p.CompareAndSwap(q.Tail, tail, msPack(msID(next), tail>>msTagBits+1))
			q.Retries++
		}
	}
}

// enqueueLLSC is the native load_linked/store_conditional enqueue: the
// reservation on the predecessor's next link replaces the counted pointer.
func (q *MSQueue) enqueueLLSC(p *machine.Proc, node arch.Word) {
	for {
		tn := p.Load(q.Tail)
		next := p.LoadLinked(q.nextAddr(tn))
		if next != 0 {
			// Tail lagging: help swing it, then retry.
			for {
				t := p.LoadLinked(q.Tail)
				if t != tn || p.StoreConditional(q.Tail, next) {
					break
				}
			}
			q.Retries++
			continue
		}
		if p.StoreConditional(q.nextAddr(tn), node) {
			// Swing tail; on interference someone helped.
			for {
				t := p.LoadLinked(q.Tail)
				if t != tn || p.StoreConditional(q.Tail, node) {
					break
				}
			}
			return
		}
		q.Retries++
	}
}

// Dequeue removes the value at the head, reporting ok=false when the queue
// is empty.
func (q *MSQueue) Dequeue(p *machine.Proc) (value arch.Word, ok bool) {
	if q.Opts.Prim == PrimLLSC {
		return q.dequeueLLSC(p)
	}
	for {
		head := q.Opts.read(p, q.Head)
		tail := p.Load(q.Tail)
		hn := msID(head)
		next := p.Load(q.nextAddr(hn))
		if head != p.Load(q.Head) {
			q.Retries++
			continue
		}
		if hn == msID(tail) {
			if next == 0 {
				return 0, false
			}
			// Tail lagging behind a half-finished enqueue: help.
			p.CompareAndSwap(q.Tail, tail, msPack(msID(next), tail>>msTagBits+1))
			q.Retries++
			continue
		}
		// Read the value before the swing frees the node for its next
		// life (in this workload nodes are not recycled, but the
		// algorithm's ordering is kept).
		v := p.Load(q.valAddr(next))
		if p.CompareAndSwap(q.Head, head, msPack(msID(next), head>>msTagBits+1)) {
			return v, true
		}
		q.Retries++
	}
}

// dequeueLLSC is the native LL/SC dequeue.
func (q *MSQueue) dequeueLLSC(p *machine.Proc) (value arch.Word, ok bool) {
	for {
		hn := p.LoadLinked(q.Head)
		tn := p.Load(q.Tail)
		next := p.Load(q.nextAddr(hn))
		if hn == tn {
			if next == 0 {
				return 0, false
			}
			for {
				t := p.LoadLinked(q.Tail)
				if t != tn || p.StoreConditional(q.Tail, next) {
					break
				}
			}
			q.Retries++
			continue
		}
		v := p.Load(q.valAddr(next))
		if p.StoreConditional(q.Head, next) {
			return v, true
		}
		q.Retries++
	}
}

// String describes the queue configuration.
func (q *MSQueue) String() string {
	return fmt.Sprintf("ms-queue(nodes=%d, prim=%s)", len(q.node)-2, q.Opts.Prim)
}
