package locks

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
)

// TreiberStack is a Treiber lock-free stack whose nodes are recycled — the
// configuration where the paper's section-2.2 "pointer problem" is not a
// thought experiment but a live hazard. The top-of-stack word is updated
// with the universal primitive under study and each node carries a value
// word, so a popped node can be re-pushed with fresh data and a stale
// reader genuinely races the reuse.
//
// ABA countermeasures, selected by Opts.Prim:
//
//   - PrimCAS with Tagged (the default from NewTreiberStack): the top word
//     is a counted pointer — node id low, modification count high — so a
//     top that was popped and re-pushed never compares equal to a stale
//     read. Clearing Tagged reverts to the textbook compare_and_swap on a
//     bare id, which corrupts under the staged interleaving
//     (TestStackABAProblem, examples/abaproblem) — the regression the
//     stack history checker must flag.
//   - PrimLLSC: a bare id; the reservation invalidates on any intervening
//     write, the hardware countermeasure the paper recommends.
//
// Node ids are 1-based; 0 is the empty stack. Each node owns one block:
// word 0 the next link, word 1 the value.
type TreiberStack struct {
	Top  arch.Addr
	node []arch.Addr // per id (index 0 unused): word 0 next, word 1 value
	Opts Options

	// Tagged selects the counted-pointer encoding under PrimCAS. Clear it
	// only to stage the ABA corruption.
	Tagged bool

	// Retries counts failed top swings (CAS misses and SC failures).
	Retries uint64
}

// NewTreiberStack allocates a stack and nodes 1..capacity, with tagging on
// for the CAS family.
func NewTreiberStack(m *machine.Machine, policy core.Policy, capacity int, opts Options) *TreiberStack {
	s := new(TreiberStack)
	s.Init(m, policy, capacity, opts)
	return s
}

// Init (re)initializes s in place as NewTreiberStack builds a stack,
// reusing the node table's storage, so a workload rerun on a reused
// machine allocates nothing.
func (s *TreiberStack) Init(m *machine.Machine, policy core.Policy, capacity int, opts Options) {
	if opts.Prim == PrimFAP {
		panic("locks: the Treiber stack needs a universal primitive (CAS or LL/SC)")
	}
	if capacity < 1 || capacity >= 1<<msTagBits {
		panic(fmt.Sprintf("locks: Treiber stack capacity %d out of range", capacity))
	}
	if cap(s.node) < capacity+1 {
		s.node = make([]arch.Addr, capacity+1)
	}
	*s = TreiberStack{
		Top:    m.AllocSync(policy),
		node:   s.node[:capacity+1],
		Opts:   opts,
		Tagged: opts.Prim == PrimCAS,
	}
	for id := 1; id <= capacity; id++ {
		s.node[id] = m.AllocSync(policy)
	}
}

func (s *TreiberStack) nextAddr(id arch.Word) arch.Addr { return s.node[id] }

// ValAddr returns the address of node id's value word.
func (s *TreiberStack) ValAddr(id arch.Word) arch.Addr { return s.node[id] + arch.WordBytes }

// Push links node (carrying value) onto the stack.
func (s *TreiberStack) Push(p *machine.Proc, node arch.Word, value arch.Word) {
	p.Store(s.ValAddr(node), value)
	if s.Opts.Prim == PrimLLSC {
		for {
			old := p.LoadLinked(s.Top)
			p.Store(s.nextAddr(node), old)
			if p.StoreConditional(s.Top, node) {
				return
			}
			s.Retries++
		}
	}
	for {
		old := s.Opts.read(p, s.Top)
		p.Store(s.nextAddr(node), msID(old))
		var new arch.Word
		if s.Tagged {
			new = msPack(node, old>>msTagBits+1)
		} else {
			new = node
		}
		if p.CompareAndSwap(s.Top, old, new) {
			return
		}
		s.Retries++
	}
}

// Pop unlinks the top node, returning its id and value (ok=false when
// empty). The interposed function, if non-nil, runs in the window between
// reading the top and attempting the swing — where ABA strikes; the
// corruption regression test uses it to stage the adversarial schedule.
func (s *TreiberStack) Pop(p *machine.Proc, interpose func()) (node, value arch.Word, ok bool) {
	if s.Opts.Prim == PrimLLSC {
		for {
			old := p.LoadLinked(s.Top)
			if old == 0 {
				return 0, 0, false
			}
			next := p.Load(s.nextAddr(old))
			v := p.Load(s.ValAddr(old))
			if interpose != nil {
				interpose()
			}
			if p.StoreConditional(s.Top, next) {
				return old, v, true
			}
			s.Retries++
		}
	}
	for {
		old := s.Opts.read(p, s.Top)
		id := msID(old)
		if id == 0 {
			return 0, 0, false
		}
		next := p.Load(s.nextAddr(id))
		v := p.Load(s.ValAddr(id))
		if interpose != nil {
			interpose()
		}
		var new arch.Word
		if s.Tagged {
			new = msPack(next, old>>msTagBits+1)
		} else {
			new = next
		}
		if p.CompareAndSwap(s.Top, old, new) {
			return id, v, true
		}
		s.Retries++
	}
}

// String describes the stack configuration.
func (s *TreiberStack) String() string {
	mode := "llsc"
	if s.Opts.Prim == PrimCAS {
		if s.Tagged {
			mode = "cas+tag"
		} else {
			mode = "cas-bare"
		}
	}
	return fmt.Sprintf("treiber(nodes=%d, %s)", len(s.node)-1, mode)
}
