package locks

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
)

// drain pops s until empty, returning the node ids in pop order.
func drain(p *machine.Proc, s *TreiberStack) []arch.Word {
	var out []arch.Word
	for {
		node, _, ok := s.Pop(p, nil)
		if !ok {
			return out
		}
		out = append(out, node)
	}
}

func TestStackPushPopLIFO(t *testing.T) {
	for _, prim := range []Prim{PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			s := NewTreiberStack(m, core.PolicyINV, 8, Options{Prim: prim})
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) {
					for n := arch.Word(1); n <= 3; n++ {
						s.Push(p, n, n)
					}
					got := drain(p, s)
					want := []arch.Word{3, 2, 1}
					if len(got) != 3 {
						t.Errorf("drained %v", got)
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("pop order %v, want %v", got, want)
						}
					}
				},
				nil, nil, nil,
			})
		})
	}
}

func TestStackConcurrentPushersNoLoss(t *testing.T) {
	for _, prim := range []Prim{PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs, each = 4, 4
			m := newM(procs)
			s := NewTreiberStack(m, core.PolicyINV, procs*each, Options{Prim: prim})
			m.Run(func(p *machine.Proc) {
				for k := 0; k < each; k++ {
					node := arch.Word(p.ID()*each + k + 1)
					s.Push(p, node, node)
				}
			})
			var got []arch.Word
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) { got = drain(p, s) },
				nil, nil, nil,
			})
			if len(got) != procs*each {
				t.Fatalf("drained %d nodes, want %d", len(got), procs*each)
			}
			seen := map[arch.Word]bool{}
			for _, n := range got {
				if seen[n] {
					t.Fatalf("node %d popped twice", n)
				}
				seen[n] = true
			}
		})
	}
}

// TestStackABAProblem stages the paper's section-2.2 pointer problem: a
// popper reads top=A and next(A)=B, is delayed, and meanwhile another
// processor pops A and B and pushes A back. The CAS pop then succeeds —
// installing B, a node the adversary now owns, corrupting the stack. The
// identical interleaving with load_linked/store_conditional fails the SC
// and retries correctly. The CAS stack's tag is cleared, staging the
// textbook compare_and_swap on a bare node id.
func TestStackABAProblem(t *testing.T) {
	stage := func(prim Prim) (popped arch.Word, topAfter arch.Word, stolen arch.Word) {
		m := newM(4)
		s := NewTreiberStack(m, core.PolicyINV, 4, Options{Prim: prim})
		s.Tagged = false
		// Simulated-memory handshake flags between victim and adversary.
		windowOpen := m.Alloc(4)
		adversaryDone := m.Alloc(4)
		var victim arch.Word
		m.RunEach([]func(*machine.Proc){
			func(p *machine.Proc) {
				// Build stack: top -> A(1) -> B(2) -> C(3).
				s.Push(p, 3, 3)
				s.Push(p, 2, 2)
				s.Push(p, 1, 1)
				victim, _, _ = s.Pop(p, func() {
					// Delayed after reading top=1, next=2: let the
					// adversary run to completion before the swing.
					p.Store(windowOpen, 1)
					for p.Load(adversaryDone) == 0 {
						p.Compute(50)
					}
				})
			},
			func(p *machine.Proc) {
				for p.Load(windowOpen) == 0 {
					p.Compute(50)
				}
				a, v, _ := s.Pop(p, nil) // pops 1
				s.Pop(p, nil)            // pops 2 — adversary now owns node 2
				s.Push(p, a, v)          // pushes 1 back: top=1 -> 3
				p.Store(adversaryDone, 1)
			},
			nil, nil,
		})
		var top arch.Word
		m.RunEach([]func(*machine.Proc){
			func(p *machine.Proc) { top = p.Load(s.Top) },
			nil, nil, nil,
		})
		return victim, top, 2
	}

	// CAS: the delayed pop's CAS(top, 1, 2) succeeds against the re-pushed
	// node 1, installing node 2 — which the adversary privately owns. The
	// stack is corrupt: node 3 is lost and node 2 is doubly owned.
	popped, top, stolen := stage(PrimCAS)
	if popped != 1 {
		t.Fatalf("CAS pop returned %d, expected to (incorrectly) succeed with 1", popped)
	}
	if top != stolen {
		t.Fatalf("CAS top after ABA = %d; expected the corrupted %d", top, stolen)
	}

	// LL/SC: the intervening writes cleared the reservation; the delayed
	// SC fails, the pop retries on the fresh state and pops 1 correctly,
	// leaving top = 3.
	popped, top, _ = stage(PrimLLSC)
	if popped != 1 {
		t.Fatalf("LLSC pop returned %d, want 1", popped)
	}
	if top != 3 {
		t.Fatalf("LLSC top after interleaving = %d, want 3 (no corruption)", top)
	}
}
