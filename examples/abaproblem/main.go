// ABA problem: reproduce the paper's section-2.2 argument that a pair of
// load and compare_and_swap cannot simulate load_linked/store_conditional,
// "because compare_and_swap cannot detect if a shared location has been
// written with the same value that has been read".
//
// A processor pops from a lock-free stack and stalls between reading the
// top pointer and swinging it. Meanwhile an adversary pops two nodes and
// pushes the first back: the top pointer holds the same value again, so
// the stalled CAS succeeds — and installs a node the adversary now owns.
// The same interleaving with LL/SC fails the store_conditional and retries
// safely.
package main

import (
	"fmt"

	"dsm"
)

func main() {
	for _, prim := range []dsm.Prim{dsm.CAS, dsm.LLSC} {
		top, victimSaw := stage(prim)
		verdict := "stack corrupted: the popped-and-reused node was installed as top"
		if top == 3 {
			verdict = "stack intact: the conditional store failed and the pop retried"
		}
		fmt.Printf("%-4s pop during ABA interleaving: returned node %d, top afterwards = node %d\n     -> %s\n",
			prim, victimSaw, top, verdict)
	}
}

// stage builds top->1->2->3, starts a pop that stalls in its window, runs
// the adversary (pop 1, pop 2, push 1), and reports the outcome. The CAS
// stack's counted-pointer tag is cleared, staging the textbook
// compare_and_swap pop on a bare node id.
func stage(prim dsm.Prim) (topAfter, victimPopped dsm.Word) {
	m := dsm.NewSmall(4)
	s := dsm.NewStack(m, dsm.INV, 4, dsm.Options{Prim: prim})
	s.Tagged = false
	windowOpen := m.Alloc(4)
	adversaryDone := m.Alloc(4)

	var popped dsm.Word
	progs := make([]func(*dsm.Proc), m.Procs())
	progs[0] = func(p *dsm.Proc) {
		for node := dsm.Word(3); node >= 1; node-- {
			s.Push(p, node, node)
		}
		popped, _, _ = s.Pop(p, func() {
			p.Store(windowOpen, 1)
			for p.Load(adversaryDone) == 0 {
				p.Compute(50)
			}
		})
	}
	progs[1] = func(p *dsm.Proc) {
		for p.Load(windowOpen) == 0 {
			p.Compute(50)
		}
		a, v, _ := s.Pop(p, nil)
		s.Pop(p, nil) // this node now "belongs" to the adversary
		s.Push(p, a, v)
		p.Store(adversaryDone, 1)
	}
	m.RunEach(progs)
	return m.Peek(s.Top), popped
}
