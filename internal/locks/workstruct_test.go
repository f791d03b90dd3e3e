package locks

import (
	"fmt"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// universalPrims are the families that can express pointer swings.
var universalPrims = []Prim{PrimCAS, PrimLLSC}

func TestMSQueueFIFO(t *testing.T) {
	for _, prim := range universalPrims {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			q := new(MSQueue)
			q.Init(m, proto.PolicyINV, 8, Options{Prim: prim})
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) {
					if _, ok := q.Dequeue(p); ok {
						t.Error("fresh queue not empty")
					}
					for v := arch.Word(10); v <= 14; v++ {
						q.Enqueue(p, q.AcquireNode(), v)
					}
					for v := arch.Word(10); v <= 14; v++ {
						got, ok := q.Dequeue(p)
						if !ok || got != v {
							t.Errorf("dequeue = %d,%v, want %d", got, ok, v)
						}
					}
					if _, ok := q.Dequeue(p); ok {
						t.Error("drained queue not empty")
					}
				},
				nil, nil, nil,
			})
			m.System().CheckCoherence()
		})
	}
}

func TestMSQueueConcurrentNoLossNoDup(t *testing.T) {
	for _, prim := range universalPrims {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs, each = 8, 6
			m := newM(procs)
			q := new(MSQueue)
			q.Init(m, proto.PolicyINV, procs*each, Options{Prim: prim})
			// Preassign node ranges so issue order is deterministic.
			nodes := make([][]arch.Word, procs)
			for i := range nodes {
				for k := 0; k < each; k++ {
					nodes[i] = append(nodes[i], q.AcquireNode())
				}
			}
			got := make([][]arch.Word, procs)
			m.Run(func(p *machine.Proc) {
				i := p.ID()
				for k := 0; k < each; k++ {
					q.Enqueue(p, nodes[i][k], arch.Word(i*each+k+1))
					p.Compute(sim.Time(p.Rand().Intn(30)))
					if v, ok := q.Dequeue(p); ok {
						got[i] = append(got[i], v)
					}
				}
			})
			// Drain the remainder.
			var rest []arch.Word
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) {
					for {
						v, ok := q.Dequeue(p)
						if !ok {
							break
						}
						rest = append(rest, v)
					}
				},
				nil, nil, nil, nil, nil, nil, nil,
			})
			seen := map[arch.Word]bool{}
			total := 0
			for _, g := range append(got, rest) {
				for _, v := range g {
					if seen[v] {
						t.Fatalf("value %d dequeued twice", v)
					}
					seen[v] = true
					total++
				}
			}
			if total != procs*each {
				t.Fatalf("dequeued %d values, want %d", total, procs*each)
			}
			// FIFO order itself is the exact checker's job
			// (internal/check); this test pins conservation.
			m.System().CheckCoherence()
		})
	}
}

func TestTreiberStackLIFO(t *testing.T) {
	for _, prim := range universalPrims {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			m := newM(4)
			s := NewTreiberStack(m, proto.PolicyINV, 4, Options{Prim: prim})
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) {
					if _, _, ok := s.Pop(p, nil); ok {
						t.Error("fresh stack not empty")
					}
					for n := arch.Word(1); n <= 3; n++ {
						s.Push(p, n, 100+n)
					}
					for want := arch.Word(3); want >= 1; want-- {
						node, v, ok := s.Pop(p, nil)
						if !ok || node != want || v != 100+want {
							t.Errorf("pop = (%d,%d,%v), want (%d,%d,true)", node, v, ok, want, 100+want)
						}
					}
					// Recycle a popped node with a fresh value.
					s.Push(p, 2, 999)
					if _, v, ok := s.Pop(p, nil); !ok || v != 999 {
						t.Errorf("recycled pop = %d,%v, want 999", v, ok)
					}
				},
				nil, nil, nil,
			})
			m.System().CheckCoherence()
		})
	}
}

func TestTreiberStackConcurrentNoLoss(t *testing.T) {
	for _, prim := range universalPrims {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs, each = 8, 4
			m := newM(procs)
			s := NewTreiberStack(m, proto.PolicyINV, procs*each, Options{Prim: prim})
			m.Run(func(p *machine.Proc) {
				i := p.ID()
				for k := 0; k < each; k++ {
					node := arch.Word(i*each + k + 1)
					s.Push(p, node, node)
					p.Compute(sim.Time(p.Rand().Intn(20)))
				}
			})
			var got []arch.Word
			m.RunEach([]func(*machine.Proc){
				func(p *machine.Proc) {
					for {
						node, v, ok := s.Pop(p, nil)
						if !ok {
							break
						}
						if node != v {
							t.Errorf("node %d carries value %d", node, v)
						}
						got = append(got, node)
					}
				},
				nil, nil, nil, nil, nil, nil, nil,
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
			m.System().CheckCoherence()
		})
	}
}

// TestTreiberTaggedDefeatsABA replays TestStackABAProblem's interleaving
// against the Treiber stack: with counted pointers (or LL/SC) the delayed
// pop must not corrupt; with tags stripped it must reproduce the
// corruption — the raw-protocol ground truth the history checker's ABA
// regression (in internal/apps) is built on.
func TestTreiberTaggedDefeatsABA(t *testing.T) {
	stage := func(prim Prim, tagged bool) (topID arch.Word) {
		m := newM(4)
		s := NewTreiberStack(m, proto.PolicyINV, 4, Options{Prim: prim})
		s.Tagged = tagged
		windowOpen := m.Alloc(4)
		adversaryDone := m.Alloc(4)
		m.RunEach([]func(*machine.Proc){
			func(p *machine.Proc) {
				// Build top -> 1 -> 2 -> 3, then pop with the ABA window.
				s.Push(p, 3, 3)
				s.Push(p, 2, 2)
				s.Push(p, 1, 1)
				s.Pop(p, func() {
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
				a, av, _ := s.Pop(p, nil) // pops 1
				s.Pop(p, nil)             // pops 2 — adversary owns it now
				s.Push(p, a, av)          // pushes 1 back: top=1 -> 3
				p.Store(adversaryDone, 1)
			},
			nil, nil,
		})
		var top arch.Word
		m.RunEach([]func(*machine.Proc){
			func(p *machine.Proc) { top = msID(p.Load(s.Top)) },
			nil, nil, nil,
		})
		return top
	}

	// Bare CAS: the delayed swing installs node 2, which the adversary
	// privately owns — the stack is corrupt.
	if top := stage(PrimCAS, false); top != 2 {
		t.Fatalf("bare CAS top after ABA = %d; expected corrupted 2", top)
	}
	// Counted pointers: the tag moved, the stale CAS fails, retry pops
	// correctly, leaving top = 3.
	if top := stage(PrimCAS, true); top != 3 {
		t.Fatalf("tagged CAS top after ABA = %d, want 3", top)
	}
	// LL/SC: reservation cleared by the interleaving, same recovery.
	if top := stage(PrimLLSC, true); top != 3 {
		t.Fatalf("LLSC top after ABA = %d, want 3", top)
	}
}

func TestRCUReadersNeverTorn(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs = 4
			m := newM(procs)
			r := NewRCU(m, proto.PolicyINV, 4, Options{Prim: prim})
			isReader := func(i int) bool { return i != 0 }
			done := m.Alloc(4)
			var lastVersion [procs]arch.Word
			m.Run(func(p *machine.Proc) {
				if p.ID() == 0 {
					for u := 0; u < 5; u++ {
						r.Update(p, isReader)
						p.Compute(20)
					}
					p.Store(done, 1)
					return
				}
				// Read until the writer is finished, so grace periods
				// always have quiescing readers to wait on.
				for p.Load(done) == 0 {
					v, torn := r.ReadSnapshot(p)
					if torn {
						t.Errorf("reader %d: torn snapshot at version %d", p.ID(), v)
					}
					if v < lastVersion[p.ID()] {
						t.Errorf("reader %d: version went backwards %d -> %d", p.ID(), lastVersion[p.ID()], v)
					}
					lastVersion[p.ID()] = v
					r.Quiesce(p)
					p.Compute(sim.Time(5 + p.Rand().Intn(10)))
				}
			})
			m.System().CheckCoherence()
		})
	}
}

// TestRCUSkipGraceTears proves the torn-read detector detects: with grace
// periods skipped, a reader paused mid-walk observes the slot being
// overwritten by the second update.
func TestRCUSkipGraceTears(t *testing.T) {
	m := newM(2)
	r := NewRCU(m, proto.PolicyINV, 4, Options{Prim: PrimCAS})
	r.SkipGrace = true
	windowOpen := m.Alloc(4)
	writerDone := m.Alloc(4)
	torn := false
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			// Read slot 0's version word, pause, then finish the walk
			// after the writer has cycled back onto slot 0.
			s := p.Load(r.ptr)
			base := r.slot[s]
			version := p.Load(base)
			p.Store(windowOpen, 1)
			for p.Load(writerDone) == 0 {
				p.Compute(50)
			}
			for j := 1; j < r.Words; j++ {
				if p.Load(base+arch.Addr(j*arch.WordBytes)) != version+arch.Word(j) {
					torn = true
				}
			}
		},
		func(p *machine.Proc) {
			for p.Load(windowOpen) == 0 {
				p.Compute(50)
			}
			none := func(int) bool { return false }
			r.Update(p, none) // publishes slot 1
			r.Update(p, none) // reuses slot 0 — the reader is still in it
			p.Store(writerDone, 1)
		},
	})
	if !torn {
		t.Fatal("SkipGrace update did not tear the paused reader's snapshot")
	}
}

func TestTournamentBarrierNoOvertaking(t *testing.T) {
	for _, procs := range []int{2, 5, 16} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			const rounds = 5
			m := newM(procs)
			b := NewTournamentBarrier(m)
			phase := make([]int, procs)
			m.Run(func(p *machine.Proc) {
				for r := 0; r < rounds; r++ {
					phase[p.ID()] = r
					p.Compute(sim.Time(p.Rand().Intn(50)))
					b.Wait(p)
					for other, ph := range phase {
						if ph < r {
							t.Errorf("round %d: processor %d still in phase %d", r, other, ph)
						}
					}
				}
			})
		})
	}
}

func TestDisseminationBarrierNoOvertaking(t *testing.T) {
	for _, procs := range []int{2, 5, 16} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			const rounds = 5
			m := newM(procs)
			b := NewDisseminationBarrier(m)
			phase := make([]int, procs)
			m.Run(func(p *machine.Proc) {
				for r := 0; r < rounds; r++ {
					phase[p.ID()] = r
					p.Compute(sim.Time(p.Rand().Intn(50)))
					b.Wait(p)
					for other, ph := range phase {
						if ph < r {
							t.Errorf("round %d: processor %d still in phase %d", r, other, ph)
						}
					}
				}
			})
		})
	}
}
