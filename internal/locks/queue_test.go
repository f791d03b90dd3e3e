package locks

import (
	"testing"

	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

func TestQueueSequentialFIFO(t *testing.T) {
	m := newM(4)
	q := NewQueue(m, proto.PolicyUNC, 4, Options{Prim: PrimFAP})
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			for v := arch.Word(1); v <= 3; v++ {
				q.Enqueue(p, v)
			}
			for v := arch.Word(1); v <= 3; v++ {
				if got := q.Dequeue(p); got != v {
					t.Errorf("dequeued %d, want %d", got, v)
				}
			}
		},
		nil, nil, nil,
	})
}

func TestQueueWrapsAroundCapacity(t *testing.T) {
	m := newM(4)
	q := NewQueue(m, proto.PolicyUNC, 2, Options{Prim: PrimFAP})
	m.RunEach([]func(*machine.Proc){
		func(p *machine.Proc) {
			for round := 0; round < 5; round++ {
				q.Enqueue(p, arch.Word(round*2+1))
				q.Enqueue(p, arch.Word(round*2+2))
				if a := q.Dequeue(p); a != arch.Word(round*2+1) {
					t.Errorf("round %d: got %d", round, a)
				}
				if b := q.Dequeue(p); b != arch.Word(round*2+2) {
					t.Errorf("round %d: got %d", round, b)
				}
			}
		},
		nil, nil, nil,
	})
}

func TestQueueProducersConsumersNoLossNoDup(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs, perProducer = 8, 6
			m := newM(procs)
			q := NewQueue(m, proto.PolicyUNC, 4, Options{Prim: prim})
			got := make(map[arch.Word]int)
			m.Run(func(p *machine.Proc) {
				if p.ID()%2 == 0 {
					// Producer: distinct non-zero values.
					for k := 0; k < perProducer; k++ {
						q.Enqueue(p, arch.Word(p.ID()*100+k+1))
						p.Compute(sim.Time(p.Rand().Intn(40)))
					}
				} else {
					for k := 0; k < perProducer; k++ {
						v := q.Dequeue(p)
						got[v]++
						p.Compute(sim.Time(p.Rand().Intn(40)))
					}
				}
			})
			total := procs / 2 * perProducer
			if len(got) != total {
				t.Fatalf("consumed %d distinct values, want %d", len(got), total)
			}
			for v, n := range got {
				if n != 1 {
					t.Fatalf("value %d consumed %d times", v, n)
				}
				if v == 0 {
					t.Fatal("consumed a zero (empty slot)")
				}
			}
		})
	}
}

func TestQueuePerProducerOrderPreserved(t *testing.T) {
	// FIFO per producer: a single consumer must see each producer's values
	// in increasing order.
	const procs = 4
	m := newM(procs)
	q := NewQueue(m, proto.PolicyUNC, 8, Options{Prim: PrimFAP})
	var consumed []arch.Word
	m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			for k := 0; k < 3*(procs-1); k++ {
				consumed = append(consumed, q.Dequeue(p))
			}
		} else {
			for k := 0; k < 3; k++ {
				q.Enqueue(p, arch.Word(p.ID()*10+k))
				p.Compute(sim.Time(p.Rand().Intn(30)))
			}
		}
	})
	last := map[int]arch.Word{}
	for _, v := range consumed {
		producer := int(v) / 10
		if prev, ok := last[producer]; ok && v <= prev {
			t.Fatalf("producer %d's values out of order: %d after %d", producer, v, prev)
		}
		last[producer] = v
	}
}

func TestQueuePanicsOnZeroSlots(t *testing.T) {
	m := newM(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewQueue(m, proto.PolicyUNC, 0, Options{Prim: PrimFAP})
}

func TestCentralBarrierSynchronizes(t *testing.T) {
	for _, prim := range []Prim{PrimFAP, PrimCAS, PrimLLSC} {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			const procs, rounds = 8, 4
			m := newM(procs)
			b := NewCentralBarrier(m, proto.PolicyINV, Options{Prim: prim})
			phase := make([]int, procs)
			m.Run(func(p *machine.Proc) {
				for r := 0; r < rounds; r++ {
					phase[p.ID()] = r
					p.Compute(sim.Time(p.Rand().Intn(80)))
					b.Wait(p)
					for other, ph := range phase {
						if ph < r {
							t.Errorf("round %d: proc %d lagging in %d", r, other, ph)
						}
					}
				}
			})
		})
	}
}

func TestCentralVsTreeBarrierScaling(t *testing.T) {
	// The motivation for the tree barrier: at machine scale the central
	// barrier's hot counter and release flag cost more per episode.
	const procs, rounds = 64, 4
	mC := newM(procs)
	central := NewCentralBarrier(mC, proto.PolicyINV, Options{Prim: PrimFAP})
	centralTime := mC.Run(func(p *machine.Proc) {
		for r := 0; r < rounds; r++ {
			central.Wait(p)
		}
	})
	mT := newM(procs)
	tree := NewTreeBarrier(mT)
	treeTime := mT.Run(func(p *machine.Proc) {
		for r := 0; r < rounds; r++ {
			tree.Wait(p)
		}
	})
	if treeTime >= centralTime {
		t.Fatalf("tree barrier (%d) not faster than central (%d) at %d procs",
			treeTime, centralTime, procs)
	}
}
