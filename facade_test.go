package dsm

import (
	"strings"
	"testing"
)

func TestAttachTraceCapturesProtocol(t *testing.T) {
	m := NewSmall(4)
	tr := AttachTrace(m, 64)
	a := m.AllocSyncAt(1, INV)
	m.RunEach([]func(*Proc){
		func(p *Proc) { p.FetchAdd(a, 1) },
		nil, nil, nil,
	})
	if tr.Len() == 0 {
		t.Fatal("trace captured nothing")
	}
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"issue", "fetch_and_add", "complete"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("trace missing %q:\n%s", want, b.String())
		}
	}
}

func TestQueueThroughFacade(t *testing.T) {
	m := NewSmall(4)
	q := NewQueue(m, UNC, 4, Options{Prim: FAP})
	var got []Word
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < 3; i++ {
				got = append(got, q.Dequeue(p))
			}
		} else {
			q.Enqueue(p, Word(p.ID()))
		}
	})
	if len(got) != 3 {
		t.Fatalf("dequeued %d values", len(got))
	}
}

func TestCentralBarrierThroughFacade(t *testing.T) {
	m := NewSmall(4)
	b := NewCentralBarrier(m, INV, Options{Prim: FAP})
	a := m.Alloc(4)
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Store(a, 7)
		}
		b.Wait(p)
		if v := p.Load(a); v != 7 {
			t.Errorf("proc %d sees %d after barrier", p.ID(), v)
		}
	})
}

func TestStackThroughFacade(t *testing.T) {
	m := NewSmall(4)
	s := NewStack(m, INV, 4, Options{Prim: LLSC})
	var popped Word
	m.RunEach([]func(*Proc){
		func(p *Proc) {
			s.Push(p, 2, 20)
			s.Push(p, 3, 30)
			popped, _, _ = s.Pop(p, nil)
		},
		nil, nil, nil,
	})
	if popped != 3 {
		t.Fatalf("popped %d, want 3 (LIFO)", popped)
	}
}

func TestSpinWhileThroughFacade(t *testing.T) {
	m := NewSmall(4)
	flag := m.AllocSyncAt(1, INV)
	var got [4]Word
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(50)
			p.Store(flag, 7)
			return
		}
		got[p.ID()] = p.SpinWhile(flag, Equal, 0, 2)
	})
	for i := 1; i < 4; i++ {
		if got[i] != 7 {
			t.Fatalf("proc %d left its spin with %d, want 7", i, got[i])
		}
	}
}
