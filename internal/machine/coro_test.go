package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/sim"
)

// goroutinesSettle runs the collector until the goroutine count is back at
// or below baseline (cleanups run asynchronously after a cycle), reporting
// whether it got there within a few seconds.
func goroutinesSettle(baseline int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func TestProgramPanicUnwindsEveryCoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := newSmall()
	a := m.AllocSync(core.PolicyINV)
	boom := &struct{ msg string }{"proc 0 failed"}
	unwound := 0
	spin := func(p *Proc) {
		defer func() { unwound++ }()
		for {
			p.FetchAdd(a, 1)
			p.Compute(3)
		}
	}
	progs := []func(*Proc){
		func(p *Proc) {
			p.Compute(50)
			panic(boom)
		},
		spin, spin, spin,
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the program's panic value", r)
			}
		}()
		m.RunEach(progs)
		t.Fatal("RunEach returned normally")
	}()
	if unwound != 3 {
		t.Fatalf("%d of 3 suspended programs unwound", unwound)
	}

	// The machine stays usable after Reset, and matches a fresh one.
	cfg := m.cfg
	if !m.Reset(cfg) {
		t.Fatal("Reset refused the machine's own config")
	}
	count := func(m *Machine) (sim.Time, arch.Word) {
		a := m.AllocSync(core.PolicyINV)
		elapsed := m.Run(func(p *Proc) { p.FetchAdd(a, 1) })
		return elapsed, m.Peek(a)
	}
	gotT, gotV := count(m)
	wantT, wantV := count(New(cfg))
	if gotT != wantT || gotV != wantV {
		t.Fatalf("after panic and Reset: elapsed %d value %d, fresh machine: %d %d", gotT, gotV, wantT, wantV)
	}

	w := weak.Make(m)
	m = nil
	if !goroutinesSettle(baseline) {
		t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
	}
	if w.Value() != nil {
		t.Fatal("machine still reachable after its run panicked")
	}
}

// TestPanicUnwindsSpinningCoroutines: a peer's panic while three programs
// are suspended mid-SpinWhile, their loads in flight or their next load
// scheduled, reaches RunEach's caller and unwinds them all; after a Reset
// no spin state survives into the next run, which matches a fresh machine.
func TestPanicUnwindsSpinningCoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := newSmall()
	flag := m.AllocSyncAt(1, core.PolicyINV)
	boom := &struct{ msg string }{"proc 0 failed"}
	unwound := 0
	spin := func(p *Proc) {
		defer func() { unwound++ }()
		p.Compute(sim.Time(p.ID()))
		p.SpinWhile(flag, Equal, 0, 2)
		t.Error("spin ended on a flag nobody set")
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the program's panic value", r)
			}
		}()
		m.RunEach([]func(*Proc){
			func(p *Proc) {
				// Writing the flag's block wakes the parked spinners,
				// which account their loads and spin on.
				p.Compute(200)
				p.Store(flag+8, 1)
				p.Load(flag)
				panic(boom)
			},
			spin, spin, spin,
		})
		t.Fatal("RunEach returned normally")
	}()
	if unwound != 3 {
		t.Fatalf("%d of 3 spinning programs unwound", unwound)
	}
	for i := 1; i < 4; i++ {
		if m.ProcStats(i).Ops < 10 {
			t.Fatalf("proc %d made %d loads before the panic, want a spin in progress", i, m.ProcStats(i).Ops)
		}
	}

	cfg := m.cfg
	if !m.Reset(cfg) {
		t.Fatal("Reset refused the machine's own config")
	}
	release := spinRelease(core.PolicyINV, 2)
	checked := func(m *Machine, spin spinFunc, r *spinRecord) []func(*Proc) {
		progs := release(m, spin, r)
		for i, prog := range progs {
			progs[i] = func(p *Proc) {
				if p.pending.kind == actSpin {
					t.Errorf("proc %d starts its program with a stale spin pending", p.ID())
				}
				prog(p)
			}
		}
		return progs
	}
	sameSpinRecord(t, "after panic and Reset",
		runSpinCase(m, checked, spinEngine), runSpinCase(New(cfg), release, spinEngine))

	w := weak.Make(m)
	m = nil
	if !goroutinesSettle(baseline) {
		t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
	}
	if w.Value() != nil {
		t.Fatal("machine still reachable after its run panicked")
	}
}

func TestDeadlockUnwindsEveryCoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := newSmall()
	waiting := 0
	func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "deadlock") {
				t.Fatalf("recovered %v, want a deadlock panic", r)
			}
		}()
		m.Run(func(p *Proc) {
			defer func() { waiting++ }()
			if p.ID() == 0 {
				m.running++ // a phantom processor the barrier waits for
			}
			p.Barrier()
		})
	}()
	if waiting != 4 {
		t.Fatalf("%d of 4 suspended programs unwound", waiting)
	}
	m = nil
	if !goroutinesSettle(baseline) {
		t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
	}
}

func TestDroppedMachinesReleaseCoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ms := make([]*Machine, 50)
	for i := range ms {
		ms[i] = newSmall()
		a := ms[i].AllocSync(core.PolicyUNC)
		ms[i].Run(func(p *Proc) { p.FetchAdd(a, 1) })
	}
	if n := runtime.NumGoroutine(); n < baseline+len(ms)*4 {
		t.Fatalf("goroutines: %d, want at least %d with the machines resident", n, baseline+len(ms)*4)
	}
	ms = nil
	if !goroutinesSettle(baseline) {
		t.Fatalf("dropped machines leak coroutines: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
	}
}

// reuseScenarios are programs for one 4-processor machine, each set up by
// allocating its own variables. Between them they cover idle processors,
// barriers, Compute, LL/SC (including a program that ends holding a
// reservation, then one that issues SC first), and processors that exit
// while others still run or wait at a barrier.
var reuseScenarios = []func(m *Machine) ([]func(*Proc), []arch.Addr){
	func(m *Machine) ([]func(*Proc), []arch.Addr) { // counter rounds with barriers
		a := m.AllocSync(core.PolicyINV)
		prog := func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.FetchAdd(a, 1)
				p.Compute(sim.Time(p.Rand().Intn(20)))
				p.Barrier()
			}
		}
		return []func(*Proc){prog, prog, prog, prog}, []arch.Addr{a}
	},
	func(m *Machine) ([]func(*Proc), []arch.Addr) { // LL/SC on two procs, ending with a live reservation
		a := m.AllocSync(core.PolicyUNC)
		b := m.AllocSync(core.PolicyINV)
		prog := func(p *Proc) {
			for n := 0; n < 3; {
				v := p.LoadLinked(a)
				p.Compute(sim.Time(1 + p.Rand().Intn(4)))
				if p.StoreConditional(a, v+1) {
					n++
				}
			}
			p.LoadLinked(b)
		}
		return []func(*Proc){prog, nil, prog, nil}, []arch.Addr{a, b}
	},
	func(m *Machine) ([]func(*Proc), []arch.Addr) { // SC before any LL, early exits around a barrier
		a := m.AllocSync(core.PolicyINV)
		b := m.Alloc(4)
		return []func(*Proc){
			func(p *Proc) {
				if p.StoreConditional(a, 7) {
					p.Store(b, 1)
				}
				p.Barrier()
				p.Store(b, p.Load(b)+2)
			},
			func(p *Proc) {
				p.Compute(30)
				p.FetchAdd(a, 1)
			},
			nil,
			func(p *Proc) {
				p.Barrier()
				p.FetchAdd(a, 10)
			},
		}, []arch.Addr{a, b}
	},
	func(m *Machine) ([]func(*Proc), []arch.Addr) { // CAS contention, staggered
		a := m.AllocSync(core.PolicyUPD)
		prog := func(p *Proc) {
			for i := 0; i < 3; i++ {
				for {
					v := p.Load(a)
					if p.CompareAndSwap(a, v, v+arch.Word(p.ID()+1)) {
						break
					}
					p.Compute(sim.Time(p.Rand().Intn(8)))
				}
			}
		}
		return []func(*Proc){nil, prog, prog, prog}, []arch.Addr{a}
	},
}

type runRecord struct {
	elapsed sim.Time
	stats   [4]ProcStats
	values  []arch.Word
}

func recordRun(m *Machine, scenario func(*Machine) ([]func(*Proc), []arch.Addr)) runRecord {
	progs, addrs := scenario(m)
	r := runRecord{elapsed: m.RunEach(progs)}
	for i := range r.stats {
		r.stats[i] = m.ProcStats(i)
	}
	for _, a := range addrs {
		r.values = append(r.values, m.Peek(a))
	}
	return r
}

func TestReusedMachineMatchesFreshAcrossPrograms(t *testing.T) {
	reused := newSmall()
	cfg := reused.cfg
	// Twice through, so every scenario also follows every other on the
	// same resident coroutines.
	for round := 0; round < 2; round++ {
		for i, scenario := range reuseScenarios {
			if !reused.Reset(cfg) {
				t.Fatal("Reset refused the machine's own config")
			}
			got := recordRun(reused, scenario)
			want := recordRun(New(cfg), scenario)
			if got.elapsed != want.elapsed || got.stats != want.stats {
				t.Fatalf("round %d scenario %d: reused elapsed %d stats %+v, fresh %d %+v",
					round, i, got.elapsed, got.stats, want.elapsed, want.stats)
			}
			for j := range want.values {
				if got.values[j] != want.values[j] {
					t.Fatalf("round %d scenario %d: reused Peek[%d] = %d, fresh %d",
						round, i, j, got.values[j], want.values[j])
				}
			}
		}
	}
}
