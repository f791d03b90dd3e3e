package apps

import (
	"fmt"
	"testing"

	"dsm/internal/arch"
	"dsm/internal/check"
	"dsm/internal/core"
	"dsm/internal/locks"
	"dsm/internal/machine"
)

var (
	allPolicies = []core.Policy{core.PolicyINV, core.PolicyUPD, core.PolicyUNC}
	allPrims    = []locks.Prim{locks.PrimFAP, locks.PrimCAS, locks.PrimLLSC}
)

func policyName(p core.Policy) string {
	switch p {
	case core.PolicyINV:
		return "INV"
	case core.PolicyUPD:
		return "UPD"
	}
	return "UNC"
}

// forEachBar runs f under every policy×primitive combination — the full
// matrix the acceptance criteria require each workload family to survive.
func forEachBar(t *testing.T, f func(t *testing.T, policy core.Policy, opts locks.Options)) {
	for _, policy := range allPolicies {
		for _, prim := range allPrims {
			policy, prim := policy, prim
			t.Run(fmt.Sprintf("%s/%s", policyName(policy), prim), func(t *testing.T) {
				f(t, policy, locks.Options{Prim: prim})
			})
		}
	}
}

// contended is the history-producing configuration of the acceptance
// criteria: more active processors than one, several rounds, write runs on
// the uncontended patterns exercised separately.
var contended = Pattern{Contention: 4, Rounds: 6}

func TestQueueAppLinearizableUnderFullMatrix(t *testing.T) {
	forEachBar(t, func(t *testing.T, policy core.Policy, opts locks.Options) {
		m := newM(8)
		var h check.History
		res := QueueApp(m, policy, opts, contended, &h)
		wantOps := uint64(2 * totalEpisodes(contended, 8))
		if res.Ops != wantOps {
			t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
		}
		if h.Len() != int(wantOps) {
			t.Fatalf("history has %d ops, want %d", h.Len(), wantOps)
		}
		if err := h.CheckQueue(); err != nil {
			t.Fatalf("queue history not linearizable: %v", err)
		}
		m.System().CheckCoherence()
	})
}

func TestStackAppLinearizableUnderFullMatrix(t *testing.T) {
	forEachBar(t, func(t *testing.T, policy core.Policy, opts locks.Options) {
		m := newM(8)
		var h check.History
		res := StackApp(m, policy, opts, contended, &h)
		wantOps := uint64(2 * totalEpisodes(contended, 8))
		if res.Ops != wantOps {
			t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
		}
		if err := h.CheckStack(); err != nil {
			t.Fatalf("stack history not linearizable: %v", err)
		}
		m.System().CheckCoherence()
	})
}

func TestQueueStackWriteRunPatterns(t *testing.T) {
	// The uncontended patterns drive write runs (consecutive pairs by one
	// owner); histories must stay linearizable and op counts must follow
	// the pattern's run lengths.
	pat := Pattern{Contention: 1, WriteRun: 2.5, Rounds: 8}
	for _, prim := range []locks.Prim{locks.PrimCAS, locks.PrimLLSC} {
		m := newM(4)
		var h check.History
		res := QueueApp(m, core.PolicyINV, locks.Options{Prim: prim}, pat, &h)
		if want := uint64(2 * totalEpisodes(pat, 4)); res.Ops != want {
			t.Fatalf("%s: ops = %d, want %d", prim, res.Ops, want)
		}
		if err := h.CheckQueue(); err != nil {
			t.Fatal(err)
		}
		var hs check.History
		if StackApp(m, core.PolicyINV, locks.Options{Prim: prim}, pat, &hs); hs.CheckStack() != nil {
			t.Fatalf("%s: stack write-run history not linearizable", prim)
		}
	}
}

func TestQueueAppCountsRetriesUnderContention(t *testing.T) {
	// A heavily contended MS queue must observe at least one failed swing;
	// the FAP ticket queue performs exactly one atomic per op (no retries).
	m := newM(8)
	pat := Pattern{Contention: 8, Rounds: 8}
	res := QueueApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimCAS}, pat, nil)
	if res.Retries == 0 {
		t.Fatal("contended MS queue recorded zero retries")
	}
	if res := QueueApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimFAP}, pat, nil); res.Retries != 0 {
		t.Fatalf("ticket queue reported %d retries", res.Retries)
	}
}

func TestRCUAppNoTornReadsUnderFullMatrix(t *testing.T) {
	forEachBar(t, func(t *testing.T, policy core.Policy, opts locks.Options) {
		m := newM(4)
		res := RCUApp(m, policy, opts, Pattern{Contention: 1, Rounds: 4})
		if res.TornReads != 0 {
			t.Fatalf("RCU saw %d torn reads", res.TornReads)
		}
		if res.Ops == 0 {
			t.Fatal("RCU performed no operations")
		}
		m.System().CheckCoherence()
	})
}

func TestRCUAppMultipleWriters(t *testing.T) {
	m := newM(8)
	res := RCUApp(m, core.PolicyINV, locks.Options{Prim: locks.PrimCAS}, Pattern{Contention: 3, Rounds: 3})
	if res.TornReads != 0 {
		t.Fatalf("RCU saw %d torn reads", res.TornReads)
	}
}

func TestBarrierAppsUnderFullMatrix(t *testing.T) {
	apps := []struct {
		name string
		run  func(m *machine.Machine, policy core.Policy, opts locks.Options, pat Pattern, h *check.History) Result
	}{
		{"tournament", TournamentApp},
		{"dissemination", DisseminationApp},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			forEachBar(t, func(t *testing.T, policy core.Policy, opts locks.Options) {
				m := newM(8)
				var h check.History
				pat := Pattern{Contention: 4, Rounds: 5}
				res := app.run(m, policy, opts, pat, &h)
				if want := uint64(4 * 5); res.Ops != want {
					t.Fatalf("ops = %d, want %d", res.Ops, want)
				}
				if err := h.CheckCounter(); err != nil {
					t.Fatalf("barrier counter history not linearizable: %v", err)
				}
				m.System().CheckCoherence()
			})
		})
	}
}

// TestWorkloadRunnersCoexistWithSynthetic pins the resident runner: a
// reused machine keeps one pattern runner across alternating synthetic,
// workload and barrier points, and a rerun replays the first run exactly.
func TestWorkloadRunnersCoexistWithSynthetic(t *testing.T) {
	m := newM(4)
	pat := Pattern{Contention: 2, Rounds: 3}
	opts := locks.Options{Prim: locks.PrimCAS}
	first := CounterApp(m, core.PolicyINV, opts, pat)
	r, ok := m.AppScratch().(*runner)
	if !ok {
		t.Fatal("pattern runner not resident")
	}
	QueueApp(m, core.PolicyINV, opts, pat, nil)
	TournamentApp(m, core.PolicyINV, opts, pat, nil)
	if m.AppScratch() != r {
		t.Fatal("workload runs replaced the resident runner")
	}
	if again := CounterApp(m, core.PolicyINV, opts, pat); again != first {
		t.Fatalf("counter rerun on the resident runner = %+v, first run %+v", again, first)
	}
}

// TestStackABAHistoryFlagged is the ABA regression of the issue: the
// tagged-CAS Treiber stack with tags disabled, under the staged
// section-2.2 interleaving, corrupts the structure — and the corruption
// surfaces as a non-linearizable history that CheckStack rejects, while
// the tagged and LL/SC runs of the identical schedule pass. This proves
// the checker catches real protocol-level races, not just synthetic
// mutations.
func TestStackABAHistoryFlagged(t *testing.T) {
	stage := func(prim locks.Prim, tagged bool) error {
		m := newM(4)
		s := locks.NewTreiberStack(m, core.PolicyINV, 4, locks.Options{Prim: prim})
		s.Tagged = tagged
		var h check.History
		windowOpen := m.Alloc(4)
		adversaryDone := m.Alloc(4)
		push := func(p *machine.Proc, node, v arch.Word) {
			inv := p.Now()
			s.Push(p, node, v)
			h.Record(check.Op{Proc: p.ID(), Invoke: inv, Respond: p.Now(), Kind: check.Push, Value: v})
		}
		pop := func(p *machine.Proc, interpose func()) arch.Word {
			inv := p.Now()
			node, v, ok := s.Pop(p, interpose)
			kind := check.Pop
			if !ok {
				kind = check.PopEmpty
			}
			h.Record(check.Op{Proc: p.ID(), Invoke: inv, Respond: p.Now(), Kind: kind, Value: v})
			_ = node
			return v
		}
		m.RunEach([]func(*machine.Proc){
			func(p *machine.Proc) {
				// Build top -> 1 -> 2 -> 3, then pop with an ABA window.
				push(p, 3, 3)
				push(p, 2, 2)
				push(p, 1, 1)
				pop(p, func() {
					p.Store(windowOpen, 1)
					for p.Load(adversaryDone) == 0 {
						p.Compute(50)
					}
				})
				// Drain what remains; under bare CAS the corruption has
				// lost node 3 and left the adversary's node on top, so the
				// drained values double-pop 2 and the checker rejects.
				for {
					inv := p.Now()
					node, v, ok := s.Pop(p, nil)
					kind := check.Pop
					if !ok {
						kind = check.PopEmpty
					}
					h.Record(check.Op{Proc: p.ID(), Invoke: inv, Respond: p.Now(), Kind: kind, Value: v})
					_ = node
					if !ok {
						break
					}
				}
			},
			func(p *machine.Proc) {
				for p.Load(windowOpen) == 0 {
					p.Compute(50)
				}
				a := pop(p, nil) // pops 1
				pop(p, nil)      // pops 2 — this proc now owns node 2
				push(p, 1, a)    // re-pushes node 1: top=1 -> 3
				p.Store(adversaryDone, 1)
			},
			nil, nil,
		})
		return h.CheckStack()
	}

	if err := stage(locks.PrimCAS, false); err == nil {
		t.Fatal("bare-CAS ABA corruption produced a history the checker accepted")
	} else {
		t.Logf("checker flagged the ABA run: %v", err)
	}
	if err := stage(locks.PrimCAS, true); err != nil {
		t.Fatalf("tagged CAS run rejected: %v", err)
	}
	if err := stage(locks.PrimLLSC, true); err != nil {
		t.Fatalf("LL/SC run rejected: %v", err)
	}
}
