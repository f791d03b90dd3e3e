package exper

import (
	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/machine"
)

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	Case  string
	Paper int // serialized messages the paper reports
	Got   int // serialized messages measured from the simulator
}

// Table1Par measures the serialized network message counts for stores
// under every coherence situation of the paper's Table 1, by constructing
// each situation directly and reading the transaction's chain length. Runs
// are fanned across par workers (see Sweep); par 0 means GOMAXPROCS.
func Table1Par(par int) []Table1Row {
	cfg := core.DefaultConfig()
	measureStore := func(policy core.Policy, setup func(m *machine.Machine, a arch.Addr)) int {
		m := machine.New(cfg)
		a := m.AllocSyncAt(9, policy) // remote home for nodes 0-2
		if setup != nil {
			setup(m, a)
		}
		chain := -1
		progs := make([]func(*machine.Proc), m.Procs())
		progs[0] = func(p *machine.Proc) {
			chain = p.Do(core.Request{Op: core.OpStore, Addr: a, Val: 1}).Chain
		}
		m.RunEach(progs)
		return chain
	}
	runOn := func(m *machine.Machine, node int, f func(p *machine.Proc)) {
		progs := make([]func(*machine.Proc), m.Procs())
		progs[node] = f
		m.RunEach(progs)
	}

	cases := []struct {
		name   string
		paper  int
		policy core.Policy
		setup  func(m *machine.Machine, a arch.Addr)
	}{
		{"UNC", 2, core.PolicyUNC, nil},
		{"INV to cached exclusive", 0, core.PolicyINV,
			func(m *machine.Machine, a arch.Addr) {
				runOn(m, 0, func(p *machine.Proc) { p.Store(a, 7) })
			}},
		{"INV to remote exclusive", 4, core.PolicyINV,
			func(m *machine.Machine, a arch.Addr) {
				runOn(m, 1, func(p *machine.Proc) { p.Store(a, 7) })
			}},
		{"INV to remote shared", 3, core.PolicyINV,
			func(m *machine.Machine, a arch.Addr) {
				runOn(m, 1, func(p *machine.Proc) { p.Load(a) })
				runOn(m, 2, func(p *machine.Proc) { p.Load(a) })
			}},
		{"INV to uncached", 2, core.PolicyINV, nil},
		{"UPD to cached", 3, core.PolicyUPD,
			func(m *machine.Machine, a arch.Addr) {
				runOn(m, 1, func(p *machine.Proc) { p.Load(a) })
			}},
		{"UPD to uncached", 2, core.PolicyUPD, nil},
	}

	rows := make([]Table1Row, len(cases))
	Sweep(len(cases), par, func(i int) {
		c := cases[i]
		rows[i] = Table1Row{Case: c.name, Paper: c.paper, Got: measureStore(c.policy, c.setup)}
	})
	return rows
}
