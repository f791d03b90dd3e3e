package locks

import (
	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// RCU is a read-copy-update cell: a published pointer to the current
// snapshot of a multi-word datum, updated by copying into a spare slot and
// swinging the pointer with the primitive family under study. Readers
// never synchronize — they load the pointer and walk the snapshot — which
// is exactly the read-mostly traffic shape the counter workloads cannot
// produce. Writers serialize on a TTS lock (RCU's classic "updaters may
// lock" rule), publish with Options.Swap, and then wait a grace period:
// every reader must announce (through its per-reader quiescent word,
// homed at the reader's node) that it has seen the new epoch before the
// retired slot may be reused.
//
// Correctness is observable: snapshot word j holds version+j, so a reader
// that overlaps a premature slot reuse sees torn words. With grace
// periods honored, ReadSnapshot never reports torn=true; SkipGrace
// deliberately retires slots immediately, proving the detector detects.
type RCU struct {
	ptr       arch.Addr   // current slot id
	epoch     arch.Addr   // grace-period epoch counter
	quiescent []arch.Addr // per reader: last epoch it announced
	slot      []arch.Addr // per slot: base of Words data words
	lock      TTSLock     // writer serialization
	Words     int         // snapshot size in words
	Opts      Options

	// SkipGrace retires slots without waiting for readers — the broken
	// variant the torn-read detector exists to catch. Tests only.
	SkipGrace bool

	version arch.Word // host-side shadow of the last published version
}

// rcuSlots is the snapshot rotation depth: one live, one under
// construction; grace periods make two sufficient.
const rcuSlots = 2

// NewRCU allocates the cell with snapshots of the given word count,
// publishing version 0 in slot 0.
func NewRCU(m *machine.Machine, policy proto.Policy, words int, opts Options) *RCU {
	if words < 1 || words > arch.WordsPerBlock {
		panic("locks: RCU snapshot must fit one block")
	}
	r := &RCU{
		ptr:       m.AllocSync(policy),
		epoch:     m.AllocSync(policy),
		quiescent: make([]arch.Addr, m.Procs()),
		slot:      make([]arch.Addr, rcuSlots),
		lock:      *NewTTSLock(m, policy, opts),
		Words:     words,
		Opts:      opts,
	}
	for i := range r.quiescent {
		r.quiescent[i] = m.AllocSyncAt(mesh.NodeID(i), proto.PolicyINV)
	}
	for s := range r.slot {
		r.slot[s] = m.Alloc(arch.BlockBytes)
	}
	for j := 0; j < words; j++ {
		m.Poke(r.slot[0]+arch.Addr(j*arch.WordBytes), arch.Word(j))
	}
	m.Poke(r.ptr, 0)
	return r
}

// ReadSnapshot walks the current snapshot and reports its version and
// whether the words were torn (mutually inconsistent — impossible unless
// grace periods are being violated).
func (r *RCU) ReadSnapshot(p *machine.Proc) (version arch.Word, torn bool) {
	s := p.Load(r.ptr)
	base := r.slot[s]
	version = p.Load(base)
	for j := 1; j < r.Words; j++ {
		if p.Load(base+arch.Addr(j*arch.WordBytes)) != version+arch.Word(j) {
			torn = true
		}
	}
	return version, torn
}

// Quiesce announces a quiescent state: the reader is between read-side
// critical sections and has caught up with the current epoch.
func (r *RCU) Quiesce(p *machine.Proc) {
	p.Store(r.quiescent[p.ID()], p.Load(r.epoch))
}

// Update publishes the next version: copy-new into the retired slot,
// swing the pointer, advance the epoch, and wait for every reader to
// announce it (the grace period). Readers are the processors for which
// isReader reports true; the writer must not be one of them.
func (r *RCU) Update(p *machine.Proc, isReader func(proc int) bool) {
	r.lock.Acquire(p)
	v := r.version + 1
	cur := p.Load(r.ptr)
	spare := (cur + 1) % rcuSlots
	base := r.slot[spare]
	for j := 0; j < r.Words; j++ {
		p.Store(base+arch.Addr(j*arch.WordBytes), v+arch.Word(j))
	}
	r.Opts.Swap(p, r.ptr, spare)
	r.version = v
	if !r.SkipGrace {
		target := r.Opts.FetchAdd(p, r.epoch, 1) + 1
		for i, q := range r.quiescent {
			if !isReader(i) {
				continue
			}
			for p.Load(q) < target {
				p.Compute(sim.Time(8 + p.Rand().Intn(16)))
			}
		}
	}
	r.lock.Release(p)
}
