package locks

import (
	"dsm/internal/arch"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/proto"
)

// MCSLock is the queue-based spin lock of Mellor-Crummey & Scott: each
// waiter spins on a flag in its own locally-homed block, so contention
// generates no global traffic. The paper's third synthetic application
// protects a counter with it, exercising the case where load_linked /
// store_conditional must simulate compare_and_swap (the release path).
//
// Queue-node "pointers" are encoded as processor id + 1 (0 is nil), since
// each processor owns one statically allocated qnode per lock.
type MCSLock struct {
	Tail arch.Addr
	Opts Options

	next   []arch.Addr // per processor: successor link (own block, home = processor)
	locked []arch.Addr // per processor: spin flag (own block, home = processor)
	serial []arch.Word // per processor: expected tail serial for bare-SC release

	// BareSCRelease uses a bare store_conditional carrying the serial
	// number captured at acquire to release the lock without re-reading
	// the tail — the optimization section 3.1 attributes to the
	// serial-number reservation scheme. Valid only with PrimLLSC and a
	// memory-side serial-number scheme (the lock's policy UNC or UPD).
	BareSCRelease bool
}

// NewMCSLock allocates the lock's tail under the given policy and one
// qnode per processor, homed at that processor for local spinning.
func NewMCSLock(m *machine.Machine, policy proto.Policy, opts Options) *MCSLock {
	l := &MCSLock{}
	l.Init(m, policy, opts)
	return l
}

// Init (re)initializes the lock in place, performing exactly the
// allocation sequence NewMCSLock performs on a fresh lock. Reusing one
// MCSLock value across runs on machines of the same processor count keeps
// the per-run path free of heap allocation: the per-processor slices are
// retained when their length already matches.
func (l *MCSLock) Init(m *machine.Machine, policy proto.Policy, opts Options) {
	procs := m.Procs()
	l.Tail = m.AllocSync(policy)
	l.Opts = opts
	l.BareSCRelease = false
	if len(l.next) != procs {
		l.next = make([]arch.Addr, procs)
		l.locked = make([]arch.Addr, procs)
		l.serial = make([]arch.Word, procs)
	} else {
		clear(l.serial)
	}
	for i := 0; i < procs; i++ {
		l.next[i] = m.AllocSyncAt(mesh.NodeID(i), proto.PolicyINV)
		l.locked[i] = m.AllocSyncAt(mesh.NodeID(i), proto.PolicyINV)
	}
}

// Acquire enqueues the processor and spins locally until it holds the lock.
func (l *MCSLock) Acquire(p *machine.Proc) {
	i := p.ID()
	me := arch.Word(i + 1)
	p.Store(l.next[i], 0)

	var pred arch.Word
	if l.BareSCRelease && l.Opts.Prim == PrimLLSC {
		// Capture the tail serial our enqueue produces, for the bare-SC
		// release.
		for {
			r := p.LoadLinkedFull(l.Tail)
			if p.StoreConditional(l.Tail, me) {
				pred = r.Value
				l.serial[i] = r.Serial + 1
				break
			}
		}
	} else {
		pred = l.Opts.Swap(p, l.Tail, me)
	}
	if l.Opts.Drop {
		// The tail is touched once per acquire; dropping the copy spares
		// the next enqueuer two serialized messages.
		p.DropCopy(l.Tail)
	}
	if pred == 0 {
		return
	}
	p.Store(l.locked[i], 1)
	p.Store(l.next[pred-1], me)
	p.SpinWhile(l.locked[i], machine.NotEqual, 0, 2)
}

// Release passes the lock to the successor, if any.
func (l *MCSLock) Release(p *machine.Proc) {
	i := p.ID()
	me := arch.Word(i + 1)
	if p.Load(l.next[i]) == 0 {
		if l.releaseNoSuccessor(p, i, me) {
			if l.Opts.Drop {
				p.DropCopy(l.Tail)
			}
			return
		}
		// A successor announced itself between our check and the tail
		// update attempt; wait for its link.
		p.SpinWhile(l.next[i], machine.Equal, 0, 2)
	}
	succ := p.Load(l.next[i])
	p.Store(l.locked[succ-1], 0)
}

// releaseNoSuccessor attempts the empty-queue release; it reports true when
// the lock was fully released (no successor to wake).
func (l *MCSLock) releaseNoSuccessor(p *machine.Proc, i int, me arch.Word) bool {
	if l.Opts.Prim == PrimFAP {
		return l.releaseNoCAS(p, i, me)
	}
	if l.BareSCRelease && l.Opts.Prim == PrimLLSC {
		// Bare store_conditional: succeeds iff the tail still holds our
		// node with the serial our enqueue produced — one memory access
		// instead of an LL/SC pair.
		return p.StoreConditionalSerial(l.Tail, 0, l.serial[i])
	}
	return l.Opts.CAS(p, l.Tail, me, 0)
}

// releaseNoCAS is Mellor-Crummey & Scott's release for machines with only
// fetch_and_store: it momentarily severs the queue and splices any
// "usurpers" that slipped in between the two swaps.
func (l *MCSLock) releaseNoCAS(p *machine.Proc, i int, me arch.Word) bool {
	oldTail := p.FetchStore(l.Tail, 0)
	if oldTail == me {
		return true
	}
	usurper := p.FetchStore(l.Tail, oldTail)
	p.SpinWhile(l.next[i], machine.Equal, 0, 2)
	succ := p.Load(l.next[i])
	if usurper != 0 {
		// Processors entered between the swaps; our successors go behind
		// them.
		p.Store(l.next[usurper-1], succ)
	} else {
		p.Store(l.locked[succ-1], 0)
	}
	return true
}
