// Package locks implements the synchronization algorithms the paper layers
// over the atomic primitives: lock-free counters, the test-and-test-and-set
// lock with bounded exponential backoff, the MCS queue-based spin lock
// (including the release variant that avoids compare_and_swap), and the
// scalable tree barrier of Mellor-Crummey & Scott.
//
// Every algorithm is parameterized by which primitive family the simulated
// hardware provides (fetch_and_Φ, compare_and_swap, or load_linked /
// store_conditional), mirroring the paper's three bars per experiment, and
// by the use of the auxiliary instructions load_exclusive and drop_copy.
package locks

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/machine"
)

// Prim selects the primitive family the simulated hardware provides.
type Prim uint8

const (
	// PrimFAP: the fetch_and_Φ family (fetch_and_add, fetch_and_store,
	// fetch_and_or, test_and_set). Level 2 in Herlihy's hierarchy.
	PrimFAP Prim = iota
	// PrimCAS: compare_and_swap. Universal.
	PrimCAS
	// PrimLLSC: load_linked/store_conditional. Universal.
	PrimLLSC
)

// String returns the label used in the paper's figures.
func (p Prim) String() string {
	switch p {
	case PrimFAP:
		return "FAP"
	case PrimCAS:
		return "CAS"
	case PrimLLSC:
		return "LLSC"
	}
	return fmt.Sprintf("Prim(%d)", uint8(p))
}

// Options tunes how algorithms use the hardware.
type Options struct {
	Prim Prim
	// UseLoadExclusive reads data that will immediately be hit by a
	// compare_and_swap with load_exclusive, the paper's recommended
	// auxiliary instruction (meaningful with PrimCAS under INV).
	UseLoadExclusive bool
	// Drop issues drop_copy after updates to reduce the serialized
	// messages of the next processor's access.
	Drop bool
}

// read performs the read half of a read-modify-write: an ordinary load, or
// load_exclusive when configured (so the write half hits locally).
func (o Options) read(p *machine.Proc, a arch.Addr) arch.Word {
	if o.UseLoadExclusive {
		return p.LoadExclusive(a)
	}
	return p.Load(a)
}

// Swap atomically exchanges the word at a with v using the configured
// primitive family, returning the previous value.
func (o Options) Swap(p *machine.Proc, a arch.Addr, v arch.Word) arch.Word {
	switch o.Prim {
	case PrimFAP:
		return p.FetchStore(a, v)
	case PrimCAS:
		for {
			old := o.read(p, a)
			if p.CompareAndSwap(a, old, v) {
				return old
			}
		}
	case PrimLLSC:
		for {
			old := p.LoadLinked(a)
			if p.StoreConditional(a, v) {
				return old
			}
		}
	}
	panic("locks: unknown primitive")
}

// CAS performs a compare_and_swap using the configured primitive family.
// It panics for PrimFAP: fetch_and_Φ cannot simulate compare_and_swap
// (Herlihy's hierarchy), which is exactly why the paper recommends a
// universal primitive.
func (o Options) CAS(p *machine.Proc, a arch.Addr, expect, new arch.Word) bool {
	switch o.Prim {
	case PrimCAS:
		return p.CompareAndSwap(a, expect, new)
	case PrimLLSC:
		// The well-known simulation: a successful simulated CAS typically
		// costs two misses (LL gets a shared copy, SC upgrades).
		for {
			v := p.LoadLinked(a)
			if v != expect {
				return false
			}
			if p.StoreConditional(a, new) {
				return true
			}
		}
	case PrimFAP:
		panic("locks: fetch_and_Φ cannot simulate compare_and_swap")
	}
	panic("locks: unknown primitive")
}

// FetchAdd atomically adds delta using the configured primitive family,
// returning the previous value.
func (o Options) FetchAdd(p *machine.Proc, a arch.Addr, delta arch.Word) arch.Word {
	switch o.Prim {
	case PrimFAP:
		return p.FetchAdd(a, delta)
	case PrimCAS:
		for {
			old := o.read(p, a)
			if p.CompareAndSwap(a, old, old+delta) {
				return old
			}
		}
	case PrimLLSC:
		for {
			old := p.LoadLinked(a)
			if p.StoreConditional(a, old+delta) {
				return old
			}
		}
	}
	panic("locks: unknown primitive")
}

// TestAndSet atomically sets the word to 1 using the configured primitive
// family, returning the previous value.
func (o Options) TestAndSet(p *machine.Proc, a arch.Addr) arch.Word {
	switch o.Prim {
	case PrimFAP:
		return p.TestAndSet(a)
	case PrimCAS:
		if p.CompareAndSwap(a, 0, 1) {
			return 0
		}
		return 1
	case PrimLLSC:
		for {
			old := p.LoadLinked(a)
			if old != 0 {
				return old
			}
			if p.StoreConditional(a, 1) {
				return 0
			}
		}
	}
	panic("locks: unknown primitive")
}
