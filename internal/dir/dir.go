// Package dir implements the full-map directory state kept by each home
// memory module in the DASH-style protocols of the paper. A directory entry
// records, per 32-byte block, whether memory's copy is current, which caches
// hold copies, and — for the memory-side implementations of load_linked /
// store_conditional — the outstanding reservations.
package dir

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/mesh"
)

// State is the stable sharing state of a block as recorded at its home.
type State uint8

const (
	// Unowned: no cache holds a copy; memory is current. (The paper calls
	// this case "uncached" in Table 1.)
	Unowned State = iota
	// Shared: one or more caches hold read-only copies; memory is current.
	Shared
	// Exclusive: exactly one cache holds an exclusive (dirty) copy; memory
	// is stale.
	Exclusive
	// Busy: a transaction is in flight for this block; incoming requests
	// are refused with negative acknowledgments and retried by requesters.
	Busy
)

// String returns a short human-readable state name.
func (s State) String() string {
	switch s {
	case Unowned:
		return "unowned"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case Busy:
		return "busy"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Bitset is a set of node ids (up to 64 nodes, the machine size in the
// paper). The zero value is the empty set.
type Bitset uint64

// Add inserts node n.
func (b *Bitset) Add(n mesh.NodeID) { *b |= 1 << uint(n) }

// Remove deletes node n.
func (b *Bitset) Remove(n mesh.NodeID) { *b &^= 1 << uint(n) }

// Has reports whether node n is present.
func (b Bitset) Has(n mesh.NodeID) bool { return b&(1<<uint(n)) != 0 }

// Count returns the number of nodes present.
func (b Bitset) Count() int {
	n := 0
	for v := uint64(b); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Empty reports whether the set is empty.
func (b Bitset) Empty() bool { return b == 0 }

// Entry is the directory record for one block.
type Entry struct {
	State   State
	Sharers Bitset      // caches holding read-only copies (State == Shared)
	Owner   mesh.NodeID // cache holding the exclusive copy (State == Exclusive)

	// Reservations holds memory-side LL/SC reservation state for the UNC
	// and UPD implementations; nil until the first load_linked.
	Reservations *ResvState
}

// Directory is one home node's collection of entries. A home holds every
// nodes-th block (blocks interleave across homes by block number), so
// entries are keyed by the home's local block index (arch.LocalBlock),
// which packs them densely into the table's pages. Entries are created on
// first reference in the Unowned state.
type Directory struct {
	entries    arch.Table[slot]
	interleave uint32
}

// slot is one table cell: an entry, and whether it was ever referenced.
type slot struct {
	e    Entry
	used bool
}

// Init (re)initializes a directory in place as the directory of one of
// nodes interleaved homes, for callers that embed Directory by value. Every
// address passed to the directory must be homed there.
func (d *Directory) Init(nodes int) {
	*d = Directory{interleave: uint32(nodes)}
}

// Reset forgets every entry's contents, returning the directory to a state
// protocol-equivalent to post-Init while keeping the entries themselves
// allocated: a reused machine references the same blocks every run, and
// keeping the records makes Entry allocation-free in the steady state.
// Lingering Unowned entries are invisible to the protocol (Entry would have
// created an identical record on first touch) and to the coherence checker
// (which only inspects entries for blocks actually cached).
func (d *Directory) Reset() {
	d.entries.Each(func(_ uint32, s *slot) {
		s.e.State = Unowned
		s.e.Sharers = 0
		s.e.Owner = 0
		if s.e.Reservations != nil {
			s.e.Reservations.Reset()
		}
	})
}

// Entry returns the entry for the block containing a, creating it (Unowned)
// on first reference.
func (d *Directory) Entry(a arch.Addr) *Entry {
	s := d.entries.At(arch.LocalBlock(a, d.interleave))
	s.used = true
	return &s.e
}

// Peek returns the entry for the block containing a, or nil if the block
// has never been referenced.
func (d *Directory) Peek(a arch.Addr) *Entry {
	if s := d.entries.Get(arch.LocalBlock(a, d.interleave)); s != nil && s.used {
		return &s.e
	}
	return nil
}

// Check verifies the internal consistency of an entry and panics with a
// descriptive message on violation. It is called from the protocol engines
// in race-heavy tests.
func (e *Entry) Check(base arch.Addr) {
	switch e.State {
	case Unowned:
		if !e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: unowned block %#x has sharers %b", base, e.Sharers))
		}
	case Shared:
		if e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: shared block %#x has no sharers", base))
		}
	case Exclusive:
		if !e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: exclusive block %#x has sharers %b", base, e.Sharers))
		}
	}
}
