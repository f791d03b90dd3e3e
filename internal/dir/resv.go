package dir

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/mesh"
)

// ResvScheme selects how memory-side load_linked reservations are
// represented, per section 3.1 of the paper.
type ResvScheme uint8

const (
	// ResvBitVector keeps one reservation bit per processor per block
	// (a full bit vector in the directory entry). Simple but its total
	// size grows quadratically with the machine.
	ResvBitVector ResvScheme = iota
	// ResvLimited keeps at most Limit reservations per block. A
	// load_linked beyond the limit is ignored and returns a failure hint,
	// so its store_conditional can fail locally without network traffic.
	// This compromises lock-freedom under heavy contention.
	ResvLimited
	// ResvSerial keeps a per-block serial number of writes instead of
	// explicit reservations. load_linked returns (value, serial);
	// store_conditional carries the expected serial and fails on
	// mismatch. This also permits a "bare" store_conditional and avoids
	// the pointer (ABA) problem; it is the option the paper prefers.
	ResvSerial
)

// String returns the scheme name used in reports.
func (s ResvScheme) String() string {
	switch s {
	case ResvBitVector:
		return "bitvector"
	case ResvLimited:
		return "limited"
	case ResvSerial:
		return "serial"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// ResvState is the memory-side reservation state for one block.
type ResvState struct {
	Scheme ResvScheme
	Limit  int // ResvLimited only; must be >= 1

	holders Bitset
	serial  arch.Word

	// dormant marks state retained across a Directory.Reset that no
	// load_linked / store_conditional has touched again yet. A fresh
	// machine creates reservation state lazily at the first such touch, so
	// writes before that point never advance the serial; a dormant state
	// ignores OnWrite the same way, keeping a reused machine's serials
	// equal to a fresh machine's.
	dormant bool
}

// NewResvState returns reservation state for the given scheme. Limit is
// used only by ResvLimited and must be at least 1 there.
func NewResvState(scheme ResvScheme, limit int) *ResvState {
	if scheme == ResvLimited && limit < 1 {
		panic("dir: ResvLimited requires limit >= 1")
	}
	return &ResvState{Scheme: scheme, Limit: limit}
}

// Reset clears all reservations and the write serial, returning the state
// to its post-New value. The scheme and limit are retained; callers whose
// configuration changed between runs must replace the state instead (see
// HomeCtl.reservations).
func (r *ResvState) Reset() {
	r.holders = 0
	r.serial = 0
	r.dormant = true
}

// Wake marks retained state as live again, the moment that corresponds to
// lazy creation on a fresh machine. The protocol calls it when an LL/SC
// touches the block.
func (r *ResvState) Wake() { r.dormant = false }

// Reserve records a reservation for node n at a load_linked. It returns
// false when the scheme refuses the reservation (ResvLimited beyond the
// limit), which the protocol surfaces to the processor as a failure hint.
// Under ResvSerial there is nothing to record and Reserve always succeeds.
func (r *ResvState) Reserve(n mesh.NodeID) bool {
	switch r.Scheme {
	case ResvBitVector:
		r.holders.Add(n)
		return true
	case ResvLimited:
		if r.holders.Has(n) {
			return true
		}
		if r.holders.Count() >= r.Limit {
			return false
		}
		r.holders.Add(n)
		return true
	case ResvSerial:
		return true
	}
	panic("dir: unknown reservation scheme")
}

// Holders returns the current reservation holders (explicit schemes).
func (r *ResvState) Holders() Bitset { return r.holders }

// Serial returns the block's current write serial number (ResvSerial).
func (r *ResvState) Serial() arch.Word { return r.serial }

// OnWrite records that the block was written (an ordinary store, atomic
// update, or successful store_conditional): all explicit reservations are
// invalidated and the serial number advances. Wrap-around of the 32-bit
// serial is harmless in practice (the paper argues 32 bits suffice); the
// simulator allows it.
func (r *ResvState) OnWrite() {
	if r.dormant {
		return
	}
	r.holders = 0
	r.serial++
}

// Validate reports whether a store_conditional by node n carrying expected
// serial s should succeed, without modifying state. The serial argument is
// ignored by the explicit schemes, and n is ignored by ResvSerial.
func (r *ResvState) Validate(n mesh.NodeID, s arch.Word) bool {
	switch r.Scheme {
	case ResvBitVector, ResvLimited:
		return r.holders.Has(n)
	case ResvSerial:
		return r.serial == s
	}
	panic("dir: unknown reservation scheme")
}
