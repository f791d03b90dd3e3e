// Package proto is the protocol vocabulary and transition tables of the
// paper's coherence machines, expressed as data rather than code.
//
// The package owns the enumerations shared by every layer — coherence
// policies, compare_and_swap variants, processor operations, and message
// kinds — and, in tables.go, the guarded-action transition tables that
// define what the cache and home controllers do for each (state, event)
// pair. internal/core interprets the tables against the simulated machine
// (caches, directory, mesh), and its model checker explores every
// interleaving of small configurations through those same controllers, so
// the checked protocol is the simulated protocol.
package proto

import "fmt"

// Policy is the coherence policy applied to a block of atomically accessed
// data. Ordinary data always uses PolicyINV (the machine's base protocol).
type Policy uint8

const (
	// PolicyINV caches sync data under write-invalidate; atomic operations
	// execute in the cache controller on an exclusive copy.
	PolicyINV Policy = iota
	// PolicyUPD caches sync data read-only under write-update; atomic
	// operations execute at the home memory, which multicasts updates.
	PolicyUPD
	// PolicyUNC disables caching; all operations execute at the home
	// memory.
	PolicyUNC

	// NumPolicies bounds arrays indexed by Policy.
	NumPolicies = 3
)

// String returns the name used in figures ("INV", "UPD", "UNC").
func (p Policy) String() string {
	switch p {
	case PolicyINV:
		return "INV"
	case PolicyUPD:
		return "UPD"
	case PolicyUNC:
		return "UNC"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// CASVariant selects among the paper's INV-policy compare_and_swap
// implementations.
type CASVariant uint8

const (
	// CASPlain always migrates an exclusive copy to the requester (INV).
	CASPlain CASVariant = iota
	// CASDeny (INVd) compares at the home or owner; on failure the
	// requester gets no cached copy.
	CASDeny
	// CASShare (INVs) compares at the home or owner; on failure the
	// requester gets a read-only copy.
	CASShare
)

// String returns the name used in figures.
func (v CASVariant) String() string {
	switch v {
	case CASPlain:
		return "INV"
	case CASDeny:
		return "INVd"
	case CASShare:
		return "INVs"
	}
	return fmt.Sprintf("CASVariant(%d)", uint8(v))
}

// OpKind identifies a processor-issued memory operation.
type OpKind uint8

const (
	OpLoad OpKind = iota
	OpStore
	OpLoadExclusive
	OpDropCopy
	OpFetchAdd
	OpFetchStore
	OpFetchOr
	OpTestAndSet
	OpCAS
	OpLL
	OpSC

	// NumOps bounds arrays indexed by OpKind.
	NumOps = 11
)

var opNames = [NumOps]string{
	OpLoad: "load", OpStore: "store", OpLoadExclusive: "load_exclusive",
	OpDropCopy: "drop_copy", OpFetchAdd: "fetch_and_add",
	OpFetchStore: "fetch_and_store", OpFetchOr: "fetch_and_or",
	OpTestAndSet: "test_and_set", OpCAS: "compare_and_swap",
	OpLL: "load_linked", OpSC: "store_conditional",
}

// String returns the primitive's conventional name.
func (o OpKind) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(o))
}

// IsAtomic reports whether the operation is one of the atomic primitives
// (as opposed to an ordinary load/store or auxiliary instruction).
func (o OpKind) IsAtomic() bool {
	switch o {
	case OpFetchAdd, OpFetchStore, OpFetchOr, OpTestAndSet, OpCAS, OpLL, OpSC:
		return true
	}
	return false
}

// Writes reports whether the operation (when it succeeds) writes memory.
func (o OpKind) Writes() bool {
	switch o {
	case OpStore, OpFetchAdd, OpFetchStore, OpFetchOr, OpTestAndSet, OpCAS, OpSC:
		return true
	}
	return false
}

// MsgKind enumerates every protocol message.
type MsgKind uint8

const (
	// Requests, cache controller -> home.
	KRead    MsgKind = iota // read miss, wants a shared copy
	KReadEx                 // store/atomic/load_exclusive, wants an exclusive copy
	KCASHome                // INVd/INVs compare_and_swap at home/owner
	KSCHome                 // store_conditional check at home
	KWB                     // write-back of an exclusive copy (eviction or drop_copy)
	KDropS                  // replacement/drop hint from a shared-copy holder
	KUncOp                  // UNC-policy operation to be executed at memory
	KUpdRead                // UPD-policy read miss
	KUpdOp                  // UPD-policy write/atomic to be executed at memory

	// Replies, home -> requesting cache controller.
	KDataS    // shared copy grant (also UPD read-miss reply)
	KDataE    // exclusive copy grant; Acks invalidation acks to expect
	KNak      // negative acknowledgment; requester retries
	KCASFail  // INVd/INVs failure (HasData distinguishes INVs)
	KSCFail   // store_conditional failure determined at home
	KUncReply // UNC operation result
	KUpdReply // UPD operation result; Acks update acks to expect

	// Coherence traffic.
	KInval     // home -> sharer: invalidate; ack to Requester
	KInvAck    // sharer -> requester
	KRecallE   // home -> owner: surrender exclusive copy for a waiting request
	KRecallS   // home -> owner: downgrade to shared for a waiting read
	KCASFwd    // home -> owner: compare at owner (INVd/INVs)
	KWBRecall  // owner -> home: data in response to KRecallE/successful KCASFwd
	KWBShare   // owner -> home: data, owner kept a shared copy (KRecallS/INVs fail)
	KRecallNak // owner -> home: recalled line no longer present (write-back races)
	KCASRel    // owner -> home: INVd failure handled at owner; clear busy state
	KUpdate    // home -> sharer: UPD write of one word; ack to Requester
	KUpdAck    // sharer -> requester

	// NumMsgKinds bounds arrays indexed by MsgKind.
	NumMsgKinds = 27
)

var msgNames = [NumMsgKinds]string{
	KRead: "read", KReadEx: "read-ex", KCASHome: "cas-home", KSCHome: "sc-home",
	KWB: "wb", KDropS: "drop-s", KUncOp: "unc-op", KUpdRead: "upd-read",
	KUpdOp: "upd-op", KDataS: "data-s", KDataE: "data-e", KNak: "nak",
	KCASFail: "cas-fail", KSCFail: "sc-fail", KUncReply: "unc-reply",
	KUpdReply: "upd-reply", KInval: "inval", KInvAck: "inv-ack",
	KRecallE: "recall-e", KRecallS: "recall-s", KCASFwd: "cas-fwd",
	KWBRecall: "wb-recall", KWBShare: "wb-share", KRecallNak: "recall-nak",
	KCASRel: "cas-rel", KUpdate: "update", KUpdAck: "upd-ack",
}

// String returns the short name used in traces and the table dump.
func (k MsgKind) String() string {
	if int(k) < len(msgNames) {
		return msgNames[k]
	}
	return "msg?"
}

// IsRequest reports whether the kind is a home-bound request that the busy
// state may retain for replay (and that the home NAKs while busy).
func (k MsgKind) IsRequest() bool {
	switch k {
	case KRead, KReadEx, KCASHome, KSCHome, KUncOp, KUpdRead, KUpdOp:
		return true
	}
	return false
}
