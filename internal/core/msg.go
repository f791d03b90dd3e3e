package core

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/sim"
)

// msg is one protocol message. A single struct covers all kinds (proto's
// MsgKind, whose String names the message in traces); unused fields are
// zero.
//
// Messages are recycled through the owning System's free list: newMsg
// produces one, and the controller that consumes a message returns it with
// freeMsg. Ownership transfers with delivery — the receiver frees the
// message unless it retains it (the home's busy state keeps the original
// request across a recall). Every creation site fully overwrites the struct
// (*m = msg{...}), so recycled messages carry no stale fields.
type msg struct {
	kind proto.MsgKind
	addr arch.Addr   // word address of the operation (block derived)
	src  mesh.NodeID // sender
	// Requester is the node whose processor issued the transaction this
	// message belongs to (acks from third parties flow directly to it).
	requester mesh.NodeID

	op         proto.OpKind // original operation (requests and replies)
	val, val2  arch.Word
	data       arch.BlockData // block payload for data-bearing kinds
	hasData    bool
	acks       int       // KDataE/KUpdReply: acknowledgments to expect
	ok         bool      // operation success (CAS/SC), or compare outcome
	serial     arch.Word // LL serial number (serial reservation scheme)
	hint       bool      // LL beyond-limit failure hint
	updWord    arch.Word // KUpdate: new value of the word at addr
	chain      int       // serialized network messages so far (Table 1)
	forwardVal arch.Word // KCASFwd/KRecallE carry the original operand

	// Delayed-send routing: a controller that must respond one local step
	// after receiving (modeling its occupancy) builds the reply immediately
	// and schedules it through its preallocated send hook; the reply itself
	// carries where it is bound (see CacheCtl.sendLater).
	dst    mesh.NodeID
	toHome bool

	freed bool // double-free guard for the pool
}

// newMsg returns a zeroed message from the free list (or a fresh one).
func (s *System) newMsg() *msg {
	if n := len(s.msgPool); n > 0 {
		m := s.msgPool[n-1]
		s.msgPool[n-1] = nil
		s.msgPool = s.msgPool[:n-1]
		m.freed = false
		return m
	}
	return &msg{}
}

// freeMsg recycles a consumed message. Freeing the same message twice is a
// protocol-ownership bug and panics.
func (s *System) freeMsg(m *msg) {
	if m.freed {
		panic(fmt.Sprintf("core: double free of %v message for %#x", m.kind, m.addr))
	}
	m.freed = true
	s.msgPool = append(s.msgPool, m)
}

// payloadBytes estimates the message payload size for flit accounting:
// 8 bytes of address/operands for control messages, plus the 32-byte block
// for data-bearing messages (the paper's serial-number scheme notes that
// LL/SC message sizes grow by the serial size; we include 4 bytes for it).
func (m *msg) payloadBytes() int {
	n := 8
	switch m.kind {
	case proto.KCASHome, proto.KUncOp, proto.KUpdOp, proto.KCASFwd:
		n = 16 // two operands
	}
	if m.hasData {
		n += arch.BlockBytes
	}
	if m.serial != 0 || m.kind == proto.KUncReply || m.kind == proto.KUpdReply {
		n += 4
	}
	return n
}

// send routes a message and invokes the destination controller's handler on
// delivery, maintaining the serialized-chain count. All sends go through
// here so chain accounting cannot be forgotten. Delivery is scheduled
// through the destination controller's preallocated receive hook, so a send
// allocates nothing.
func (s *System) send(src, dst mesh.NodeID, m *msg, toHome bool) {
	m.src = src
	m.chain += s.net(src, dst)
	if s.tracer != nil {
		s.trace(src, "send", "%v -> n%02d addr=%#x chain=%d", m.kind, dst, m.addr, m.chain)
	}
	s.network.send(src, dst, m, toHome)
}

// network is the deferred work whose order the clock decides in the
// simulator: message delivery and the retry of a NAKed request. The
// simulator plugs in meshNet; the model checker plugs in per-destination
// FIFO queues and chooses the order itself, over the same controllers.
type network interface {
	send(src, dst mesh.NodeID, m *msg, toHome bool)
	retry(c *CacheCtl, delay sim.Time)
}

// meshNet delivers through the mesh and retries on the engine clock.
type meshNet struct{ s *System }

func (n meshNet) send(src, dst mesh.NodeID, m *msg, toHome bool) {
	s := n.s
	flits := s.mesh.Flits(m.payloadBytes())
	if toHome {
		s.mesh.SendArg(src, dst, flits, s.homes[dst].recvHook, m)
	} else {
		s.mesh.SendArg(src, dst, flits, s.caches[dst].recvHook, m)
	}
}

func (n meshNet) retry(c *CacheCtl, delay sim.Time) { n.s.eng.After(delay, c.startFn) }
