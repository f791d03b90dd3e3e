// Package mesh models the interconnect of the simulated multiprocessor: a
// two-dimensional wormhole-routed mesh with dimension-order routing.
//
// Following the paper's methodology, contention is modeled at the entry and
// exit of the network (the injection and ejection ports of each node's
// network interface) and at the memory modules, but not at internal routers:
// in-flight transit time is a deterministic function of distance and message
// length.
package mesh

import (
	"fmt"

	"dsm/internal/sim"
)

// NodeID identifies a processing node. Nodes are numbered row-major in the
// mesh: node id = y*Width + x.
type NodeID int

// Config holds the network timing parameters, in cycles.
type Config struct {
	Width  int // mesh X dimension
	Height int // mesh Y dimension

	HopDelay   sim.Time // router/wire delay per hop for the head flit
	FlitDelay  sim.Time // cycles per flit through a port (bandwidth)
	FlitBytes  int      // flit width in bytes
	LocalDelay sim.Time // delivery delay for same-node messages (bypass)

	// ModelRouters additionally serializes messages on every internal
	// link along the dimension-order route. The paper's methodology
	// models contention only at the network entry and exit; this mode
	// exists to test that simplification (see the router ablation
	// benchmark).
	ModelRouters bool
}

// DefaultConfig is an 8x8 mesh with timing loosely modeled on early-90s
// wormhole networks (2 cycles/hop, 8-byte flits at 1 flit/cycle/port).
func DefaultConfig() Config {
	return Config{
		Width:      8,
		Height:     8,
		HopDelay:   2,
		FlitDelay:  1,
		FlitBytes:  8,
		LocalDelay: 1,
	}
}

// Stats aggregates network traffic counters.
type Stats struct {
	Messages   uint64 `json:"messages"`    // mesh messages sent (excludes same-node bypass)
	LocalMsgs  uint64 `json:"local_msgs"`  // same-node deliveries
	Flits      uint64 `json:"flits"`       // total flits injected
	HopsTotal  uint64 `json:"hops_total"`  // sum of hop counts over messages
	InjectWait uint64 `json:"inject_wait"` // cycles messages waited for the injection port
	EjectWait  uint64 `json:"eject_wait"`  // cycles messages waited for the ejection port
	LinkWait   uint64 `json:"link_wait"`   // cycles head flits waited for internal links (ModelRouters)
}

// Mesh is the interconnect instance. It serializes messages through each
// node's injection and ejection port and delivers them by scheduling events
// on the engine.
//
// Transit never schedules per-hop events: a message's whole path is priced
// at send time from tables precomputed per (src, dst) at construction, and
// exactly one delivery event is scheduled at the computed arrival time.
// Event count per message is therefore O(1) regardless of distance.
type Mesh struct {
	cfg    Config
	eng    *sim.Engine
	inject []sim.Time // per node: injection port free at
	eject  []sim.Time // per node: ejection port free at
	// links holds, per node and outgoing direction, when that directed
	// channel to the adjacent router is next free (ModelRouters mode).
	// Indexed node*4+direction; a flat slice instead of a map keyed by
	// (from, to) pairs, since hashing per hop is pure overhead.
	links []sim.Time

	// Tables indexed by src*Nodes()+dst, filled once at construction.
	// hops is the dimension-order distance; headLat the head flit's
	// contention-free pipeline latency (hops*HopDelay), so the router-off
	// fast path prices a route with one load instead of per-send
	// coordinate arithmetic.
	hops    []int32
	headLat []sim.Time
	// In ModelRouters mode the dimension-order route of pair p is the
	// link-index sequence routeLinks[routeOff[p]:routeOff[p+1]]; walking
	// it replaces per-hop coordinate/direction recomputation with a flat
	// scan over precomputed links indices.
	routeOff   []int32
	routeLinks []int32

	stats Stats
}

// Outgoing link directions from a router (ModelRouters mode).
const (
	dirEast  = iota // +x
	dirWest         // -x
	dirSouth        // +y (row-major: higher y)
	dirNorth        // -y
	numDirs
)

// New creates a mesh over the given engine. It panics on a non-positive
// geometry, which indicates a programming error in machine assembly.
func New(eng *sim.Engine, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("mesh: invalid geometry %dx%d", cfg.Width, cfg.Height))
	}
	n := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:     cfg,
		eng:     eng,
		inject:  make([]sim.Time, n),
		eject:   make([]sim.Time, n),
		links:   make([]sim.Time, n*numDirs),
		hops:    make([]int32, n*n),
		headLat: make([]sim.Time, n*n),
	}
	for src := 0; src < n; src++ {
		sx, sy := m.Coord(NodeID(src))
		for dst := 0; dst < n; dst++ {
			dx, dy := m.Coord(NodeID(dst))
			h := abs(sx-dx) + abs(sy-dy)
			p := src*n + dst
			m.hops[p] = int32(h)
			m.headLat[p] = sim.Time(h) * cfg.HopDelay
		}
	}
	if cfg.ModelRouters {
		m.buildRoutes(n)
	}
	return m
}

// buildRoutes precomputes, for every (src, dst) pair, the directed link
// indices along the dimension-order route (X then Y), concatenated into one
// slab. Only ModelRouters mode walks routes, so the tables are built only
// then.
func (m *Mesh) buildRoutes(n int) {
	m.routeOff = make([]int32, n*n+1)
	total := 0
	for p := range m.hops {
		total += int(m.hops[p])
	}
	m.routeLinks = make([]int32, 0, total)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			m.routeOff[src*n+dst] = int32(len(m.routeLinks))
			sx, sy := m.Coord(NodeID(src))
			dx, dy := m.Coord(NodeID(dst))
			cur := src
			xd, xdir := sign(dx-sx), dirEast
			if dx < sx {
				xdir = dirWest
			}
			for x := sx; x != dx; x += xd {
				m.routeLinks = append(m.routeLinks, int32(cur*numDirs+xdir))
				cur = sy*m.cfg.Width + x + xd
			}
			yd, ydir := sign(dy-sy), dirSouth
			if dy < sy {
				ydir = dirNorth
			}
			for y := sy; y != dy; y += yd {
				m.routeLinks = append(m.routeLinks, int32(cur*numDirs+ydir))
				cur = (y+yd)*m.cfg.Width + dx
			}
		}
	}
	m.routeOff[n*n] = int32(len(m.routeLinks))
}

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Stats returns a snapshot of the traffic counters.
func (m *Mesh) Stats() Stats { return m.stats }

// Reset returns the mesh to its post-New state: all port and link
// reservations released and traffic counters cleared. The route and latency
// tables depend only on geometry and are kept. Reset is only valid between
// runs, with no messages in flight.
func (m *Mesh) Reset() {
	clear(m.inject)
	clear(m.eject)
	clear(m.links)
	m.stats = Stats{}
}

// Coord returns the (x, y) position of a node.
func (m *Mesh) Coord(n NodeID) (x, y int) {
	return int(n) % m.cfg.Width, int(n) / m.cfg.Width
}

// Flits returns the number of flits occupied by a message carrying
// payload bytes plus an 8-byte header, rounded up to whole flits.
func (m *Mesh) Flits(payloadBytes int) int {
	const headerBytes = 8
	total := headerBytes + payloadBytes
	f := (total + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// SendArg transmits a message of the given flit count from src to dst and
// invokes deliver(arg) when the tail flit has been ejected at the
// destination. Same-node messages bypass the network after LocalDelay. The
// handler and its payload travel separately, so with a preallocated handler
// and a pointer payload a send allocates nothing — this is the protocol
// layer's hot path. SendArg panics on an out-of-range node id or
// non-positive flit count (programming errors).
func (m *Mesh) SendArg(src, dst NodeID, flits int, deliver func(any), arg any) {
	m.eng.AtArg(m.transit(src, dst, flits), deliver, arg)
}

// transit books the message through the ports (and, in ModelRouters mode,
// the internal links) and returns the absolute delivery time.
func (m *Mesh) transit(src, dst NodeID, flits int) sim.Time {
	if int(src) < 0 || int(src) >= m.Nodes() || int(dst) < 0 || int(dst) >= m.Nodes() {
		panic(fmt.Sprintf("mesh: send %d->%d outside %d-node mesh", src, dst, m.Nodes()))
	}
	if flits <= 0 {
		panic("mesh: non-positive flit count")
	}
	now := m.eng.Now()
	if src == dst {
		m.stats.LocalMsgs++
		return now + m.cfg.LocalDelay
	}

	p := int(src)*m.Nodes() + int(dst)
	m.stats.Messages++
	m.stats.Flits += uint64(flits)
	m.stats.HopsTotal += uint64(m.hops[p])

	// Injection port: the message occupies the port for flits*FlitDelay.
	injStart := now
	if m.inject[src] > injStart {
		m.stats.InjectWait += uint64(m.inject[src] - injStart)
		injStart = m.inject[src]
	}
	serialize := sim.Time(flits) * m.cfg.FlitDelay
	m.inject[src] = injStart + serialize

	// Wormhole transit: head flit pipeline through the routers, priced
	// from the precomputed tables.
	var headArrive sim.Time
	if m.cfg.ModelRouters {
		headArrive = m.routeThrough(p, injStart, serialize)
	} else {
		headArrive = injStart + m.headLat[p]
	}

	// Ejection port: serialize the whole message out of the network.
	ejStart := headArrive
	if m.eject[dst] > ejStart {
		m.stats.EjectWait += uint64(m.eject[dst] - ejStart)
		ejStart = m.eject[dst]
	}
	done := ejStart + serialize
	m.eject[dst] = done
	return done
}

// routeThrough walks the precomputed dimension-order route of pair p,
// serializing the message on each directed link; it returns the head
// flit's arrival time at the destination router. This is the only per-hop
// loop in the simulator, exists solely for the router-contention ablation,
// and still schedules no events — contention is priced inline against the
// link reservation times.
func (m *Mesh) routeThrough(p int, depart, serialize sim.Time) sim.Time {
	t := depart
	for _, idx := range m.routeLinks[m.routeOff[p]:m.routeOff[p+1]] {
		start := t
		if m.links[idx] > start {
			m.stats.LinkWait += uint64(m.links[idx] - start)
			start = m.links[idx]
		}
		m.links[idx] = start + serialize
		t = start + m.cfg.HopDelay
	}
	return t
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
