// Package cache implements the per-node set-associative write-back cache of
// the simulated machine, including the cache-side load_linked reservation
// (one reservation bit plus one reservation address register per processor,
// as on the MIPS R4000).
package cache

import (
	"fmt"

	"dsm/internal/arch"
)

// State is the coherence state of a cached line.
type State uint8

const (
	// Invalid: the line holds no valid data.
	Invalid State = iota
	// SharedRO: a read-only copy; other caches may also hold copies and
	// memory is current. Under the UPD policy all cached copies are in
	// this state.
	SharedRO
	// ExclusiveRW: the only cached copy, writable, possibly dirty with
	// respect to memory (the directory records this cache as owner).
	ExclusiveRW
)

// String returns a short state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case SharedRO:
		return "S"
	case ExclusiveRW:
		return "E"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Line is one cache line.
type Line struct {
	Base  arch.Addr // block base address; valid only when State != Invalid
	State State
	Data  arch.BlockData

	lastUse uint64 // LRU timestamp
	epoch   uint64 // validity generation; line is live only when it matches the cache's
}

// Word returns the word at address a, which must fall in this line.
func (l *Line) Word(a arch.Addr) arch.Word {
	arch.CheckWordAligned(a)
	if arch.BlockBase(a) != l.Base {
		panic(fmt.Sprintf("cache: address %#x not in line %#x", a, l.Base))
	}
	return l.Data[arch.WordIndex(a)]
}

// SetWord stores v at address a, which must fall in this line.
func (l *Line) SetWord(a arch.Addr, v arch.Word) {
	arch.CheckWordAligned(a)
	if arch.BlockBase(a) != l.Base {
		panic(fmt.Sprintf("cache: address %#x not in line %#x", a, l.Base))
	}
	l.Data[arch.WordIndex(a)] = v
}

// Config describes cache geometry.
type Config struct {
	Sets  int // number of sets; power of two
	Assoc int // ways per set
}

// DefaultConfig is a 64 KiB 4-way cache of 32-byte lines (512 sets).
func DefaultConfig() Config { return Config{Sets: 512, Assoc: 4} }

// Stats aggregates cache activity observed by the controller.
type Stats struct {
	Evictions      uint64 `json:"evictions"`       // lines displaced by fills
	DirtyEvictions uint64 `json:"dirty_evictions"` // displaced lines that required write-back
}

// pageBits is log2 of the sets in one line page: 8 sets, which is 32 lines
// (~1.8 KB) of a default-geometry cache. A cache with fewer sets has one
// page, holding all of them.
const (
	pageBits = 3
	pageMask = 1<<pageBits - 1
)

// Cache is one node's cache array. It is a passive structure: the coherence
// controller in internal/core decides what to insert, invalidate, and write
// back; Cache only tracks contents and LRU order.
//
// Lines live in pages of 1<<pageBits consecutive sets, allocated by the
// first Insert into one of their sets. A contended run touches a few lines
// per cache, so a machine pays for those pages rather than for every line.
type Cache struct {
	cfg   Config
	pages [][]Line // set si is in pages[si>>pageBits]; nil until an Insert lands in it
	clock uint64
	stats Stats

	// epoch is the current line-validity generation: a line is live only
	// when line.epoch == epoch. Reset advances it instead of zeroing the
	// pages, so between-run invalidation is O(1) and a reused cache keeps
	// the pages it filled before.
	epoch uint64

	// Cache-side LL/SC reservation: one bit and one address register.
	resvValid bool
	resvAddr  arch.Addr // block base

	// victim is scratch space for the *Victim returned by Insert and
	// Invalidate, so displacing a line never allocates. The returned
	// pointer is valid only until the next Insert or Invalidate call.
	victim Victim
}

// Init (re)initializes a cache in place, for callers that embed Cache by
// value. It panics on non-positive or non-power-of-two geometry
// (programming errors in machine assembly). No line is allocated until the
// first Insert.
func (c *Cache) Init(cfg Config) {
	if cfg.Sets <= 0 || cfg.Assoc <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: invalid geometry %+v", cfg))
	}
	*c = Cache{cfg: cfg, pages: make([][]Line, (cfg.Sets+pageMask)>>pageBits)}
}

// Reset empties the cache without touching its pages: it advances the
// validity epoch (invalidating every line in O(1)), rewinds the LRU clock,
// and clears the stats and the LL/SC reservation (bit and address). A reset
// cache behaves identically to a freshly initialized one — stale-epoch
// lines compare as free ways and never reach the LRU victim scan, and LRU
// timestamps restart from the same clock values a fresh cache would assign
// — and it keeps its pages, so refilling the same sets allocates nothing.
func (c *Cache) Reset() {
	c.epoch++
	c.clock = 0
	c.stats = Stats{}
	c.resvValid, c.resvAddr = false, 0
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setIndex(base arch.Addr) int {
	return int(arch.BlockNumber(base)) & (c.cfg.Sets - 1)
}

// set returns the ways of the set holding base, or nil if that set's page
// was never filled.
func (c *Cache) set(base arch.Addr) []Line {
	si := c.setIndex(base)
	p := c.pages[si>>pageBits]
	if p == nil {
		return nil
	}
	i := (si & pageMask) * c.cfg.Assoc
	return p[i : i+c.cfg.Assoc]
}

// fill is set for Insert: it allocates the set's page on first touch.
func (c *Cache) fill(base arch.Addr) []Line {
	if pi := c.setIndex(base) >> pageBits; c.pages[pi] == nil {
		c.pages[pi] = make([]Line, min(c.cfg.Sets, pageMask+1)*c.cfg.Assoc)
	}
	return c.set(base)
}

// Lookup returns the line holding the block containing a, or nil on miss.
// A hit refreshes the line's LRU position.
func (c *Cache) Lookup(a arch.Addr) *Line {
	base := arch.BlockBase(a)
	set := c.set(base)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.epoch == c.epoch && l.Base == base {
			c.clock++
			l.lastUse = c.clock
			return l
		}
	}
	return nil
}

// Touch refreshes the line holding the block containing a, if any, as n
// consecutive Lookup hits would.
func (c *Cache) Touch(a arch.Addr, n uint64) {
	if l := c.Peek(a); l != nil {
		c.clock += n
		l.lastUse = c.clock
	}
}

// Peek is Lookup without the LRU side effect.
func (c *Cache) Peek(a arch.Addr) *Line {
	base := arch.BlockBase(a)
	set := c.set(base)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.epoch == c.epoch && l.Base == base {
			return l
		}
	}
	return nil
}

// Victim describes a line displaced by Insert that the controller must
// handle (write back if dirty-exclusive, or notify the home for shared
// replacement hints).
type Victim struct {
	Base  arch.Addr
	State State
	Data  arch.BlockData
}

// Insert fills the block containing a with the given state and data,
// returning the displaced victim, if any. Inserting over an existing copy
// of the same block updates it in place (no victim). Filling an Invalid way
// produces no victim. The returned victim points at scratch space inside
// the cache and is overwritten by the next Insert or Invalidate.
func (c *Cache) Insert(a arch.Addr, st State, data arch.BlockData) (*Line, *Victim) {
	if st == Invalid {
		panic("cache: inserting an invalid line")
	}
	base := arch.BlockBase(a)
	set := c.fill(base)
	c.clock++

	// Same-block update in place.
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.epoch == c.epoch && l.Base == base {
			l.State = st
			l.Data = data
			l.lastUse = c.clock
			return l, nil
		}
	}
	// Free way (never filled, or left over from before a Reset).
	for i := range set {
		l := &set[i]
		if l.State == Invalid || l.epoch != c.epoch {
			*l = Line{Base: base, State: st, Data: data, lastUse: c.clock, epoch: c.epoch}
			return l, nil
		}
	}
	// Evict LRU.
	v := &set[0]
	for i := range set {
		if set[i].lastUse < v.lastUse {
			v = &set[i]
		}
	}
	c.victim = Victim{Base: v.Base, State: v.State, Data: v.Data}
	c.stats.Evictions++
	if v.State == ExclusiveRW {
		c.stats.DirtyEvictions++
	}
	if c.resvValid && c.resvAddr == v.Base {
		// Losing the reserved line clears the reservation (conservative,
		// as on real hardware).
		c.resvValid = false
	}
	*v = Line{Base: base, State: st, Data: data, lastUse: c.clock, epoch: c.epoch}
	return v, &c.victim
}

// Invalidate drops the block containing a, returning its former contents
// (nil if not present). It clears a matching LL reservation, implementing
// the paper's INV reservation semantics. The returned victim points at
// scratch space inside the cache and is overwritten by the next Insert or
// Invalidate.
func (c *Cache) Invalidate(a arch.Addr) *Victim {
	base := arch.BlockBase(a)
	l := c.Peek(base)
	if l == nil {
		if c.resvValid && c.resvAddr == base {
			c.resvValid = false
		}
		return nil
	}
	c.victim = Victim{Base: l.Base, State: l.State, Data: l.Data}
	l.State = Invalid
	if c.resvValid && c.resvAddr == base {
		c.resvValid = false
	}
	return &c.victim
}

// Downgrade moves an exclusive copy of the block containing a to SharedRO,
// returning the line (nil if not present). The controller uses this when
// the home recalls data but allows a read copy to remain.
func (c *Cache) Downgrade(a arch.Addr) *Line {
	l := c.Peek(a)
	if l == nil {
		return nil
	}
	if l.State == ExclusiveRW {
		l.State = SharedRO
	}
	return l
}

// SetReservation records a load_linked reservation on the block containing
// a, displacing any previous reservation (processors have one).
func (c *Cache) SetReservation(a arch.Addr) {
	c.resvValid = true
	c.resvAddr = arch.BlockBase(a)
}

// ClearReservation invalidates the reservation unconditionally (e.g. after
// a store_conditional, successful or not).
func (c *Cache) ClearReservation() { c.resvValid = false }

// ReservedOn reports whether a valid reservation covers the block
// containing a.
func (c *Cache) ReservedOn(a arch.Addr) bool {
	return c.resvValid && c.resvAddr == arch.BlockBase(a)
}

// ForEach calls fn for every valid line, in set order. Used by invariant
// checks and debugging dumps.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, p := range c.pages {
		for i := range p {
			l := &p[i]
			if l.State != Invalid && l.epoch == c.epoch {
				fn(l)
			}
		}
	}
}
