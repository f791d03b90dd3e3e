package arch

// Table geometry. A leaf page holds 64 slots and resolves the key's low 6
// bits; each interior level above resolves 10 more. Leaves stay small on
// purpose: most tables belong to one home node and use a few slots of each
// page, so wider leaves add memory and no speed. Interior nodes are wide so
// that keys below 2^16 take one level and any 32-bit key at most three.
const (
	leafBits = 6
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
	nodeBits = 10
	nodeSize = 1 << nodeBits
	nodeMask = nodeSize - 1
)

// Table is a sparse array of T indexed by a 32-bit key: the simulator's
// per-block and per-word state (directory entries, memory blocks, coherence
// policies, statistics records). Slots live in leaf pages allocated on first
// touch, and read as the zero T until written. A radix tree of interior
// nodes above the pages grows only as tall as the largest key needs, so
// memory stays proportional to the pages touched. A lookup is one dependent
// load per level: keys below 64 need no interior node, keys below 2^16 one.
//
// A slot's address never changes once its page exists, and pages outlive
// Clear, so a reused table touches the same pages without allocating. The
// zero value is an empty table.
type Table[T any] struct {
	// root is 1 + the index of the top node: into pages when height is 0,
	// into nodes otherwise. 0 means the table is empty.
	root   uint32
	height uint // interior levels above the pages

	// nodes holds interior nodes by value. A child entry is 1 + an index
	// into nodes, or into pages at the lowest interior level, and 0 when
	// absent; indices stay valid when the slices grow.
	nodes [][nodeSize]uint32
	pages []*[leafSize]T
	first []uint32 // first[i] is the key of pages[i][0]
}

// covers reports whether key k fits under the current root.
func (t *Table[T]) covers(k uint32) bool {
	return k>>(nodeBits*t.height)>>leafBits == 0
}

// Get returns the slot for key k, or nil if its page was never touched.
func (t *Table[T]) Get(k uint32) *T {
	s := nodeBits * t.height
	if k>>s>>leafBits != 0 {
		return nil
	}
	i := t.root
	for ; s > 0 && i != 0; s -= nodeBits {
		i = t.nodes[i-1][k>>(s-nodeBits+leafBits)&nodeMask]
	}
	if i == 0 {
		return nil
	}
	return &t.pages[i-1][k&leafMask]
}

// At returns the slot for key k, allocating its page (and the interior
// nodes above it) on first touch.
func (t *Table[T]) At(k uint32) *T {
	if p := t.Get(k); p != nil {
		return p
	}
	return t.fill(k)
}

// fill is At's first-touch path: it raises the root until it covers k, then
// allocates whatever is missing on the path down to k's page.
func (t *Table[T]) fill(k uint32) *T {
	for !t.covers(k) {
		if t.root != 0 {
			t.nodes = append(t.nodes, [nodeSize]uint32{t.root})
			t.root = uint32(len(t.nodes))
		}
		t.height++
	}
	if t.root == 0 {
		t.root = t.grow(k, t.height == 0)
	}
	i := t.root
	for s := nodeBits * t.height; s > 0; s -= nodeBits {
		x := k >> (s - nodeBits + leafBits) & nodeMask
		c := t.nodes[i-1][x]
		if c == 0 {
			c = t.grow(k, s == nodeBits)
			t.nodes[i-1][x] = c
		}
		i = c
	}
	return &t.pages[i-1][k&leafMask]
}

// grow appends a leaf page holding key k, or an empty interior node, and
// returns its 1-based index.
func (t *Table[T]) grow(k uint32, leaf bool) uint32 {
	if leaf {
		t.pages = append(t.pages, new([leafSize]T))
		t.first = append(t.first, k&^leafMask)
		return uint32(len(t.pages))
	}
	t.nodes = append(t.nodes, [nodeSize]uint32{})
	return uint32(len(t.nodes))
}

// Each calls fn for every slot of every touched page: page by page in the
// order the pages were first touched, and by increasing key within a page.
func (t *Table[T]) Each(fn func(k uint32, v *T)) {
	for i, p := range t.pages {
		for j := range p {
			fn(t.first[i]+uint32(j), &p[j])
		}
	}
}

// Clear zeroes every slot, keeping the pages.
func (t *Table[T]) Clear() {
	for _, p := range t.pages {
		*p = [leafSize]T{}
	}
}
