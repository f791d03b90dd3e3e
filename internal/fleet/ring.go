package fleet

import (
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per backend. More vnodes smooth the
// load split (the std-dev of a backend's arc share falls as
// 1/sqrt(vnodes)) at the cost of a larger sorted table; 128 keeps a
// 4-backend ring's imbalance under a few percent while lookups stay two
// cache lines of binary search.
const vnodes = 128

// ring is a consistent-hash ring over the backend list: each backend owns
// vnodes points on a uint64 circle, and a key belongs to the first point at
// or clockwise of its own hash. Placement depends only on the backend
// *names*, not their list order or count, which is the property the fleet
// needs: adding or removing one backend remaps only the keys that backend
// owned (~1/N of the space), instead of reshuffling everything the way
// `hash % N` would.
type ring struct {
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the circle and the index of
// the backend that owns it.
type ringPoint struct {
	hash    uint64
	backend int
}

// newRing places vnodes points per backend. Backend names must be
// distinct; identical names would stack their points and break ownership.
func newRing(backends []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(backends)*vnodes)}
	for i, b := range backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(b + "#" + strconv.Itoa(v)), backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on backend index so the sort,
		// and therefore ownership, is deterministic.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// hash64 is FNV-1a over s with a murmur-style avalanche finalizer. FNV
// alone diffuses trailing bytes into the high bits poorly, and the ring
// partitions on the *top* of the hash space — vnode labels that differ
// only in their numeric suffix would cluster on one arc. The finalizer
// spreads every input bit across the word; cryptographic strength is not
// needed (spec keys are already SHA-256 hex). FNV-1a is inlined (same
// constants as hash/fnv) so hashing a key allocates nothing.
func hash64(s string) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the index of the backend owning key: the owner of the
// first vnode at or clockwise of the key's hash.
func (r *ring) owner(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].backend
}
