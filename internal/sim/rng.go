package sim

// RNG is a small deterministic pseudo-random number generator
// (xorshift64*), used for backoff jitter and workload generation so that
// simulations are reproducible across runs and platforms.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant (xorshift state must be non-zero).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator in place to the stream NewRNG(seed) produces.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ForkInto seeds dst with an independent stream derived from r's next draw
// and salt, useful for giving each simulated processor its own stream
// without cross-coupling. It reuses dst's storage instead of allocating.
func (r *RNG) ForkInto(dst *RNG, salt uint64) {
	dst.Seed(r.Uint64() ^ (salt+1)*0xbf58476d1ce4e5b9)
}
