// Package rng is a tiny, allocation-free xorshift64* generator.
//
// Benchmark workers and skip-list level generation need a per-thread PRNG
// with no locks and no allocation on the fast path; math/rand's global
// functions take a lock and math/rand.New allocates. This generator is the
// classic xorshift64* of Vigna, good enough for workload mixing.
package rng

// State is the generator state. The zero value is invalid; use New.
type State struct {
	x uint64
}

// New returns a generator seeded from seed (0 is remapped).
func New(seed uint64) *State {
	s := &State{}
	s.Seed(seed)
	return s
}

// Seed resets the state. A zero seed is remapped to a fixed constant
// because xorshift has an all-zero fixed point.
func (s *State) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s.x = seed
}

// Next returns the next 64-bit value.
func (s *State) Next() uint64 {
	x := s.x
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.x = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). n must be > 0.
func (s *State) Intn(n uint64) uint64 { return s.Next() % n }

// Level draws a geometric level in [1, max]: level l with probability 2^-l,
// as the paper's skip list requires (§3).
func (s *State) Level(max int) int {
	lvl := 1
	for lvl < max && s.Next()&1 == 0 {
		lvl++
	}
	return lvl
}

// Level4 draws a geometric level in [1, max] with p = ¼: level l with
// probability ¾·4^-(l-1), from one Next (max ≤ 32). A quarter as many
// towers reach each level as under Level, which is what an index sized in
// entries rather than in figure points wants: the mean tower is 1.33
// links instead of 2 and log₄ n levels are occupied instead of log₂ n.
func (s *State) Level4(max int) int {
	lvl := 1
	for r := s.Next(); lvl < max && r&3 == 0; r >>= 2 {
		lvl++
	}
	return lvl
}

// Mix is a stateless 64-bit finalizer (splitmix64) used for hashing stable
// identities into orec-table indices.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
