package fault

// Seeded streams. Every random stream of the simulation stack comes from a
// Source: the generator math/rand.NewSource returns, reproduced bit for
// bit, but seeded by jump-ahead instead of a 1,841-step loop.
//
// math/rand's Seed(s) reduces s mod M = 2^31−1 (a seed ≡ 0 becomes
// 89482311), steps the Park–Miller generator x ← 48271·x mod M twenty
// times, and then sets register word i to
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// Because x[k] = x[0]·48271^k mod M, each word is three independent
// products of x[0] against a table of powers, built once on first use.
// Each product is reduced by the Mersenne fold (p & M) + (p >> 31) and one
// conditional subtract: with x[0] and the power both in [1, M), p < 2^62
// folds to [0, 2M), and M's primality keeps the residue nonzero, as
// math/rand's Schrage step keeps it. So the words come out equal, with no
// division and no dependency chain between them.
//
// Population builds seed two or three streams per node. PooledRand hands
// them a recycled generator, and (*rand.Rand).Seed resets its whole state
// from one domain to the next, so a build allocates no register per node.

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	seedMod  = 1<<31 - 1 // M, the Park–Miller modulus
	seedMul  = 48271
	seedZero = 89482311 // math/rand's seed for a seed ≡ 0 (mod M)
	seedSkip = 21       // x index of word 0's first part
)

// seedPowers holds 48271^k mod M for every k a register word reads.
var (
	seedPowersOnce sync.Once
	seedPowers     [seedSkip + 3*rngLen]uint32
)

// mulMod returns x·y mod M for x, y in [1, M).
func mulMod(x, y uint64) uint64 {
	p := x * y
	p = p&seedMod + p>>31
	if p >= seedMod {
		p -= seedMod
	}
	return p
}

func powers() *[seedSkip + 3*rngLen]uint32 {
	seedPowersOnce.Do(func() {
		x := uint64(1)
		for k := range seedPowers {
			seedPowers[k] = uint32(x)
			x = mulMod(x, seedMul)
		}
	})
	return &seedPowers
}

// Source is a rand.Source64 whose streams equal math/rand's: for every
// seed, rand.New(NewSource(seed)) draws what rand.New(rand.NewSource(seed))
// draws, through every method. It is not safe for concurrent use.
type Source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state math/rand's source takes for
// seed, filling the register by jump-ahead (see the section comment).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	x, pow := uint64(seed), powers()
	for i := range s.vec {
		k := seedSkip + 3*i
		u := mulMod(x, uint64(pow[k]))<<40 ^ mulMod(x, uint64(pow[k+1]))<<20 ^ mulMod(x, uint64(pow[k+2]))
		s.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// The draw path below is math/rand's (src/math/rand/rng.go), copied
// verbatim under the Go license noted in rngcooked.go.

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a non-negative pseudo-random 64-bit integer as a uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// rands recycles the generators of population builds.
var rands = sync.Pool{New: func() any { return rand.New(new(Source)) }}

// PooledRand returns a recycled generator seeded with seed. Re-seed it
// per domain with (*rand.Rand).Seed, and hand it back with ReleaseRand
// once no draw is left.
func PooledRand(seed int64) *rand.Rand {
	r := rands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// ReleaseRand returns a generator from PooledRand to the pool.
func ReleaseRand(r *rand.Rand) { rands.Put(r) }
