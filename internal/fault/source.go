package fault

// Seeded streams. Every random stream of the simulation stack comes from a
// Source: the generator math/rand.NewSource returns, reproduced bit for
// bit, but seeded in O(1) and filled lazily.
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
// Any word can therefore be computed alone, and the first draws need only
// a few. Draw d adds the words at feed = 334−d and tap = 607−d and stores
// the sum at feed, so draws 1 to 273 read only words that no draw has
// written yet: draw d is w[334−d] + w[607−d]. Seed keeps only x[0], and
// those draws compute their two words on demand. The 274th draw, whose
// tap reads the word draw 1 wrote, materializes the register once, folds
// in the 273 sums already served, and continues on math/rand's own draw
// path. A re-seed returns the source to lazy draws and keeps the
// register's allocation for its next materialization.
//
// Population nodes seed a fresh source per stream and mostly stop short of
// the 274th draw: a fleet node's sky draws at most about 270 values and
// its trims four. So a node holds 40 bytes per stream, not a 4.9 KB
// register, and seeding costs no more than reducing the seed.

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
// draws, through every method. The zero value is unseeded: call Seed
// before the first draw. It is not safe for concurrent use.
type Source struct {
	tap  int            // index into vec
	feed int            // index into vec
	vec  *[rngLen]int64 // feedback register, allocated at the first materialization
	x    uint64         // x[0], the reduced seed
	lazy bool           // vec is not this seed's yet: draws compute their words
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state math/rand's source takes for
// seed. It keeps only the reduced seed; draws compute the register's
// words from it (see the section comment).
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
	s.x = uint64(seed)
	s.lazy = true
}

// word returns word i of the register as seeded; pow is powers().
func (s *Source) word(pow *[seedSkip + 3*rngLen]uint32, i int) int64 {
	k := seedSkip + 3*i
	u := mulMod(s.x, uint64(pow[k]))<<40 ^ mulMod(s.x, uint64(pow[k+1]))<<20 ^ mulMod(s.x, uint64(pow[k+2]))
	return int64(u) ^ rngCooked[i]
}

// materialize fills the register for the 274th draw: every word as
// seeded, plus the sums the first rngTap draws stored at feed 333 down to
// 61. Their taps, 606 down to 334, were still unwritten.
func (s *Source) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	pow := powers()
	for i := range s.vec {
		s.vec[i] = s.word(pow, i)
	}
	for f := rngLen - 2*rngTap; f < rngLen-rngTap; f++ {
		s.vec[f] += s.vec[f+rngTap]
	}
	s.tap = s.feed + rngTap
	s.lazy = false
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a non-negative pseudo-random 64-bit integer as a uint64.
// The first rngTap draws after a seed sum two words computed on demand;
// from the register on, the draw path is math/rand's
// (src/math/rand/rng.go), copied verbatim under the Go license noted in
// rngcooked.go.
func (s *Source) Uint64() uint64 {
	if s.lazy {
		if s.feed > rngLen-2*rngTap {
			s.feed--
			pow := powers()
			return uint64(s.word(pow, s.feed) + s.word(pow, s.feed+rngTap))
		}
		s.materialize()
	}

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
