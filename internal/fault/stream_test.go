package fault_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fault"
)

// streamDraws exceeds two register lengths (2·607), so a parity run
// covers both wrap-arounds of the feed and tap indices.
const streamDraws = 1400

// drawIntn are Intn bounds on both of its paths: Int31n below 2^31,
// Int63n above. The Int63n bounds exist only where int has 64 bits.
var drawIntn = intnBounds()

func intnBounds() []int {
	bounds := []int{1, 7, 1000, 1<<31 - 1}
	if strconv.IntSize == 64 {
		for _, b := range []int64{1 << 31, 1<<40 + 3} {
			bounds = append(bounds, int(b))
		}
	}
	return bounds
}

// compareStreams draws streamDraws values from want and got, cycling
// through the rand.Rand methods the simulation stack uses, and reports the
// first mismatch.
func compareStreams(t *testing.T, label string, want, got *rand.Rand) {
	t.Helper()
	for i := 0; i < streamDraws; i++ {
		var w, g uint64
		switch i % 6 {
		case 0:
			w, g = want.Uint64(), got.Uint64()
		case 1:
			w, g = uint64(want.Int63()), uint64(got.Int63())
		case 2:
			w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
		case 3:
			n := drawIntn[i/6%len(drawIntn)]
			w, g = uint64(want.Intn(n)), uint64(got.Intn(n))
		case 4:
			w, g = math.Float64bits(want.ExpFloat64()), math.Float64bits(got.ExpFloat64())
		case 5:
			w, g = math.Float64bits(want.NormFloat64()), math.Float64bits(got.NormFloat64())
		}
		if w != g {
			t.Fatalf("%s: draw %d (method %d): fault.Source %#x, math/rand %#x", label, i, i%6, g, w)
		}
	}
}

// FuzzStreamParity: a fault.Source draws math/rand's stream for every
// seed, through every rand.Rand method the simulation stack calls, past
// both register wrap-arounds, after a re-seed through (*rand.Rand).Seed,
// and from the pool.
func FuzzStreamParity(f *testing.F) {
	const m = 1<<31 - 1
	for _, s := range []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3 * m, m - 1, m + 1, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		fault.StreamSeed(1, "node/0000000", "weather"),
		fault.StreamSeed(1, "node/0000000", "trim"),
		fault.StreamSeed(29, "scn/0003", "arrivals"),
		fault.StreamSeed(7, "serve", "http"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want, got := rand.New(rand.NewSource(seed)), rand.New(fault.NewSource(seed))
		compareStreams(t, "fresh", want, got)

		reseed := ^seed
		want.Seed(reseed)
		got.Seed(reseed)
		compareStreams(t, "re-seeded", want, got)

		pooled := fault.PooledRand(seed)
		defer fault.ReleaseRand(pooled)
		compareStreams(t, "pooled", rand.New(rand.NewSource(seed)), pooled)
	})
}

// Population builds draw pooled generators from every worker at once: each
// goroutine must still get its own seed's stream, re-seeds included.
func TestPooledRandConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				seed := fault.StreamSeed(int64(w), fmt.Sprintf("node/%07d", k), "weather")
				want, got := rand.New(rand.NewSource(seed)), fault.PooledRand(seed)
				for d := 0; d < 2*streamDraws; d++ {
					if d == streamDraws {
						want.Seed(seed + 1)
						got.Seed(seed + 1)
					}
					if x, y := want.Uint64(), got.Uint64(); x != y {
						t.Errorf("seed %d draw %d: pooled %#x, math/rand %#x", seed, d, y, x)
						break
					}
				}
				fault.ReleaseRand(got)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSeed compares seeding a register by jump-ahead with math/rand's
// sequential Park–Miller loop. Neither allocates: both re-seed one source.
func BenchmarkSeed(b *testing.B) {
	b.Run("fault.Source", func(b *testing.B) {
		src := fault.NewSource(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
