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

// draw calls method m (0–5, the rand.Rand methods the simulation stack
// uses) on want and got and returns both results' bits; k picks the Intn
// bound.
func draw(m, k int, want, got *rand.Rand) (w, g uint64) {
	switch m {
	case 0:
		return want.Uint64(), got.Uint64()
	case 1:
		return uint64(want.Int63()), uint64(got.Int63())
	case 2:
		return math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
	case 3:
		n := drawIntn[k%len(drawIntn)]
		return uint64(want.Intn(n)), uint64(got.Intn(n))
	case 4:
		return math.Float64bits(want.ExpFloat64()), math.Float64bits(got.ExpFloat64())
	default:
		return math.Float64bits(want.NormFloat64()), math.Float64bits(got.NormFloat64())
	}
}

// compareStreams draws streamDraws values from want and got, cycling
// through the rand.Rand methods the simulation stack uses, and reports the
// first mismatch.
func compareStreams(t *testing.T, label string, want, got *rand.Rand) {
	t.Helper()
	for i := 0; i < streamDraws; i++ {
		if w, g := draw(i%6, i/6, want, got); w != g {
			t.Fatalf("%s: draw %d (method %d): fault.Source %#x, math/rand %#x", label, i, i%6, g, w)
		}
	}
}

// FuzzStreamParity: a fault.Source draws math/rand's stream for every
// seed, through every rand.Rand method the simulation stack calls, past
// both register wrap-arounds, and again after a re-seed through
// (*rand.Rand).Seed, which returns the materialized source to lazy draws.
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
	})
}

// The first 273 draws compute their words on demand and the 274th
// materializes the register: every method must cross that boundary on
// math/rand's stream, whichever raw draw it lands on.
func TestLazyBoundaryParity(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1<<31 - 1, fault.StreamSeed(13, "node/0000042", "weather")} {
		for m := 0; m < 6; m++ {
			for pre := 268; pre <= 275; pre++ {
				want, got := rand.New(rand.NewSource(seed)), rand.New(fault.NewSource(seed))
				for d := 0; d < pre; d++ {
					if w, g := want.Uint64(), got.Uint64(); w != g {
						t.Fatalf("seed %d: raw draw %d: fault.Source %#x, math/rand %#x", seed, d+1, g, w)
					}
				}
				for k := 0; k < 4; k++ {
					if w, g := draw(m, k, want, got); w != g {
						t.Fatalf("seed %d, %d raw draws: method %d call %d: fault.Source %#x, math/rand %#x",
							seed, pre, m, k, g, w)
					}
				}
			}
		}
	}
}

// Seed and the lazy draws allocate nothing, the 274th draw allocates the
// register once, and a re-seeded source reuses it.
func TestSourceAllocs(t *testing.T) {
	src := fault.NewSource(1)
	if n := testing.AllocsPerRun(100, func() {
		src.Seed(42)
		for d := 0; d < 273; d++ {
			src.Uint64()
		}
	}); n != 0 {
		t.Errorf("Seed and 273 draws: %v allocations, want 0", n)
	}

	// AllocsPerRun calls f once more than it measures; each call takes a
	// fresh zero source.
	fresh, k := make([]fault.Source, 101), 0
	if n := testing.AllocsPerRun(100, func() {
		s := &fresh[k]
		k++
		s.Seed(42)
		for d := 0; d < 274; d++ {
			s.Uint64()
		}
	}); n != 1 {
		t.Errorf("274 draws from a fresh source: %v allocations, want 1", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		src.Seed(7)
		for d := 0; d < streamDraws; d++ {
			src.Uint64()
		}
	}); n != 0 {
		t.Errorf("re-seeded materialized source: %v allocations, want 0", n)
	}
}

// Population builds seed sources from every worker at once, and the first
// to draw builds the shared power table: each goroutine must still get its
// own seed's stream, lazy and materialized, re-seeds included.
func TestNewSourceConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				seed := fault.StreamSeed(int64(w), fmt.Sprintf("node/%07d", k), "weather")
				want, got := rand.New(rand.NewSource(seed)), rand.New(fault.NewSource(seed))
				for d := 0; d < 2*streamDraws; d++ {
					switch d {
					case 100, streamDraws: // lazy, then materialized
						want.Seed(seed + int64(d))
						got.Seed(seed + int64(d))
					}
					if x, y := want.Uint64(), got.Uint64(); x != y {
						t.Errorf("seed %d draw %d: fault.Source %#x, math/rand %#x", seed, d, y, x)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSeed compares fault.Source's seed, which keeps only the reduced
// seed, with math/rand's 1,841-step register fill, alone and followed by
// the 274 draws that make fault.Source materialize its register. None
// allocates: each re-seeds one source.
func BenchmarkSeed(b *testing.B) {
	for _, draws := range []int{0, 274} {
		for _, c := range []struct {
			name string
			src  rand.Source64
		}{
			{"fault.Source", fault.NewSource(0)},
			{"math-rand", rand.NewSource(0).(rand.Source64)},
		} {
			b.Run(fmt.Sprintf("%s/draws=%d", c.name, draws), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.src.Seed(int64(i))
					for d := 0; d < draws; d++ {
						c.src.Uint64()
					}
				}
			})
		}
	}
}
