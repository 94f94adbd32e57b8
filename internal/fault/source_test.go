package fault

import (
	"math"
	"math/rand"
	"testing"
)

// stepSource is a minimal IrradianceSource for wrap tests: level switches
// from before to after at t0.
type stepSource struct{ before, after, t0 float64 }

func (s stepSource) At(t float64) float64 {
	if t < s.t0 {
		return s.before
	}
	return s.after
}

func (s stepSource) NextChange(t float64) float64 {
	if t < s.t0 {
		return s.t0
	}
	return math.Inf(1)
}

func testBrownouts(t *testing.T, pulses []Pulse, horizon float64) *Brownouts {
	t.Helper()
	b, err := New(Plan{Brownouts: pulses}, "source-test").Brownouts(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrownoutsNextEdge(t *testing.T) {
	b := testBrownouts(t, []Pulse{
		{AtS: 0.02, DurationS: 0.01},
		{AtS: 0.05, DurationS: 0.02, Depth: 0.3},
	}, 0.1)
	cases := []struct{ t, want float64 }{
		{-1, 0.02},   // before everything: first start
		{0, 0.02},    // idem
		{0.02, 0.03}, // inside window 1: its end
		{0.025, 0.03},
		{0.03, 0.05}, // between windows: next start
		{0.05, 0.07}, // inside window 2: its end
		{0.07, math.Inf(1)},
		{1, math.Inf(1)},
	}
	for _, tc := range cases {
		if got := b.NextEdge(tc.t); got != tc.want {
			t.Errorf("NextEdge(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

// TestWrapSourceMatchesWrap requires WrapSource's At to be bitwise the
// Wrap closure — it must BE that closure, composed with the same base —
// and its NextChange claims to be sound: the wrapped signal constant on
// every claimed span.
func TestWrapSourceMatchesWrap(t *testing.T) {
	base := stepSource{before: 0.9, after: 0, t0: 0.04}
	b := testBrownouts(t, []Pulse{
		{AtS: 0.01, DurationS: 0.015},
		{AtS: 0.06, DurationS: 0.01, Depth: 0.25},
	}, 0.1)
	src := b.WrapSource(base)
	wrapped := b.Wrap(base.At)
	const grid = 5000
	for i := 0; i <= grid; i++ {
		tt := -0.01 + 0.12*float64(i)/grid
		if got, want := src.At(tt), wrapped(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("At(%g) = %g, Wrap closure %g", tt, got, want)
		}
		next := src.NextChange(tt)
		if next <= tt {
			continue
		}
		end := next
		if math.IsInf(end, 1) {
			end = 0.2
		}
		want := math.Float64bits(src.At(tt))
		for k := 0; k < 12; k++ {
			probe := tt + (end-tt)*float64(k)/12.0001
			if got := math.Float64bits(src.At(probe)); got != want {
				t.Fatalf("NextChange(%g) = %g but At(%g) != At(%g)", tt, next, probe, tt)
			}
		}
	}
}

func TestWrapSourceNoWindows(t *testing.T) {
	base := stepSource{before: 1, after: 0.5, t0: 0.01}
	b := testBrownouts(t, nil, 0.1)
	if src := b.WrapSource(base); src != IrradianceSource(base) {
		t.Error("WrapSource with no windows should return the base source unchanged")
	}
}

// TestWrapSourceRandomized fuzzes window layouts against the constancy
// contract with a base signal that has exact-zero spans.
func TestWrapSourceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		var pulses []Pulse
		for w, k := 0, rng.Intn(4); w < k; w++ {
			depth := 0.0
			if rng.Intn(3) == 0 {
				depth = rng.Float64() * 0.9
			}
			pulses = append(pulses, Pulse{
				AtS:       rng.Float64() * 0.1,
				DurationS: 1e-3 + rng.Float64()*0.03,
				Depth:     depth,
			})
		}
		b := testBrownouts(t, pulses, 0.15)
		base := stepSource{before: rng.Float64(), after: 0, t0: rng.Float64() * 0.1}
		src := b.WrapSource(base)
		for i := 0; i <= 1500; i++ {
			tt := 0.15 * float64(i) / 1500
			next := src.NextChange(tt)
			if next <= tt {
				continue
			}
			end := next
			if math.IsInf(end, 1) {
				end = 0.2
			}
			want := math.Float64bits(src.At(tt))
			for k := 0; k < 8; k++ {
				probe := tt + (end-tt)*float64(k)/8.0001
				if got := math.Float64bits(src.At(probe)); got != want {
					t.Fatalf("trial %d: NextChange(%g) = %g but At(%g) differs", trial, tt, next, probe)
				}
			}
		}
	}
}
