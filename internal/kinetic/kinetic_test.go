package kinetic

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/weather"
)

func TestTraceDeterministicBySeed(t *testing.T) {
	h := New()
	a, err := h.Trace(rand.New(rand.NewSource(9)), 30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Trace(rand.New(rand.NewSource(9)), 30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, err := h.Trace(rand.New(rand.NewSource(10)), 30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceBoundsAndActivity(t *testing.T) {
	h := New(func(h *Harvester) { h.cap = 0.5 })
	tr, err := h.Trace(rand.New(rand.NewSource(3)), 60, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for i, s := range tr.Samples {
		if s < 0 || s > 0.5 {
			t.Fatalf("sample %d = %g outside [0, cap]", i, s)
		}
		peak = math.Max(peak, s)
	}
	if peak == 0 {
		t.Error("60 s at 2 impulses/s delivered nothing")
	}
	_, mean, _ := tr.Stats()
	// Renewal mean power: rate * impulse * decay = 2 * 0.2 * 0.12 = 0.048.
	if mean < 0.01 || mean > 0.15 {
		t.Errorf("mean equivalent irradiance %g implausible for walking defaults", mean)
	}
}

func TestImpulsesRelaxBetweenArrivals(t *testing.T) {
	// A very sparse train must decay to ~zero between impulses.
	h := New(WithRate(0.05), WithDecay(0.05), WithJitter(0))
	tr, err := h.Trace(rand.New(rand.NewSource(1)), 120, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	quiet := 0
	for _, s := range tr.Samples {
		if s < 1e-6 {
			quiet++
		}
	}
	if frac := float64(quiet) / float64(len(tr.Samples)); frac < 0.5 {
		t.Errorf("only %.0f%% of a sparse train is quiet; relaxation broken", frac*100)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := New().Trace(rand.New(rand.NewSource(1)), 0, 0.01); !errors.Is(err, weather.ErrBadTrace) {
		t.Errorf("zero duration: %v", err)
	}
	if _, err := New().Trace(rand.New(rand.NewSource(1)), 10, 0); !errors.Is(err, weather.ErrBadTrace) {
		t.Errorf("zero step: %v", err)
	}
	for _, geo := range [][2]float64{{math.NaN(), 0.01}, {math.Inf(1), 0.01}, {10, math.NaN()}, {10, math.Inf(1)}} {
		if _, err := New().Trace(rand.New(rand.NewSource(1)), geo[0], geo[1]); !errors.Is(err, weather.ErrBadTrace) {
			t.Errorf("duration %g, step %g: %v, want ErrBadTrace", geo[0], geo[1], err)
		}
	}
	for _, h := range []*Harvester{
		New(WithRate(0)),
		New(WithImpulse(-1)),
		New(WithDecay(0)),
		New(WithJitter(1.5)),
		New(func(h *Harvester) { h.cap = 0 }),
	} {
		if _, err := h.Trace(rand.New(rand.NewSource(1)), 10, 0.01); err == nil {
			t.Errorf("harvester %+v accepted", h)
		}
	}
}
