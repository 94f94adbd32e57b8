package indoor

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/weather"
)

func TestTraceDeterministicBySeed(t *testing.T) {
	e := New()
	a, err := e.Trace(rand.New(rand.NewSource(4)), 600, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Trace(rand.New(rand.NewSource(4)), 600, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, err := e.Trace(rand.New(rand.NewSource(5)), 600, 0.1)
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

func TestTraceVisitsMultipleRegimes(t *testing.T) {
	// A long trace must visit several rungs of the default ladder and stay
	// within the brightest rung's derated level (plus flicker headroom).
	e := New()
	tr, err := e.Trace(rand.New(rand.NewSource(7)), 4000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	top := 0.140 * 0.80 * (1 + DefaultJitter)
	levels := map[float64]bool{}
	dark := 0
	for i, s := range tr.Samples {
		if s < 0 || s > top+1e-12 {
			t.Fatalf("sample %d = %g outside [0, %g]", i, s, top)
		}
		if s == 0 {
			dark++
		}
		// Bucket by coarse magnitude to count distinct regimes despite jitter.
		levels[float64(int(s*500))/500] = true
	}
	if len(levels) < 3 {
		t.Errorf("trace only visited %d coarse levels; ladder not being walked", len(levels))
	}
	if dark == 0 {
		t.Error("an hour of office lighting never went dark")
	}
	if dark == len(tr.Samples) {
		t.Error("trace is permanently dark")
	}
}

// withStages replaces the lighting ladder, ordered dimmest to brightest.
func withStages(stages []Stage) Option {
	return func(e *Environment) { e.stages = stages }
}

func TestSingleStageLadder(t *testing.T) {
	e := New(
		withStages([]Stage{{Level: 0.05, MeanDwellS: 10, Efficiency: 1}}),
		WithStartStage(0),
		WithJitter(0),
	)
	tr, err := e.Trace(rand.New(rand.NewSource(1)), 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.Samples {
		if s != 0.05 {
			t.Fatalf("sample %d = %g, want constant 0.05", i, s)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := New().Trace(rand.New(rand.NewSource(1)), 0, 0.1); !errors.Is(err, weather.ErrBadTrace) {
		t.Errorf("zero duration: %v", err)
	}
	if _, err := New().Trace(rand.New(rand.NewSource(1)), 10, 0); !errors.Is(err, weather.ErrBadTrace) {
		t.Errorf("zero step: %v", err)
	}
	for _, geo := range [][2]float64{{math.NaN(), 0.1}, {math.Inf(1), 0.1}, {10, math.NaN()}, {10, math.Inf(1)}} {
		if _, err := New().Trace(rand.New(rand.NewSource(1)), geo[0], geo[1]); !errors.Is(err, weather.ErrBadTrace) {
			t.Errorf("duration %g, step %g: %v, want ErrBadTrace", geo[0], geo[1], err)
		}
	}
	for name, e := range map[string]*Environment{
		"empty ladder":    New(withStages(nil)),
		"negative level":  New(withStages([]Stage{{Level: -1, MeanDwellS: 1, Efficiency: 1}})),
		"zero dwell":      New(withStages([]Stage{{Level: 0.1, MeanDwellS: 0, Efficiency: 1}}), WithStartStage(0)),
		"bad efficiency":  New(withStages([]Stage{{Level: 0.1, MeanDwellS: 1, Efficiency: 1.5}}), WithStartStage(0)),
		"start off rung":  New(WithStartStage(99)),
		"jitter too big":  New(WithJitter(1)),
		"negative jitter": New(WithJitter(-0.1)),
	} {
		if _, err := e.Trace(rand.New(rand.NewSource(1)), 10, 0.1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
