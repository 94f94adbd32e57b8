package circuit

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

// laneStep is the integration step of every laneConfig lane.
const laneStep = 5e-6

// laneConfig builds lane i of a deliberately diverse batch population:
// initial charge, irradiance, supply point, job budget and tracing vary
// per lane so the parity checks cover completions, brownouts, comparator
// crossings and waveform capture.
func laneConfig(t testing.TB, i, steps int) Config {
	t.Helper()
	v0 := 0.7 + 0.9*float64(i%7)/6
	storage, err := cap.New(100e-6, v0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  ConstantIrradiance(0.2 + 0.8*float64(i%5)/4),
		Controller:  &FixedPoint{Supply: 0.45 + 0.05*float64(i%3)},
		Comparators: []Comparator{{Threshold: 0.9, Hysteresis: 0.05}},
		ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
		Step:        laneStep,
		MaxTime:     float64(steps) * laneStep,
	}
	if i%3 == 0 {
		cfg.JobCycles = 5e3 * float64(1+i%11) // some lanes complete early
	}
	if i%4 == 0 {
		cfg.TraceEvery = 50
	}
	return cfg
}

// runBatch runs every config to completion on one slab and returns the
// outcomes in config order.
func runBatch(t *testing.T, cfgs []Config) []*Outcome {
	t.Helper()
	b, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.StepToCountContext(nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	return b.Outcomes()
}

// TestRunBatchScalarParity is the circuit-level differential: outcomes of
// a batch run to completion (including events and waveform samples) must
// equal scalar New+Run outcomes for the identical configs, at every batch
// size.
func TestRunBatchScalarParity(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		steps := 400
		if n >= 1000 {
			steps = 60 // keep the big batch fast; diversity, not depth
		}
		scalar := make([]*Outcome, n)
		for i := range scalar {
			sim, err := New(laneConfig(t, i, steps))
			if err != nil {
				t.Fatal(err)
			}
			if scalar[i], err = sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = laneConfig(t, i, steps)
		}
		batched := runBatch(t, cfgs)
		for i := range scalar {
			if !reflect.DeepEqual(batched[i], scalar[i]) {
				t.Fatalf("n=%d lane %d: batched outcome differs from scalar:\nbatched %+v\nscalar  %+v",
					n, i, batched[i], scalar[i])
			}
		}
	}
}

// TestBatchLockstepParity: advancing a batch in shared-clock epochs
// (fleet-style), whole or split into Group windows, must be bit-identical
// to a batch run to completion in one call.
func TestBatchLockstepParity(t *testing.T) {
	const n, steps = 24, 500
	cfgs := func() []Config {
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = laneConfig(t, i, steps)
		}
		return cfgs
	}
	ref := runBatch(t, cfgs())

	for _, groups := range []int{1, 3} {
		b, err := NewBatch(cfgs())
		if err != nil {
			t.Fatal(err)
		}
		span := (n + groups - 1) / groups
		for edge, done := 1e-4, false; !done; edge += 1e-4 {
			done = true
			for lo := 0; lo < n; lo += span {
				hi := min(lo+span, n)
				g := Group(sliceLanes(b, lo, hi))
				groupDone, err := g.StepToCountContext(nil, StepsFor(edge, laneStep))
				if err != nil {
					t.Fatal(err)
				}
				done = done && groupDone
			}
		}
		for i, out := range b.Outcomes() {
			if !reflect.DeepEqual(out, ref[i]) {
				t.Fatalf("groups=%d lane %d: lockstep outcome differs from one-call run", groups, i)
			}
		}
	}
}

// sliceLanes returns lanes [lo, hi) of a stepper as a slice for Group.
func sliceLanes(b *BatchStepper, lo, hi int) []*Simulator {
	lanes := make([]*Simulator, hi-lo)
	for i := range lanes {
		lanes[i] = b.Lane(lo + i)
	}
	return lanes
}

// TestNewBatchLaneError: a bad config is attributed to its lane.
func TestNewBatchLaneError(t *testing.T) {
	cfgs := []Config{laneConfig(t, 0, 100), laneConfig(t, 1, 100), laneConfig(t, 2, 100)}
	cfgs[2].Cell = nil
	_, err := NewBatch(cfgs)
	var le *LaneError
	if !errors.As(err, &le) || le.Lane != 2 || !errors.Is(err, ErrMissingComponent) {
		t.Fatalf("NewBatch error = %v, want LaneError{Lane: 2} wrapping ErrMissingComponent", err)
	}
}

// cancelAfterCtx is a deterministic cancellation source: Err fires after a
// fixed number of checks, which with single-threaded stepping lands the
// cancellation mid-batch on an exact lane boundary.
type cancelAfterCtx struct {
	context.Context
	remaining int
}

func (c *cancelAfterCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestBatchCancelResumeParity: a StepToCountContext aborted mid-batch leaves
// every lane resumable — finishing the interrupted batch later produces
// outcomes bit-identical to an uninterrupted run. This is the contract
// that lets a fleet epoch die on a cancelled request without corrupting
// per-lane warm states.
func TestBatchCancelResumeParity(t *testing.T) {
	const n, steps = 8, 400
	cfgs := func() []Config {
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = laneConfig(t, i, steps)
		}
		return cfgs
	}
	ref := runBatch(t, cfgs())

	b, err := NewBatch(cfgs())
	if err != nil {
		t.Fatal(err)
	}
	// Cancel mid-batch (after 3 of 8 lane checks), twice, then finish.
	cancels := 0
	for _, budget := range []int{3, 5} {
		ctx := &cancelAfterCtx{Context: context.Background(), remaining: budget}
		done, err := b.StepToCountContext(ctx, math.MaxInt)
		if !errors.Is(err, context.Canceled) || done {
			t.Fatalf("cancelled StepToCountContext returned done=%v err=%v", done, err)
		}
		cancels++
	}
	if cancels != 2 {
		t.Fatal("cancellation path not exercised")
	}
	if _, err := b.StepToCountContext(nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	for i, out := range b.Outcomes() {
		if !reflect.DeepEqual(out, ref[i]) {
			t.Fatalf("lane %d: outcome after mid-batch cancellations differs from uninterrupted run", i)
		}
	}
}

// batchAllocs measures allocations of a lockstep batched run of the given
// horizon, mirroring perf_test.go's differential technique.
func batchAllocs(t *testing.T, lanes, steps int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		cfgs := make([]Config, lanes)
		for i := range cfgs {
			cfg := allocRunConfig(t, float64(steps)*5e-6, 0)
			cfg.Comparators = nil // allocRunConfig has none; keep lanes uniform
			cfgs[i] = cfg
		}
		b, err := NewBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for edge, done := 2e-4, false; !done; edge += 2e-4 {
			if done, err = b.StepToCountContext(nil, StepsFor(edge, cfgs[0].Step)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBatchStepAllocations pins the steady-state batched loop at zero
// allocations per step, alongside the scalar TestStepLoopAllocations: the
// slab, lane slice and capacitors are setup cost, identical across both
// horizons, so the long-short difference isolates the per-step cost.
func TestBatchStepAllocations(t *testing.T) {
	const lanes, shortSteps, longSteps = 4, 400, 4000
	short := batchAllocs(t, lanes, shortSteps)
	long := batchAllocs(t, lanes, longSteps)
	if perStep := (long - short) / float64(lanes*(longSteps-shortSteps)); perStep > 0.01 {
		t.Errorf("batched loop allocates %.3f/step (short=%.0f long=%.0f), want 0",
			perStep, short, long)
	}
}
