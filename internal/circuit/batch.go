package circuit

// Batched execution: N resumable simulations advanced as the lanes of one
// stepper. NewBatch lays the lanes out in a single contiguous slab of
// Simulator values — struct-of-simulators rather than N separately
// allocated pointer targets — so a sweep over thousands of configurations
// streams through the cache in lane order instead of chasing per-node
// pointers. It sets each lane up in place with Configure, as the
// population runner does on its own slab (internal/population). Group
// wraps already-built simulators (for example a window of a slab's lanes)
// so a scheduler can hand each worker a contiguous span of nodes per
// epoch.
//
// Determinism: a BatchStepper adds no physics of its own. Each lane is a
// full Simulator advanced by exactly the scalar stepper's code, one lane
// at a time, and every lane carries its own pv.SolverState, so outcomes,
// events and traces are bit-identical to running the same configs through
// New + Run one by one — at every batch size. The parity suite in
// batch_test.go and the fleet golden/j-parity tests enforce this.

import (
	"context"
	"fmt"
)

// LaneError reports which lane of a batched operation failed, so callers
// that map lanes to domain identities (fleet node IDs, sweep indices) can
// attribute the failure. It wraps the lane's underlying error.
type LaneError struct {
	Lane int   // index into the stepper's lanes
	Err  error // the lane's error
}

// Error implements error.
func (e *LaneError) Error() string { return fmt.Sprintf("circuit: lane %d: %v", e.Lane, e.Err) }

// Unwrap exposes the lane's underlying error to errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// BatchStepper advances a set of simulation lanes together. Build one with
// NewBatch (owns a contiguous slab) or Group (wraps existing simulators).
// The zero value is an empty, finished batch.
type BatchStepper struct {
	lanes []*Simulator
}

// NewBatch validates every config and returns a stepper whose lanes live
// in one contiguous allocation, in config order. A config error is
// reported as a *LaneError identifying the offending lane.
func NewBatch(cfgs []Config) (*BatchStepper, error) {
	slab := make([]Simulator, len(cfgs))
	lanes := make([]*Simulator, len(cfgs))
	for i := range cfgs {
		if err := slab[i].Configure(cfgs[i]); err != nil {
			return nil, &LaneError{Lane: i, Err: err}
		}
		lanes[i] = &slab[i]
	}
	return &BatchStepper{lanes: lanes}, nil
}

// Group wraps existing simulators as the lanes of a stepper without
// copying or re-validating them. It returns a value (not a pointer) so
// per-epoch grouping in a scheduler's hot loop allocates nothing.
func Group(sims []*Simulator) BatchStepper {
	return BatchStepper{lanes: sims}
}

// Len returns the number of lanes.
func (b *BatchStepper) Len() int { return len(b.lanes) }

// Lane returns lane i's simulator, e.g. to read Progress or Outcome.
func (b *BatchStepper) Lane(i int) *Simulator { return b.lanes[i] }

// StepToCountContext advances every lane through the steps with index
// below n (see Simulator.StepToCount), in lane order, exactly as per-lane
// StepToCount calls would, and reports whether all lanes have finished.
// Schedulers stepping many lanes with a shared Step to shared epoch edges
// memoize StepsFor once per edge; math.MaxInt runs every lane to its own
// horizon. ctx (when non-nil) is checked before each lane, and its error
// returned as soon as it fires. A cancelled call leaves every lane in a
// valid resumable state — each lane has either fully advanced or not
// started this call, and lane warm states are only ever touched by the
// lane's own stepper — so a later call resumes bit-identically to an
// uninterrupted run. Lane failures are reported as *LaneError.
func (b *BatchStepper) StepToCountContext(ctx context.Context, n int) (bool, error) {
	done := true
	for i, sim := range b.lanes {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		laneDone, err := sim.StepToCount(n)
		if err != nil {
			return false, &LaneError{Lane: i, Err: err}
		}
		if !laneDone {
			done = false
		}
	}
	return done, nil
}

// Outcomes finalises every lane and returns their outcomes in lane order.
func (b *BatchStepper) Outcomes() []*Outcome {
	outs := make([]*Outcome, len(b.lanes))
	for i, sim := range b.lanes {
		outs[i] = sim.Outcome()
	}
	return outs
}
