package pv

// Batched operating-point solves. SolveBatch answers N implicit-equation
// solves per call, amortising the per-solve state machinery of newton.go
// across the lanes of a sweep or a fleet epoch:
//
//   - in sweep mode (nil BatchSolver) one "walking" SolverState chains
//     warm starts across consecutive lanes, so lane k+1 resumes from lane
//     k's Newton root, derived-parameter cache and anchored exponential. A batch-1 call degenerates to today's cold
//     stateless solve; a 10k-lane fine-grid sweep converges in 1-2 Newton
//     iterations per lane — the width-dependent throughput win measured by
//     BenchmarkKernelBatch;
//   - in lane mode (non-nil BatchSolver) each lane owns a persistent
//     SolverState that survives across calls, for lockstep transients
//     where lane k is always the same physical node (circuit.BatchStepper).
//
// Bit-exactness needs no batching-specific argument: CurrentWarm is
// bit-identical to Current for EVERY input regardless of what its
// SolverState holds (the state only changes how fast the solve converges,
// see newton.go), so any assignment of states to lanes — walking, per-lane,
// or none — produces exactly the scalar path's bytes. The differential
// suite in batch_test.go still checks it, per lane, against Current.

// BatchSolver carries one persistent SolverState per lane for callers that
// solve the same set of nodes repeatedly (lockstep transients). The zero
// value is ready to use; states are allocated on first demand. A
// BatchSolver must not be shared between concurrent SolveBatch calls.
type BatchSolver struct {
	states []SolverState
}

// NewBatchSolver returns a solver pre-sized for the given lane count.
func NewBatchSolver(lanes int) *BatchSolver {
	if lanes < 0 {
		lanes = 0
	}
	return &BatchSolver{states: make([]SolverState, lanes)}
}

// Lanes returns the number of per-lane states currently held.
func (b *BatchSolver) Lanes() int { return len(b.states) }

// Lane returns lane i's state, growing the solver as needed, so tests and
// diagnostics can inspect or seed individual lanes.
func (b *BatchSolver) Lane(i int) *SolverState {
	b.grow(i + 1)
	return &b.states[i]
}

// Reset cold-starts every lane.
func (b *BatchSolver) Reset() {
	for i := range b.states {
		b.states[i].Reset()
	}
}

// grow ensures at least n lane states exist. New lanes are cold, which is
// always valid (results never depend on state, only speed does).
func (b *BatchSolver) grow(n int) {
	if n <= len(b.states) {
		return
	}
	if n <= cap(b.states) {
		b.states = b.states[:n]
		return
	}
	states := make([]SolverState, n)
	copy(states, b.states)
	b.states = states
}

// SolveBatch computes the terminal current for every lane k:
//
//	out[k] = Current(vs[k], irr(k))
//
// where irr(k) is irrs[k], or irrs[0] broadcast across all lanes when
// len(irrs) == 1. It returns out, allocating it when nil; otherwise out
// must have at least len(vs) elements. A nil bs selects sweep mode (one
// walking warm state chained across the lanes of this call); a non-nil bs
// selects lane mode (bs.Lane(k) warm-starts lane k and persists across
// calls). Both modes return bytes identical to per-lane Current — see the
// package comment above.
func (c *Cell) SolveBatch(vs, irrs, out []float64, bs *BatchSolver) []float64 {
	if len(irrs) != 1 && len(irrs) != len(vs) {
		panic("pv: SolveBatch irradiance length must be 1 or len(vs)")
	}
	if out == nil {
		out = make([]float64, len(vs))
	} else if len(out) < len(vs) {
		panic("pv: SolveBatch output shorter than input")
	}
	out = out[:len(vs)]
	if bs != nil {
		bs.grow(len(vs))
		for k, v := range vs {
			out[k] = c.CurrentWarm(v, laneIrr(irrs, k), &bs.states[k])
		}
		return out
	}
	var walk SolverState
	for k, v := range vs {
		out[k] = c.CurrentWarm(v, laneIrr(irrs, k), &walk)
	}
	return out
}

// laneIrr resolves lane k's irradiance under broadcast semantics.
func laneIrr(irrs []float64, k int) float64 {
	if len(irrs) == 1 {
		return irrs[0]
	}
	return irrs[k]
}
