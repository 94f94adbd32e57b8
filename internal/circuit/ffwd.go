package circuit

// Event-horizon fast-forward: when a node sits in a bit-exact fixed
// point — every quantity stepOnce would compute is provably identical,
// and every accumulator increment is exactly 0.0 — the stepper jumps
// s.next past the whole inert span instead of executing it. The jump is
// bitwise invisible: resuming from the skipped-to step produces the
// same state, waveform, events, and Outcome a verbatim run produces
// (the differential parity suite in ffwd_test.go enforces it).
//
// The proof obligations, all checked per attempt:
//
//  1. The input is provably dark over the span: IrradianceSource
//     promises constancy on [now, NextChange) and the constant value is
//     <= 0, so pv.CurrentWarm's irradiance<=0 early-out returns exactly
//     0 without reading or writing the warm-solver state.
//  2. The node's operating point is the collapse fixed point: halted
//     with effFreq, loadPow and inputPow all exactly 0, re-derived at
//     the CURRENT capacitor voltage (resolveOperatingPoint is a pure,
//     idempotent function of (vcap, commands, bypass), so probing it
//     here is invisible). Then iLoad = 0, every energy increment is
//     +0.0, and cyclesDone is frozen — x += 0.0 leaves any
//     non-negative-zero float64 bitwise unchanged.
//  3. The voltage cannot bleed: vcap is exactly 0, so the leakage term
//     is 0/R = 0, the aux draw is clamped to 0 and ApplyCurrent(0, dt)
//     holds the bits.
//  4. The mode is settled: the halt (and any bypass) transition event
//     for the current state was already emitted by an executed step, so
//     skipped steps would emit nothing.
//  5. Comparators are stable: the last executed step already ran
//     fireComparators at this exact frozen voltage, and the hysteresis
//     automaton is idempotent at a constant input.
//  6. The controller vouches, via Quiescent.QuiescentUntil, that
//     skipping its OnStep calls before the returned horizon is
//     unobservable (no latches, commands, or trace output).
//
// The skip stops at the earliest of: the source's NextChange, the
// controller's quiescence horizon, the next due waveform sample
// (TraceEvery), and the StepTo/StepToCount target — everything past any
// of those boundaries is stepped verbatim.
//
// A profiled run (Config.Ledger) keeps the fast path. Inside a proven
// span profileStep would make exactly one non-identity write per step,
// Seconds[dead/brownout] += Step: the node is halted (obligation 2), so
// the time bin is always dead/brownout; loadPow is exactly 0, so the bin's
// joules take +0.0, the identity on an accumulator that starts at +0 and
// only grows; solarPow (obligation 1), inputPow - loadPow (obligation 2)
// and the clamped aux draw (obligation 3) are exactly 0, so no flow bin
// fires. The skip replays those writes with Ledger.AddSteps — n
// sequential adds of Step, never a product — so the ledger holds the
// bits a verbatim run leaves.

import (
	"math"

	"repro/internal/prof"
	"repro/internal/trace"
)

// tryFastForward jumps s.next over the provably-inert span ahead, if
// any. It never moves past target and never moves backwards; when the
// proof obligations fail it does nothing and the caller steps verbatim.
// The skip path performs no allocations (perf_test.go pins this).
func (s *Simulator) tryFastForward(target int) {
	st := &s.state
	cfg := &st.cfg

	// Cheap rejects first: this runs before every verbatim step, so a
	// live (non-halted) node must fall through in a couple of compares.
	if !st.halted || !s.prevHalted || st.bypass != s.prevBypass ||
		st.stopRequested || s.next == 0 {
		return
	}
	if st.loadPow != 0 || st.inputPow != 0 || st.effFreq != 0 {
		return
	}

	vcap := cfg.Cap.Voltage()
	if math.Float64bits(vcap) != 0 {
		return
	}

	// Re-derive the operating point at the CURRENT voltage: the cached
	// zeros above were computed at the step's starting voltage, which
	// the step itself may have changed. A passing probe reproduces the
	// exact zeros already in place; a failing one is rolled back, with the
	// operating-point memo, so the state stays bitwise what the last
	// verbatim step left.
	savedSupply, savedHalted := st.effSupply, st.halted
	savedFreq, savedLoad, savedInput := st.effFreq, st.loadPow, st.inputPow
	savedValid, savedVcap := st.opValid, st.opVcap
	st.resolveOperatingPoint(vcap)
	if !st.halted || st.loadPow != 0 || st.inputPow != 0 || st.effFreq != 0 ||
		st.effSupply != 0 {
		st.effSupply, st.halted = savedSupply, savedHalted
		st.effFreq, st.loadPow, st.inputPow = savedFreq, savedLoad, savedInput
		st.opValid, st.opVcap = savedValid, savedVcap
		return
	}

	now := st.time
	if !(now < s.ffUntil) {
		// (Re)compute the source horizon; the darkness of the constant
		// value is cached with it, valid until the horizon passes.
		s.ffUntil = cfg.IrradianceSource.NextChange(now)
		s.ffDark = cfg.IrradianceSource.At(now) <= 0
	}
	until := s.ffUntil
	if !s.ffDark || !(until > now) {
		return
	}
	if q := s.quiescent.QuiescentUntil(st); q < until {
		until = q
	}
	if !(until > now) {
		return
	}

	// Last step index whose start time float64(m-1)*Step — the exact
	// value stepOnce would stamp — still falls inside [now, until).
	m := target
	if u := until / cfg.Step; u < float64(m) {
		if k := stepCount(until, cfg.Step); k < m {
			m = k
		}
	}
	if s.waveform != nil {
		// The next due waveform sample executes verbatim; the skip
		// resumes attempts right after it, so a traced dead span is
		// crossed in TraceEvery-sized hops.
		te := cfg.TraceEvery
		if ks := ((s.next + te - 1) / te) * te; ks < m {
			m = ks
		}
	}
	for m > s.next && float64(m-1)*cfg.Step >= until {
		m--
	}
	skipped := m - s.next
	if skipped <= 0 {
		return
	}

	if st.Tracing() {
		st.TraceInstant("circuit.ffwd", trace.Args{
			"from_s": now, "to_s": float64(m-1) * cfg.Step,
			"steps": skipped, "reason": "dark-collapse",
		})
	}
	s.next = m
	st.time = float64(m-1) * cfg.Step
	s.stepsSkipped += skipped
	if led := cfg.Ledger; led != nil {
		led.AddSteps(prof.BinDead, cfg.Step, skipped)
	}
}
