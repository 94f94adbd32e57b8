package pv

// Fast solver path for the implicit single-diode equation.
//
// With series resistance the terminal current solves
//
//	f(I) = Iph - Id(V + I*Rs) - (V + I*Rs)/Rsh - I = 0,
//
// which the original implementation bisects from the fixed bracket
// [-Iph, Iph] down to a 1e-12 A interval — ~45 exponential evaluations per
// call, and the single hottest operation of the transient simulator: every
// fixed step of circuit.Simulator.Run performs exactly one such solve.
//
// The fast path replaces the search with Newton-Raphson on the analytic
// derivative
//
//	f'(I) = -Id'(V+I*Rs)*Rs - Rs/Rsh - 1,  Id'(vd) = I0/s * exp(vd/s),
//
// which converges in a handful of iterations from a cold start and in 1-2
// iterations when warm-started from the previous step's operating point
// (SolverState): the capacitor voltage moves by microvolts per step, so the
// previous root is an excellent guess. f is strictly decreasing (f' <= -1)
// and concave, so Newton converges globally: one step from the left of the
// root lands on the right, after which the iterates decrease monotonically.
//
// Bit-exactness. The repository's golden traces and report snapshots were
// produced by the bisection, whose answer is the midpoint of its final
// dyadic interval — not the mathematical root — so simply returning the
// Newton root (even at far tighter tolerance) would drift the goldens.
// Instead, the fast path REPLAYS the bisection's decision sequence against
// the Newton root: every sign test "f(x) > 0" the bisection would perform
// is equivalent to "x < root" whenever x lies outside a guard band around
// the root that is orders of magnitude wider than both the Newton root's
// error and the band where the floating-point residual's sign is ambiguous
// (~eps-level; f' <= -1 bounds the amplification). The rare probe that
// falls inside the band evaluates the true residual, exactly as the
// bisection would. The replayed result is therefore bit-identical to
// CurrentReference for every input while evaluating the exponential a
// handful of times instead of ~45.
//
// Integer replay. Once the bracket [lo, hi] and the root are positive
// normal floats in one binade [2^e, 2^(e+1)) below the top one, the rest of
// the replay runs on their bit patterns, which within a binade are the
// significands in units of the binade's ulp u = 2^(e-52) plus a shared
// exponent field. Every float operation of the replay is then exact or
// rounds in a known way:
//
//   - lo+hi lies in [2^(e+1), 2^(e+2)), whose grid is 2u, so it is the
//     exact sum rounded half-to-even onto that grid, and 0.5*(lo+hi) is
//     exact. With s = bits(lo)+bits(hi) (no overflow: both are below 2^63)
//     that is bits(mid) = s>>1 + (s & (s>>1) & 1): s>>1 truncates the
//     halved sum, and an odd sum (s&1) rounds up exactly when the truncated
//     significand is odd.
//   - mid stays between lo and hi, so the next bracket stays in the binade.
//   - hi-lo and mid-root are exact multiples of u by Sterbenz's lemma, so
//     "hi-lo > 1e-12" is "bits(hi)-bits(lo) > floor(1e-12/u)" and
//     "|mid-root| <= margin" is "|bits(mid)-bits(root)| <= floor(margin/u)".
//     Both quotients are exact, because u is a power of two and they stay
//     normal: u <= 2^970 below the top binade, and margin >= replayMarginAbs.
//   - "mid < root" is "bits(mid) < bits(root)", as for any positive floats.
//
// In-binade distances are below 2^52 ulps, so a threshold at or above 2^53
// (a band wider than the bracket, or a stop width wider than the binade;
// either quotient may even overflow to +Inf) is clamped to 2^53 without
// changing a comparison, which keeps the float-to-integer conversions in
// range. The top binade is excluded because lo+hi would overflow to +Inf
// there. The levels that straddle a binade, negative or subnormal roots
// and the banded loop keep the float arithmetic.
//
// Robustness. Whenever the fast path's assumptions do not hold — degenerate
// cell parameters, non-finite inputs, a Newton iteration that fails to
// converge or produces non-finite values — the solve falls back to the
// reference bisection verbatim, so the fast path is never less robust than
// the original solver.

import "math"

const (
	// newtonMaxIterations bounds the Newton iteration; warm solves use 1-2,
	// cold solves ~4-8, and anything that runs this long falls back to the
	// reference bisection.
	newtonMaxIterations = 48

	// replayMarginAbs/Rel size the guard band around the Newton root inside
	// which the replayed bisection evaluates the true residual instead of
	// trusting the root comparison:
	//
	//	margin = replayMarginAbs + replayMarginRel*(|root| + Iph).
	//
	// The band must exceed the Newton root's error plus the width of the
	// region where the computed residual's floating-point sign is ambiguous.
	// The residual's terms are bounded by ~2*(Iph + |root|) near the root, so
	// its rounding noise — and, since f' <= -1, the width of the ambiguous
	// region — is ~1e-15*(Iph + |root|); the relative coefficient keeps
	// ~500x headroom over that while staying well below the bisection's
	// final 1e-12 A interval, so replay probes almost never land inside the
	// band (each in-band probe costs one residual evaluation).
	replayMarginAbs = 5e-14
	replayMarginRel = 5e-13

	// newtonAcceptFraction accepts a Newton iterate once |f(i)| (which bounds
	// the distance to the true root, because |f'| >= 1) is this fraction of
	// the replay guard band. A step-size test alone is not sufficient: where
	// the diode exponential makes the slope enormous, a tiny Newton step does
	// not imply a small residual.
	newtonAcceptFraction = 0.125

	// expAnchorMaxDelta/expApproxRelErr govern the anchored exponential: on
	// a transient the diode argument vd/s drifts by ~1e-5 per step, so the
	// warm path refreshes exp via math.Exp only when the argument has moved
	// more than expAnchorMaxDelta from the anchored evaluation and otherwise
	// updates it with a cubic Taylor factor, exp(a+d) = exp(a)*(1+d+d²/2+d³/6).
	// The truncation (d⁴/24 ≈ 3.4e-16 at the widest d), the update's ~5
	// rounding operations and the anchor's own ulp stay below
	// expApproxRelErr, which the acceptance tests charge against their error
	// budget (see fErr in newtonRoot) — acceptance therefore stays rigorous,
	// an approximate exponential can only cost extra iterations, never a
	// wrong accept.
	expAnchorMaxDelta = 3e-4
	expApproxRelErr   = 2e-15
)

// SolverState carries the operating point of one implicit-equation solve to
// the next, warm-starting Newton across the steps of a transient
// simulation. The zero value is a valid cold state. Results never depend on
// the state's history — CurrentWarm is bit-identical to Current for every
// input; the state only changes how fast the solve converges. A SolverState
// must not be shared between concurrent solvers.
type SolverState struct {
	warm  bool
	lastI float64

	// Derived-parameter cache: the inverses and curvature coefficient the
	// Newton loop needs, valid while the raw parameters they were derived
	// from still match (the raws were validated when stored, so a match also
	// re-establishes solvability without re-checking). Saves two divisions
	// per warm solve.
	derivedOK              bool
	pRs, pRsh, pI0, pScale float64
	invRsh, invScale       float64
	curvCoef               float64

	// Anchored exponential: expVal = exp(expArg) computed by math.Exp.
	// Arguments within expAnchorMaxDelta of the anchor are served by a
	// Taylor update instead of a fresh exp. The anchor is a pure fact about
	// exp — it stays valid across cells and parameter changes.
	expArg, expVal float64
}

// Reset discards the stored operating point, forcing the next solve to cold
// start.
func (s *SolverState) Reset() { *s = SolverState{} }

// CurrentWarm returns exactly Current(v, irradiance), reusing state to
// warm-start the implicit solve. Transient simulators call it once per step
// with a per-run state so consecutive solves converge in 1-2 Newton
// iterations; all other callers can keep using the stateless Current.
func (c *Cell) CurrentWarm(v, irradiance float64, state *SolverState) float64 {
	if irradiance <= 0 {
		return 0
	}
	iph := c.photoCurrent(irradiance)
	if c.seriesResistance == 0 {
		return iph - c.diodeCurrent(v) - v/c.shuntResistance
	}
	return c.currentFast(v, iph, state)
}

// CurrentReference returns the terminal current solved by the original
// bisection only, with no Newton acceleration. It is the correctness oracle
// for the fast path and its fallback; Current and CurrentWarm return
// bit-identical values, just faster.
func (c *Cell) CurrentReference(v, irradiance float64) float64 {
	if irradiance <= 0 {
		return 0
	}
	iph := c.photoCurrent(irradiance)
	if c.seriesResistance == 0 {
		return iph - c.diodeCurrent(v) - v/c.shuntResistance
	}
	return c.currentBisect(v, iph)
}

// currentFast solves the implicit equation with warm-started Newton plus a
// bit-exact bisection replay, falling back to the reference bisection when
// the fast path's assumptions fail.
func (c *Cell) currentFast(v, iph float64, state *SolverState) float64 {
	if isFinite(v) && iph > 0 && isFinite(iph) {
		var guess float64
		if state != nil && state.warm {
			guess = state.lastI
		} else {
			// Cold start from the Rs = 0 solution: one diode evaluation
			// that lands within a few Newton steps of the root.
			guess = iph - c.diodeCurrent(v) - v/c.shuntResistance
		}
		if root, ok := c.newtonRoot(v, iph, guess, state); ok {
			if state != nil {
				state.warm = true
				state.lastI = root
			}
			return c.replayBisect(v, iph, root)
		}
	}
	if state != nil {
		state.warm = false
	}
	return c.currentBisect(v, iph)
}

// loadResidual is f(I), the shared residual of the implicit equation. The
// reference bisection, the Newton iteration and the replay guard band all
// evaluate exactly these floating-point operations, which is what makes the
// fast path bit-compatible with the reference.
func (c *Cell) loadResidual(v, iph, i float64) float64 {
	vd := v + i*c.seriesResistance
	return iph - c.diodeCurrent(vd) - vd/c.shuntResistance - i
}

// newtonRoot runs the Newton iteration from guess and reports whether it
// converged to a finite root. It also owns the fast path's parameter
// envelope: on a derived-cache miss it checks the monotonicity and
// finiteness assumptions (these are what guarantee f' <= -1 and the
// concavity that Newton's global convergence and the replay's sign
// predictions rest on) and returns ok=false outside them, sending the
// caller to the reference bisection.
//
// Each iteration evaluates the exponential once — through the state's
// anchored-exp cache when warm — and derives both the residual f and the
// analytic slope
//
//	f'(I) = -Id'(V+I*Rs)*Rs - Rs/Rsh - 1 <= -1
//
// from it. Convergence is judged on the residual, not the step size:
// |f'| >= 1 makes |f(i)| an upper bound on the distance to the true root,
// so an iterate is accepted only once that bound sits far inside the replay
// guard band. When the exponential was approximated, fErr bounds the
// resulting |f| error and is charged against the acceptance budget, so an
// accept always certifies the true residual.
func (c *Cell) newtonRoot(v, iph, guess float64, state *SolverState) (root float64, ok bool) {
	rs, rsh, i0 := c.seriesResistance, c.shuntResistance, c.saturationCurrent
	js := c.junctionScale()
	var invRsh, invScale, curvCoef float64
	if state != nil && state.derivedOK &&
		state.pRs == rs && state.pRsh == rsh && state.pI0 == i0 && state.pScale == js {
		invRsh, invScale, curvCoef = state.invRsh, state.invScale, state.curvCoef
	} else {
		if !(rs > 0 && isFinite(rs) && rsh > 0 && isFinite(rsh) &&
			i0 >= 0 && isFinite(i0) && js > 0 && isFinite(js)) {
			return 0, false
		}
		invRsh = 1 / rsh
		invScale = 1 / js
		curvCoef = i0 * (rs * invScale) * (rs * invScale) // the f'' coefficient I0*(Rs/s)^2
		if state != nil {
			state.pRs, state.pRsh, state.pI0, state.pScale = rs, rsh, i0, js
			state.invRsh, state.invScale, state.curvCoef = invRsh, invScale, curvCoef
			state.derivedOK = true
		}
	}
	// Loop invariants: the acceptance threshold is acceptBase+acceptRel*|i|
	// and the slope's resistive part.
	acceptBase := newtonAcceptFraction * (replayMarginAbs + replayMarginRel*iph)
	acceptRel := newtonAcceptFraction * replayMarginRel
	rsInvRsh := rs * invRsh
	i := guess
	if !isFinite(i) {
		i = 0
	}
	for iter := 0; iter < newtonMaxIterations; iter++ {
		vd := v + i*rs
		var id, didvd, e float64 // diode current, its derivative d(Id)/d(vd), exp(vd/s)
		fErr := 0.0              // bound on |f| error from the anchored exp
		if vd > 0 && i0 > 0 {
			x := vd * invScale
			if state != nil {
				if d := x - state.expArg; d < expAnchorMaxDelta && d > -expAnchorMaxDelta && state.expVal > 0 {
					e = state.expVal * (1 + d*(1+d*(0.5+d*(1.0/6))))
					fErr = expApproxRelErr * i0 * e
				} else {
					e = math.Exp(x)
					state.expArg, state.expVal = x, e
				}
			} else {
				e = math.Exp(x)
			}
			id = i0 * (e - 1)
			didvd = i0 * invScale * e
		}
		f := iph - id - vd*invRsh - i
		if !isFinite(f) {
			return 0, false
		}
		if math.Abs(f)+fErr <= acceptBase+acceptRel*math.Abs(i) {
			return i, true
		}
		slope := -didvd*rs - rsInvRsh - 1
		if !(slope < 0) || math.IsInf(slope, 0) {
			return 0, false
		}
		step := f / slope // the update is i -> i - step
		next := i - step
		if !isFinite(next) {
			return 0, false
		}
		// Quadratic-convergence shortcut: the tangent is zero at next, so
		// the Taylor remainder gives |f(next)| <= M/2*step^2 with M bounding
		// |f''| between the iterates, and |f'| >= 1 turns that into a bound
		// on the distance to the root. |f''| = I0*(Rs/s)^2*exp(vd/s) grows
		// with vd, so it is bounded by its value at the rightmost iterate:
		// e for a leftward update, e*exp(dvd/s) <= e/(1-dvd/s) for a
		// rightward one while dvd/s < 1/2. When the bound fits the
		// acceptance budget (at half weight, leaving the other half for the
		// ~1e-16-relative evaluation noise of the step arithmetic), the
		// update is accepted without paying a verification exponential —
		// this is what makes a warm solve cost at most one (often zero)
		// math.Exp calls. An approximated exponential perturbs both f and
		// the slope; the residual error is <= fErr and the slope error
		// contributes <= |step|*|growth per unit|*fErr <= 0.5*fErr while
		// growth < 0.5, so charging 1.5*fErr keeps the bound rigorous. The
		// bound does NOT hold across the vd = 0 kink, where diodeCurrent's
		// clamp makes f' jump and the remainder is first-order in the
		// overshoot; steps that cross it fall through to a regular evaluated
		// iteration.
		growth := -step * rs * invScale // dvd/s along the update
		if vdNext := v + next*rs; growth < 0.5 && (i0 == 0 || (vd > 0) == (vdNext > 0)) {
			m := curvCoef * e
			if growth > 0 {
				m /= 1 - growth
			}
			errBound := 0.5*m*step*step + 1.5*fErr
			if errBound <= 0.5*(acceptBase+acceptRel*math.Abs(next)) {
				return next, true
			}
		}
		i = next
	}
	return 0, false
}

// currentBisect is the original solver, kept verbatim as the fallback and
// the correctness oracle: bisection on I over [-iph, iph] (extended
// geometrically below -iph when the operating point lies far beyond Voc),
// exploiting that f is strictly decreasing in I.
func (c *Cell) currentBisect(v, iph float64) float64 {
	lo, hi := -iph, iph // allow negative current beyond Voc
	if c.loadResidual(v, iph, lo) < 0 {
		// Even the most negative candidate cannot satisfy the equation;
		// extend downward geometrically (happens only far beyond Voc).
		for iter := 0; c.loadResidual(v, iph, lo) < 0 && iter < maxSolverIterations; iter++ {
			lo *= 2
		}
	}
	for iter := 0; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		mid := 0.5 * (lo + hi)
		if c.loadResidual(v, iph, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// replayBisect reproduces currentBisect's result bit-for-bit using the
// Newton root: identical bracket arithmetic and identical branch decisions,
// but each residual sign test is answered by comparing the probe against
// the root — except inside the guard band, where the true residual is
// evaluated just as the bisection would.
func (c *Cell) replayBisect(v, iph, root float64) float64 {
	margin := replayMarginAbs + replayMarginRel*(math.Abs(root)+iph)
	bandLo, bandHi := root-margin, root+margin
	lo, hi := -iph, iph
	if c.residualNegative(v, iph, lo, bandLo, bandHi) {
		// Bracket extension: the root lies below -iph (far beyond Voc).
		for iter := 0; c.residualNegative(v, iph, lo, bandLo, bandHi) && iter < maxSolverIterations; iter++ {
			lo *= 2
		}
	}
	// Float loop. Each sign test inlines "f(mid) > 0": strictly decreasing
	// f makes the sign follow from the probe's position relative to the
	// root outside the guard band; inside it the loop breaks to the banded
	// loop, which evaluates the true residual exactly as the bisection
	// would. Keeping that call out of the hot loop lets the compiler hold
	// the whole bracket iteration in registers; the direction decisions
	// themselves are the binary expansion of the root's position within
	// the bracket — unpredictable — so the select is routed through integer
	// conditional moves instead of a data-dependent branch that would
	// mispredict on most iterations. As soon as the bracket shares the
	// root's binade, the integer replay (see the file header) takes over.
	rb := math.Float64bits(root)
	binadeOK := root >= 0x1p-1022 && root < 0x1p1023 // positive normal, below the top binade
	iter := 0
	for ; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		lb, hb := math.Float64bits(lo), math.Float64bits(hi)
		if binadeOK && (lb^rb)|(hb^rb) < 1<<52 { // same sign and exponent field
			lo, hi, iter = replayBinade(lb, hb, rb, margin, iter)
			break
		}
		mid := 0.5 * (lo + hi)
		if math.Abs(mid-root) <= margin { // rare, well-predicted
			break
		}
		mb := math.Float64bits(mid)
		nl, nh := lb, mb
		if mid < root {
			nl = mb
		}
		if mid < root {
			nh = hb
		}
		lo, hi = math.Float64frombits(nl), math.Float64frombits(nh)
	}
	// Banded loop: a probe landed inside the guard band (or the bracket is
	// final and the loop test fails at once). Once that happens the bracket
	// hugs the root and further in-band probes are likely, so the rest of
	// the run stays in this full-fidelity loop (an exactly-zero residual
	// counts as not-positive, matching currentBisect).
	for ; iter < maxSolverIterations && hi-lo > 1e-12; iter++ {
		mid := 0.5 * (lo + hi)
		if math.Abs(mid-root) <= margin {
			if c.loadResidual(v, iph, mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		} else if mid < root {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// replayBinade continues replayBisect from iteration iter on the bit
// patterns lb, hb of a bracket that shares the sign and exponent field of
// the root's bit pattern rb (the integer replay of the file header). It
// returns the bracket and iteration at its first in-band probe, which the
// caller's banded loop re-runs, or where the float loop test would end the
// bisection.
func replayBinade(lb, hb, rb uint64, margin float64, iter int) (lo, hi float64, next int) {
	u := math.Float64frombits(rb>>52<<52) * 0x1p-52 // the binade's ulp, exact even when subnormal
	stop, band := 1e-12/u, margin/u
	if stop > 0x1p53 {
		stop = 0x1p53
	}
	if band > 0x1p53 {
		band = 0x1p53
	}
	stopN, bandN := uint64(stop), uint64(band)
	band2 := 2 * bandN
	for ; iter < maxSolverIterations && hb-lb > stopN; iter++ {
		s := lb + hb
		mb := s>>1 + (s & (s >> 1) & 1)
		if mb-rb+bandN <= band2 { // |mb-rb| <= bandN as one wrapping compare
			break
		}
		nl, nh := lb, mb
		if mb < rb {
			nl = mb
		}
		if mb < rb {
			nh = hb
		}
		lb, hb = nl, nh
	}
	return math.Float64frombits(lb), math.Float64frombits(hb), iter
}

// residualNegative reports f(i) < 0 by the same argument as the inline sign
// test in replayBisect. It is not the negation of "f(i) > 0": the
// bisection's two predicates both treat an exactly-zero residual as false,
// and the replay preserves that.
func (c *Cell) residualNegative(v, iph, i, bandLo, bandHi float64) bool {
	if i < bandLo {
		return false
	}
	if i > bandHi {
		return true
	}
	return c.loadResidual(v, iph, i) < 0
}

// isFinite reports whether x is neither NaN nor infinite. x-x is zero
// exactly for finite x and NaN otherwise, which compiles to a single
// subtract-and-compare on the hot path.
func isFinite(x float64) bool {
	return x-x == 0
}
