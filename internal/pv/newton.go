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
// iterations when warm-started from the tangent at the previous step's
// operating point (SolverState): the capacitor voltage moves by microvolts
// and the light by little per step, so the linearised prediction is an
// excellent guess. f is strictly decreasing (f' <= -1)
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
// Block replay. The integer level loop is one dependent compare-and-select
// per level. Before it runs, replayBlocks replays the first levels four at
// a time on the low bit pattern L of the bracket and the width w0 = hb-lb
// it starts from:
//
//   - Exact arithmetic without the comparisons. At level k the bracket
//     width is (w0>>k)+δ with δ in {0, 1}, and the midpoint sits at
//     L + (w0>>(k+1)) + f with f in {0, 1}. Both follow from the midpoint
//     formula above: with p = L mod 2 and b0, b1 the bits k and k+1 of w0,
//     the width is odd exactly when odd = b0⊕δ, and then f = p⊕b1;
//     otherwise f = b0∧δ. Going left (mid >= root) keeps L and p and sets
//     δ' = f; going right adds the offset to L, so p' = p⊕b1⊕f and
//     δ' = f⊕odd. The pair (p, δ) is a 4-state transducer driven by the
//     decisions and the bits of w0 (replayLevel).
//   - Four levels per lookup. Over levels k0..k0+3 with decision bits D
//     (the level-k0 decision most significant) and W = w0>>(k0+1), the
//     offsets sum to (W>>3)·D + Σ dᵢ·(fᵢ + ((W&7)>>i)). The second term is
//     at most 15, and it and the next state depend only on the state, D
//     and bits k0..k0+4 of w0, so one byte of a 2,048-entry table holds
//     both. The table is generated from the one-level rule on first use.
//     The state chain is one OR and one load per four levels; the multiply
//     stays off it.
//   - Guess, then certify. The decisions are the binary expansion of the
//     root's position in the bracket, so the first kb of them are guessed
//     at once as j = floor((rb-lb)/w0 · 2^kb), clamped to 2^kb-1 (both
//     operands are exact below 2^53), and the bracket [L, H] they lead to
//     is accepted only if all of these hold:
//     1. L < rb <= H. Brackets only shrink, so a wrong "right" leaves
//     L >= mid >= rb and a wrong "left" leaves H <= mid < rb; containment
//     certifies every guessed decision.
//     2. rb-L > bandN and H-rb > bandN. Every earlier probe is an endpoint
//     of an enclosing bracket and so lies outside (L, H); none was in
//     band. Conditions 1 and 2 are the two compares L+bandN < rb and
//     rb+bandN < H.
//     3. kb <= K1, the first level with w0>>k <= stopN. Every level k < K1
//     has width >= w0>>k > stopN, so the loop test held at each of them.
//     4. iter+kb <= maxSolverIterations, the loop's iteration cap.
//
//     kb is the largest multiple of four at most K1-1, so the level loop
//     finishes the last one to four levels, where in-band probes are
//     likeliest, with its own band, stop and cap tests. When the
//     certificate fails, the level loop replays from the original bracket.
//
// Robustness. Whenever the fast path's assumptions do not hold — degenerate
// cell parameters, non-finite inputs, a Newton iteration that fails to
// converge or produces non-finite values — the solve falls back to the
// reference bisection verbatim, so the fast path is never less robust than
// the original solver.

import (
	"math"
	"math/bits"
	"sync"
)

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
	// expAnchorMaxDelta or more from the anchored evaluation and otherwise
	// updates it with a degree-5 Taylor factor in Estrin form,
	//
	//	exp(a+d) = exp(a)*((1+d) + d²*((1/2+d/6) + d²*(1/24+d/120))),
	//
	// which splits the polynomial into two short dependency chains, so the
	// update's latency stays below math.Exp's. The relative error against
	// exp(a+d) is the truncation, at most |d|⁶/720*(1+|d|) < 1.41e-15 for
	// |d| < 1e-2, plus the rounding: 2^-53 each for 1+d, the final sum and
	// the product with exp(a), at most one ulp (2^-52) for the anchor
	// math.Exp(a), and below 2e-18 together for the d² terms and for
	// d = x-a's own rounding. That sums to < 1.97e-15, below
	// expApproxRelErr, which the acceptance tests charge against their
	// error budget (see fErr in newtonRoot) — acceptance therefore stays
	// rigorous, an approximate exponential can only cost extra iterations,
	// never a wrong accept.
	expAnchorMaxDelta = 1e-2
	expApproxRelErr   = 2.5e-15
)

// SolverState carries the operating point of one implicit-equation solve to
// the next, warm-starting Newton across the steps of a transient
// simulation. The zero value is a valid cold state. Results never depend on
// the state's history — CurrentWarm is bit-identical to Current for every
// input; the state only changes how fast the solve converges. A SolverState
// must not be shared between concurrent solvers.
//
// The state keys on the cell it last accepted a solve on, as
// cpu.SupplyMemo keys on its processor: a Cell is immutable, so its
// pointer stands for its parameters. A solve on that cell warm-starts
// from the tangent, and one whose v and Iph also have the bits of the
// last accepted solve returns lastI without solving (see repeats). The
// answer is a pure function of those inputs, so the one-entry memo is
// exact; a settled node, whose vcap update has reached a float fixed
// point under constant light, pays a compare per step. A solve on another
// cell starts cold.
type SolverState struct {
	// cell is the cell of the last accepted solve; nil while cold.
	cell *Cell

	// lastI is the last accepted solve's result: the replayed bisection's
	// answer, which the memo returns and from which the tangent predicts.
	lastI float64

	// Tangent at the last accepted root: the solve's v and Iph, the
	// conductance g = Id'(vd) + 1/Rsh at the accepted iterate and
	// k = 1/(1 + Rs*g). The next warm guess is the Newton step of the
	// residual linearised there (see newtonStart). lastV and lastIph are
	// also the memo's key.
	lastV, lastIph, tanG, tanK float64

	// Anchored exponentials: expVal[k] = exp(expArg[k]) computed by
	// math.Exp, the newest in slot 0. An argument within expAnchorMaxDelta
	// of an anchor is served by a Taylor update from it; a fresh exp
	// becomes the newest anchor and the older one is dropped. Two anchors
	// serve a node whose solves alternate between two operating points, as
	// a browned-out node's storage flips between 0 V and a recharge of
	// millivolts, from a Taylor update at both. The anchors are pure facts
	// about exp — they stay valid across cells.
	expArg, expVal [2]float64
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
	if state.repeats(c, v, iph) {
		return state.lastI
	}
	if isFinite(v) && iph > 0 && isFinite(iph) {
		if root, _, _, ok := c.newtonRoot(v, iph, c.newtonStart(v, iph, state), state); ok {
			i, _, _ := c.replayBisect(v, iph, root)
			if state != nil {
				state.lastI = i
			}
			return i
		}
	}
	if state != nil {
		state.cell = nil
	}
	return c.currentBisect(v, iph)
}

// repeats reports whether solving (v, iph) on c repeats the last accepted
// solve: the state last accepted on c (a fallback leaves it cold) and v
// and iph have that solve's bits. c's parameters with Iph are everything
// the reference bisection reads, so lastI is then its answer.
func (s *SolverState) repeats(c *Cell, v, iph float64) bool {
	return s != nil && s.cell == c &&
		math.Float64bits(v) == math.Float64bits(s.lastV) &&
		math.Float64bits(iph) == math.Float64bits(s.lastIph)
}

// newtonStart returns Newton's starting point. A state warm on c predicts
// the root from the tangent at the last accepted one: linearising
// f = Iph - Id(vd) - vd/Rsh - I there gives dI = (dIph - g*dv)/(1 + Rs*g).
// A cold start takes the Rs = 0 solution: one diode evaluation that lands
// within a few Newton steps of the root.
func (c *Cell) newtonStart(v, iph float64, state *SolverState) float64 {
	if state != nil && state.cell == c {
		return state.lastI + ((iph-state.lastIph)-state.tanG*(v-state.lastV))*state.tanK
	}
	return iph - c.diodeCurrent(v) - v/c.shuntResistance
}

// accept records a root accepted on c and the tangent there, where the
// residual's conductance is g, for the next warm start. currentFast then
// replaces lastI with the replayed answer, which the memo returns.
func (s *SolverState) accept(c *Cell, v, iph, root, g float64) {
	s.cell = c
	s.lastI, s.lastV, s.lastIph = root, v, iph
	s.tanG, s.tanK = g, 1/(1+c.seriesResistance*g)
}

// exp returns exp(x) and whether it is an anchor's Taylor update (see
// expAnchorMaxDelta) rather than a fresh math.Exp.
func (s *SolverState) exp(x float64) (float64, bool) {
	for k := range s.expArg {
		if d := x - s.expArg[k]; d < expAnchorMaxDelta && d > -expAnchorMaxDelta && s.expVal[k] > 0 {
			d2 := d * d
			return s.expVal[k] * ((1 + d) + d2*((0.5+d*(1.0/6))+d2*(1.0/24+d*(1.0/120)))), true
		}
	}
	e := math.Exp(x)
	s.expArg = [2]float64{x, s.expArg[0]}
	s.expVal = [2]float64{e, s.expVal[0]}
	return e, false
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
// converged to a finite root, after how many residual evaluations, and how
// many of their exponentials were fresh math.Exp calls. On
// an accept it records the root and its tangent in state for the next warm
// start (newtonStart). A cell outside the fast path's parameter envelope
// (NewCell's newton flag) returns ok=false at once, sending the caller to
// the reference bisection.
//
// Each iteration evaluates the exponential once — through the state's
// anchored exponentials when warm — and derives both the residual f and the
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
func (c *Cell) newtonRoot(v, iph, guess float64, state *SolverState) (root float64, iters, exps int, ok bool) {
	if !c.newton {
		return 0, 0, 0, false
	}
	rs, i0, invRsh, invScale := c.seriesResistance, c.saturationCurrent, c.invRsh, c.invScale
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
				var approx bool
				if e, approx = state.exp(x); approx {
					fErr = expApproxRelErr * i0 * e
				} else {
					exps++
				}
			} else {
				e = math.Exp(x)
				exps++
			}
			id = i0 * (e - 1)
			didvd = i0 * invScale * e
		}
		f := iph - id - vd*invRsh - i
		if !isFinite(f) {
			return 0, 0, 0, false
		}
		if math.Abs(f)+fErr <= acceptBase+acceptRel*math.Abs(i) {
			if state != nil {
				state.accept(c, v, iph, i, didvd+invRsh)
			}
			return i, iter + 1, exps, true
		}
		slope := -didvd*rs - rsInvRsh - 1
		if !(slope < 0) || math.IsInf(slope, 0) {
			return 0, 0, 0, false
		}
		step := f / slope // the update is i -> i - step
		next := i - step
		if !isFinite(next) {
			return 0, 0, 0, false
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
			m := c.curvCoef * e
			if growth > 0 {
				m /= 1 - growth
			}
			errBound := 0.5*m*step*step + 1.5*fErr
			if errBound <= 0.5*(acceptBase+acceptRel*math.Abs(next)) {
				if state != nil {
					// The tangent is the one at i: a warm guess only
					// needs it close.
					state.accept(c, v, iph, next, didvd+invRsh)
				}
				return next, iter + 1, exps, true
			}
		}
		i = next
	}
	return 0, 0, 0, false
}

// currentBisect is the original solver, kept verbatim as the fallback and
// the correctness oracle: bisection on I over [-iph, iph] (extended
// geometrically below -iph when the operating point lies far beyond Voc),
// exploiting that f is strictly decreasing in I. It is not search.Bisect:
// it is the reference replayBisect mirrors operation for operation.
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
// evaluated just as the bisection would. It also reports whether the replay
// reached the root's binade and whether a certified block prefix served it
// there, which only the package's tests read. Its loops decide most probes
// without a residual, which search.Bisect's predicate cannot express.
func (c *Cell) replayBisect(v, iph, root float64) (i float64, binade, blocked bool) {
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
			binade = true
			lo, hi, iter, blocked = replayBinade(lb, hb, rb, margin, iter)
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
	return 0.5 * (lo + hi), binade, blocked
}

// replayBinade continues replayBisect from iteration iter on the bit
// patterns lb, hb of a bracket that shares the sign and exponent field of
// the root's bit pattern rb (the integer replay of the file header): a
// certified block prefix when there is one, then the level loop. It
// returns the bracket and iteration at the first in-band probe, which the
// caller's banded loop re-runs, or where the float loop test would end the
// bisection, and whether the block prefix was certified.
func replayBinade(lb, hb, rb uint64, margin float64, iter int) (lo, hi float64, next int, blocked bool) {
	stopN, bandN := binadeThresholds(rb, margin)
	lb, hb, kb := replayBlocks(lb, hb, rb, stopN, bandN, iter)
	lb, hb, iter = replayLevels(lb, hb, rb, stopN, bandN, iter+kb)
	return math.Float64frombits(lb), math.Float64frombits(hb), iter, kb > 0
}

// binadeThresholds returns the integer replay's loop and band thresholds in
// ulps of rb's binade: floor(1e-12/u) and floor(margin/u), clamped at 2^53.
func binadeThresholds(rb uint64, margin float64) (stopN, bandN uint64) {
	u := math.Float64frombits(rb>>52<<52) * 0x1p-52 // the binade's ulp, exact even when subnormal
	stop, band := 1e-12/u, margin/u
	if stop > 0x1p53 {
		stop = 0x1p53
	}
	if band > 0x1p53 {
		band = 0x1p53
	}
	return uint64(stop), uint64(band)
}

// replayLevels is the integer level loop: one bisection level per pass on
// the bit patterns, from iteration iter. It stops at the first in-band
// probe, once the width is at most stopN, or at the iteration cap.
func replayLevels(lb, hb, rb, stopN, bandN uint64, iter int) (uint64, uint64, int) {
	band2 := 2 * bandN
	for ; iter < maxSolverIterations && hb-lb > stopN; iter++ {
		mb := midBits(lb, hb)
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
	return lb, hb, iter
}

// midBits is the bit pattern of 0.5*(lo+hi) for lo, hi in one binade: s>>1
// truncates the halved sum of the patterns, and an odd sum rounds up to
// even exactly when the truncated significand is odd.
func midBits(lb, hb uint64) uint64 {
	s := lb + hb
	return s>>1 + (s & (s >> 1) & 1)
}

// replayBlocks is the block replay of the file header: it guesses the
// level loop's first kb decisions from the root's position, computes the
// bracket they lead to four levels per table lookup, and returns it with kb
// when the certificate holds. Otherwise it returns the bracket unchanged
// and kb = 0.
func replayBlocks(lb, hb, rb, stopN, bandN uint64, iter int) (uint64, uint64, int) {
	w0 := hb - lb
	if !(lb < rb && rb <= hb && w0 > stopN) {
		return lb, hb, 0
	}
	k1 := bits.Len64(w0) - bits.Len64(stopN) // K1: the first k with w0>>k <= stopN
	if w0>>k1 > stopN {
		k1++
	}
	kb := (k1 - 1) &^ 3
	if kb == 0 || iter+kb > maxSolverIterations {
		return lb, hb, 0
	}
	// The guessed path is the root's position scaled to kb levels. The
	// distances are below 2^52, so the signed conversions are exact and
	// compile to single instructions.
	j := int64(float64(int64(rb-lb)) / float64(int64(w0)) * float64(int64(1)<<kb))
	if j >= 1<<kb {
		j = 1<<kb - 1
	}
	table := blockTable()
	l, state, w := lb, lb&1, w0
	d := uint64(j) << (64 - kb) // the next four decisions are d's top bits
	for n := kb; n > 0; n -= 4 {
		e := table[state|d>>60<<2|(w&31)<<6]
		w >>= 4
		l += w*(d>>60) + uint64(e>>2)
		state = uint64(e & 3)
		d <<= 4
	}
	h := l + w + state>>1
	if l+bandN < rb && rb+bandN < h {
		return l, h, kb
	}
	return lb, hb, 0
}

// replayLevel is one level of the block replay's transducer: from state
// (p, δ) = (state&1, state>>1), decision d (1 = right) and bits b0, b1 of
// w0 at the level, it returns the next state and the midpoint offset's
// rounding bit f.
func replayLevel(state, d, b0, b1 uint) (next, f uint) {
	p, delta := state&1, state>>1
	odd := b0 ^ delta
	if odd == 1 {
		f = p ^ b1
	} else {
		f = b0 & delta
	}
	if d == 0 {
		return p | f<<1, f
	}
	return (p ^ b1 ^ f) | (f^odd)<<1, f
}

// replayTable holds the block replay's four-level steps, indexed by
// state | D<<2 | (w0>>k0 & 31)<<6: the next state in the low two bits and
// the offset term Σ dᵢ·(fᵢ + ((W&7)>>i)) above them. blockTable builds it
// from replayLevel on first use, so programs that never solve pay nothing.
var (
	replayTable     [2048]uint8
	replayTableOnce sync.Once
)

// blockTable returns replayTable, built.
func blockTable() *[2048]uint8 {
	replayTableOnce.Do(buildReplayTable)
	return &replayTable
}

// buildReplayTable runs four levels of replayLevel for each entry.
func buildReplayTable() {
	for i := range replayTable {
		state, d, w := uint(i&3), uint(i>>2&15), uint(i>>6)
		g := uint(0)
		for l := uint(0); l < 4; l++ {
			dl := d >> (3 - l) & 1
			next, f := replayLevel(state, dl, w>>l&1, w>>(l+1)&1)
			g += dl * (f + (w>>1&7)>>l)
			state = next
		}
		replayTable[i] = uint8(state | g<<2)
	}
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
