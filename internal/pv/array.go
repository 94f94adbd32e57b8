package pv

// Series strings of cells with bypass diodes, and the replay that makes
// their segment-voltage solve cheap.
//
// A string's current at terminal voltage v is found by nested bisection:
// the outer one over the string current (stringSolver.current) sums the
// segment voltages at each probe, and the inner one (bisectSegment) finds
// each lit segment's voltage at that current by bisecting
// "cell.Current(mid, irr) > I" over [0, voc_i] down to voltageSolveTolerance.
// Every inner probe is an implicit PV solve, ~24 per segment solve.
//
// Replay. As newton.go does for the cell's current bisection, the segment
// solve replays the inner bisection's decisions against the exact terminal
// voltage v* at which the segment carries I, keeping its bracket, midpoint
// expression, stop test and iteration cap; only the decision changes.
//
//   - Root. With iph the photocurrent, s the junction scale and A = iph − I,
//     the diode voltage vd* solves h(vd) = A − I0·(e^{vd/s} − 1) − vd/Rsh = 0,
//     and v* = vd* − I·Rs. For A > 0 the root is positive, where the
//     diode's clamp at vd <= 0 does not apply; h is strictly decreasing and
//     concave there. Newton starts from the smaller of the Rsh-free root
//     s·ln(A/I0 + 1) and the diode-free root A·Rsh. h <= 0 at both, so the
//     start lies right of the root, and on a concave decreasing function
//     every Newton iterate stays right of it and decreases monotonically.
//   - Root error. A step d = h(x)/|h'(x)| from x with h(x) >= 0 brackets
//     the root in [x, x+d]. From x with h(x) < 0 and 2|d| <= s·ln2,
//     |h'| stays at least |h'(x)|/2 over [x−2|d|, x], so h(x−2|d|) >= 0 and
//     the root lies in [x−2|d|, x]; the Taylor remainder, with
//     |h''|/|h'| <= 1/s right of the root, then puts the next iterate at
//     most 2d²/s right of it. Newton stops once that bound (or d itself,
//     from the left) is at most segmentNewtonTol. Rounding the residual
//     moves the iterate by a few ulps of |vd| + s: the exponential's
//     argument error is relative, and |h'| >= I0·e^{vd/s}/s turns the
//     diode term's error into at most ~eps·(|vd| + s) volts.
//   - Slope bound. The exact terminal current I(v) of the cell model has
//     dI/dv = −G/(1 + Rs·G), G = Id'(vd) + 1/Rsh >= 1/Rsh (the clamp only
//     sets Id' = 0), so |dI/dv| >= 1/(Rs + Rsh): a probe at distance Δ from
//     v* carries a current at least Δ/(Rs + Rsh) away from I.
//   - Current error. With Rs > 0, Cell.Current returns the midpoint of the
//     reference bisection's final bracket (newton.go's replay is
//     bit-identical to it), which is at most 1e-12 A wide, or one or two
//     ulps of iph when that is coarser; the bracket holds the exact current
//     up to the residual's sign noise, ~1e-15·iph since |f'| >= 1. With
//     Rs = 0 Current is the explicit formula and closer still. So the
//     computed current differs from I(v) by less than
//     segmentCurrentErr·(1 + iph), which leaves room for A's own rounding
//     (half an ulp of iph).
//   - Band. A probe farther than
//     band = segmentCurrentErr·(1+iph)·(Rs+Rsh) + segmentVoltageErr·(1 + |vd*| + |I·Rs| + s)
//     from the computed v* is farther than the first term from the exact
//     v*: the second term covers Newton's stop (an eighth of it), the
//     iterate's rounding, the rounding of vd* − I·Rs and of mid − v*. Its
//     current then differs from I by more than Current's error, so
//     "Current(mid) > I" is exactly "mid < v*". For the default cell the
//     band is ~1.2e-8 V against the bisection's 1e-7 V stop, and a
//     replayed segment solve evaluates Current ~0.3 times instead of ~24.
//     Probes inside the band call Current as before.
//   - Fallback and oracle. With an infinite band, bisectSegment is the
//     original loop verbatim. The solve takes it whenever the root's
//     assumptions fail: Rs not non-negative and finite, Rsh, I0 or s not
//     positive and finite, A not positive and finite (which also catches
//     a non-finite iph or I), or Newton not converged within
//     newtonMaxIterations. The package's tests compare the replay against
//     it, alone and, through a solver with stringSolver.verbatim set,
//     under the string's outer solves.
//
// Twins. Strings repeat segments: ExtShading's uniform pattern has three
// lit segments with the same bits, its one-shaded pattern two. A segment's
// voltage at a current is a pure function of its cell's fields and its
// irradiance, so newSolver marks a segment whose cell and irradiance have
// an earlier segment's bits in every field as that segment's twin, and
// stringVoltage copies the twin's voltage at each current probe, still
// summing the segments in order. The verbatim solver solves every segment,
// so the oracle checks the reuse too.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/search"
)

const (
	// segmentCurrentErr bounds Cell.Current's error against the exact
	// terminal current, per (1 + iph): 4x the 1e-12 A reference bracket.
	segmentCurrentErr = 4e-12

	// segmentVoltageErr is the band's voltage term per (1 + |vd*| + |I·Rs| + s).
	segmentVoltageErr = 1e-12

	// segmentNewtonTol is the bound on the Newton root's distance from the
	// exact vd* at which the iteration stops (V): an eighth of the band's
	// least voltage term.
	segmentNewtonTol = segmentVoltageErr / 8

	// bypassDrop is the forward drop of each bypass diode (V).
	bypassDrop = 0.35
)

// Array errors.
var (
	// ErrNoSegments indicates an array built with no segments.
	ErrNoSegments = errors.New("pv: array needs at least one segment")

	// ErrNilSegment indicates a nil cell among an array's segments.
	ErrNilSegment = errors.New("pv: array segment is nil")
)

// Array is a series string of cell segments, each with its own irradiance
// and a bypass diode across it — the standard construction of larger
// harvesting panels. Under partial shading the bypass diodes carry the
// string current around shaded segments, which produces the well-known
// multi-hump P-V curve: the single-cell assumption of a unimodal power
// curve breaks, and MPP tracking must search globally. Construct with
// NewArray.
type Array struct {
	segments []*Cell
}

// NewArray builds a series string over the given segments. It returns
// ErrNoSegments for an empty string and ErrNilSegment for a nil cell.
func NewArray(segments []*Cell) (*Array, error) {
	if len(segments) == 0 {
		return nil, ErrNoSegments
	}
	for i, cell := range segments {
		if cell == nil {
			return nil, fmt.Errorf("%w: segment %d", ErrNilSegment, i)
		}
	}
	return &Array{segments: segments}, nil
}

// stringSolver caches per-segment open-circuit voltages and short-circuit
// currents for one irradiance vector, so the nested bisections of the
// public methods do not re-derive them at every probe.
type stringSolver struct {
	arr  *Array
	irrs []float64
	vocs []float64
	iscs []float64

	// twins[i] is the first earlier segment whose cell and irradiance have
	// segment i's bits in every field, or -1. A segment's voltage is a pure
	// function of those bits and the current, so stringVoltage solves a
	// twin's voltage once per probe; volts holds the probe's segment
	// voltages for the reuse.
	twins []int
	volts []float64

	// verbatim skips the replay and the twins, so every segment solve is
	// the original bisection. Only the package's tests set it, as their
	// oracle.
	verbatim bool
}

func (a *Array) newSolver(irradiances []float64) *stringSolver {
	n := len(a.segments)
	s := &stringSolver{
		arr:   a,
		irrs:  make([]float64, n),
		vocs:  make([]float64, n),
		iscs:  make([]float64, n),
		twins: make([]int, n),
		volts: make([]float64, n),
	}
	for i, cell := range a.segments {
		if i < len(irradiances) && irradiances[i] > 0 {
			s.irrs[i] = irradiances[i]
			s.vocs[i] = cell.OpenCircuitVoltage(s.irrs[i])
			s.iscs[i] = cell.ShortCircuitCurrent(s.irrs[i])
		}
		s.twins[i] = -1
		for j := range i {
			if math.Float64bits(s.irrs[j]) == math.Float64bits(s.irrs[i]) && sameCell(a.segments[j], cell) {
				s.twins[i] = j
				break
			}
		}
	}
	return s
}

// sameCell reports whether two cells have the same bits in every field.
func sameCell(a, b *Cell) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a == b || same(a.photoCurrentFullSun, b.photoCurrentFullSun) &&
		same(a.saturationCurrent, b.saturationCurrent) && same(a.idealityFactor, b.idealityFactor) &&
		a.seriesCells == b.seriesCells && same(a.seriesResistance, b.seriesResistance) &&
		same(a.shuntResistance, b.shuntResistance)
}

// segmentVoltage returns the voltage across segment i when the string
// carries `current`: the cell's own voltage if it can source the current,
// otherwise the bypass diode clamps it at -bypassDrop.
func (s *stringSolver) segmentVoltage(i int, current float64) float64 {
	if s.irrs[i] <= 0 || current >= s.iscs[i] {
		// Dark or over-driven: the bypass diode conducts.
		return -bypassDrop
	}
	vstar, band := 0.0, math.Inf(1)
	if !s.verbatim {
		vstar, band = s.segmentRoot(i, current)
	}
	v, _ := s.bisectSegment(i, current, vstar, band)
	return v
}

// segmentRoot returns the terminal voltage v* at which segment i carries
// `current` and the replay's guard band around it (see the file header),
// or an infinite band when the root's assumptions fail.
func (s *stringSolver) segmentRoot(i int, current float64) (vstar, band float64) {
	c := s.arr.segments[i]
	rs, rsh, i0, js := c.seriesResistance, c.shuntResistance, c.saturationCurrent, c.scale
	iph := c.photoCurrent(s.irrs[i])
	a := iph - current
	if !(rs >= 0 && isFinite(rs) && rsh > 0 && isFinite(rsh) && i0 > 0 && isFinite(i0) &&
		js > 0 && isFinite(js) && a > 0 && isFinite(a)) { // a finite implies iph and current are
		return 0, math.Inf(1)
	}
	invS, invRsh := 1/js, 1/rsh
	vd := math.Min(js*math.Log1p(a/i0), a*rsh) // both roots bound vd* from above
	for iter := 0; iter < newtonMaxIterations; iter++ {
		e := math.Exp(vd * invS)
		d := (a - i0*(e-1) - vd*invRsh) / (i0*invS*e + invRsh) // h/|h'|: the step to the next iterate
		next := vd + d
		if !isFinite(next) {
			break
		}
		if d >= 0 && d <= segmentNewtonTol || d < 0 && -2*d <= js*math.Ln2 && 2*d*d <= segmentNewtonTol*js {
			vstar = next - current*rs
			band = segmentCurrentErr*(1+iph)*(rs+rsh) +
				segmentVoltageErr*(1+math.Abs(next)+math.Abs(current*rs)+js)
			return vstar, band
		}
		vd = next
	}
	return 0, math.Inf(1)
}

// bisectSegment bisects segment i's voltage at `current` over [0, voc_i].
// A probe farther than band from vstar is decided by its position; any
// other calls cell.Current. With an infinite band this is the original
// solver verbatim, the replay's fallback and oracle. It also returns the
// number of Current evaluations, which only the package's tests read. It
// is not search.Bisect: in ext-shading's hot loop the band test decides
// most probes without a call.
func (s *stringSolver) bisectSegment(i int, current, vstar, band float64) (v float64, evals int) {
	cell, irr := s.arr.segments[i], s.irrs[i]
	lo, hi := 0.0, s.vocs[i]
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		mid := 0.5 * (lo + hi)
		var below bool // the segment sources more than `current` at mid
		if math.Abs(mid-vstar) > band {
			below = mid < vstar
		} else {
			below = cell.Current(mid, irr) > current
			evals++
		}
		if below {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), evals
}

// stringVoltage sums the segment voltages at the given string current, in
// segment order, solving each twin once.
func (s *stringSolver) stringVoltage(current float64) float64 {
	var sum float64
	for i, t := range s.twins {
		if t >= 0 && !s.verbatim {
			s.volts[i] = s.volts[t]
		} else {
			s.volts[i] = s.segmentVoltage(i, current)
		}
		sum += s.volts[i]
	}
	return sum
}

// current inverts stringVoltage (monotone decreasing) at terminal voltage v.
func (s *stringSolver) current(v float64) float64 {
	maxIsc := 0.0
	for _, isc := range s.iscs {
		if isc > maxIsc {
			maxIsc = isc
		}
	}
	if maxIsc == 0 {
		return 0
	}
	if s.stringVoltage(0) <= v {
		return 0 // at or beyond open circuit
	}
	lo, hi := search.Bisect(0, maxIsc, 1e-8, maxSolverIterations,
		func(i float64) bool { return s.stringVoltage(i) > v })
	return 0.5 * (lo + hi)
}

// power evaluates delivered power on a prepared solver.
func (s *stringSolver) power(v float64) float64 {
	if v <= 0 {
		return 0
	}
	i := s.current(v)
	if i <= 0 {
		return 0
	}
	return v * i
}

// Power returns the delivered power (W) at terminal voltage v.
func (a *Array) Power(v float64, irradiances []float64) float64 {
	return a.newSolver(irradiances).power(v)
}

// GlobalMPP finds the global maximum power point of the possibly
// multi-humped P-V curve by dense scan plus local golden-section
// refinement — a golden-section search alone can lock onto the wrong hump
// under partial shading.
func (a *Array) GlobalMPP(irradiances []float64) (voltage, power float64) {
	return a.newSolver(irradiances).globalMPP()
}

// globalMPP is GlobalMPP on a prepared solver.
func (s *stringSolver) globalMPP() (voltage, power float64) {
	voc := s.stringVoltage(0)
	if voc <= 0 {
		return 0, 0
	}
	const scanPoints = 300
	bestV, bestP := 0.0, 0.0
	for k := 1; k < scanPoints; k++ {
		v := voc * float64(k) / scanPoints
		if p := s.power(v); p > bestP {
			bestV, bestP = v, p
		}
	}
	// Refine around the best scan point.
	step := voc / scanPoints
	lo, hi := search.GoldenMax(math.Max(0, bestV-step), math.Min(voc, bestV+step),
		voltageSolveTolerance, maxSolverIterations, s.power)
	v := 0.5 * (lo + hi)
	if p := s.power(v); p > bestP {
		return v, p
	}
	return bestV, bestP
}

// LocalMPPs returns the voltages of all local power maxima found on a
// dense scan — under partial shading there is one per differently-lit
// segment group. Useful for demonstrating why local hill climbing fails.
func (a *Array) LocalMPPs(irradiances []float64) []float64 {
	return a.newSolver(irradiances).localMPPs()
}

// localMPPs is LocalMPPs on a prepared solver.
func (s *stringSolver) localMPPs() []float64 {
	voc := s.stringVoltage(0)
	if voc <= 0 {
		return nil
	}
	const scanPoints = 300
	powers := make([]float64, scanPoints+1)
	for k := 0; k <= scanPoints; k++ {
		powers[k] = s.power(voc * float64(k) / scanPoints)
	}
	var peaks []float64
	for k := 1; k < scanPoints; k++ {
		if powers[k] > powers[k-1] && powers[k] >= powers[k+1] && powers[k] > 1e-9 {
			peaks = append(peaks, voc*float64(k)/scanPoints)
		}
	}
	return peaks
}
