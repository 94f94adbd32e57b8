package pv

import (
	"math"
	"math/rand"
	"testing"
)

// sweepVoltages returns a voltage grid covering every solver regime for the
// given cell: short circuit, the power-producing knee, open circuit, and
// far beyond Voc where the current goes negative (including the bracket
// extension region).
func sweepVoltages(c *Cell, irradiance float64) []float64 {
	voc := c.OpenCircuitVoltage(irradiance)
	vs := []float64{-0.5, -1e-9, 0, 1e-9}
	for f := 0.05; f <= 1.30; f += 0.05 {
		vs = append(vs, f*voc)
	}
	// Far beyond Voc: operating currents below -Iph trigger the geometric
	// bracket extension in the reference bisection.
	vs = append(vs, voc+0.1, voc+0.5, 2*voc, 5*voc, 10*voc+1)
	return vs
}

// TestCurrentFastMatchesReference pins the headline guarantee on the
// default calibration: the Newton fast path (stateless and warm-started)
// returns bit-identical values to the reference bisection at every voltage
// and irradiance regime, including beyond-Voc negative currents.
func TestCurrentFastMatchesReference(t *testing.T) {
	c := NewCell()
	for _, irr := range []float64{IndoorDim, IndoorBright, QuarterSun, HalfSun, FullSun, 1e-6, 1e-12} {
		var warm SolverState
		for _, v := range sweepVoltages(c, irr) {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Errorf("Current(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Errorf("CurrentWarm(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
		}
	}
}

// TestCurrentWarmStateIndependence drives one SolverState through a
// deliberately hostile sequence — large voltage jumps, irradiance steps,
// beyond-Voc excursions — and checks that the carried state never changes a
// result: CurrentWarm must equal the stateless solve bit-for-bit no matter
// what the previous operating point was.
func TestCurrentWarmStateIndependence(t *testing.T) {
	c := NewCell()
	var warm SolverState
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 5000; n++ {
		v := rng.Float64()*4 - 0.5            // [-0.5, 3.5) V spans all regimes
		irr := math.Pow(10, -4*rng.Float64()) // [1e-4, 1]
		want := c.CurrentReference(v, irr)
		if got := c.CurrentWarm(v, irr, &warm); got != want {
			t.Fatalf("step %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
		}
	}
}

// TestCurrentWarmTransientProfile mimics the simulator's actual call
// pattern — a capacitor voltage moving by microvolts per step, under
// constant light or under light that changes every step as an interpolated
// weather trace does — and checks bit-identity along the whole trajectory,
// plus that the state actually warms up.
func TestCurrentWarmTransientProfile(t *testing.T) {
	cases := []struct {
		name string
		irr  func(n int) float64
	}{
		{"constant half sun", func(int) float64 { return HalfSun }},
		{"drifting irradiance", func(n int) float64 {
			// A slow cloud wave plus a per-step ramp: a new photocurrent on
			// every call, sweeping roots across several binades.
			return 0.02 + 0.5*(1+math.Sin(float64(n)/900)) + 1e-5*float64(n%97)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCell()
			var warm SolverState
			v := 0.2
			for n := 0; n < 20000; n++ {
				v += 5e-5 * math.Sin(float64(n)/300) // slow charge/discharge wiggle
				irr := tc.irr(n)
				want := c.CurrentReference(v, irr)
				if got := c.CurrentWarm(v, irr, &warm); got != want {
					t.Fatalf("step %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
				}
			}
			if warm.cell != c {
				t.Error("solver state never warmed up over a smooth transient")
			}
			warm.Reset()
			if warm.cell != nil {
				t.Error("Reset left the state warm")
			}
		})
	}
}

// TestCurrentWarmRepeatMemo checks the warm state's repeat memo: solving
// one point again answers from the state with the bits of the first solve,
// and a state shared by two cells, solving the same (v, irradiance) in
// turn, answers each with its own cell's reference. The second cell
// differs in one parameter, or is a distinct cell with identical ones.
// Photocurrent is not among the parameters, because it moves Iph, which is
// part of the key.
func TestCurrentWarmRepeatMemo(t *testing.T) {
	base := NewCell()
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"series resistance", []Option{WithSeriesResistance(2.5)}},
		{"shunt resistance", []Option{WithShuntResistance(1000)}},
		{"saturation current", []Option{WithSaturationCurrent(2 * base.saturationCurrent)}},
		{"ideality factor", []Option{WithIdealityFactor(1.6)}},
		{"series cells", []Option{WithSeriesCells(4)}},
		{"identical parameters", nil},
	} {
		other := NewCell(tc.opts...)
		for _, irr := range []float64{IndoorDim, HalfSun, FullSun} {
			for _, v := range []float64{0, 0.6, 1.0, 1.3} {
				want := [2]float64{base.CurrentReference(v, irr), other.CurrentReference(v, irr)}
				if tc.opts != nil && want[0] == want[1] {
					t.Fatalf("%s: the two cells agree at (%g, %g); the case shows nothing", tc.name, v, irr)
				}
				var shared SolverState
				for n := 0; n < 6; n++ {
					k := n % 2
					c := [2]*Cell{base, other}[k]
					if got := c.CurrentWarm(v, irr, &shared); got != want[k] {
						t.Fatalf("%s, solve %d (cell %d) at (%g, %g) = %x, its reference %x",
							tc.name, n, k, v, irr, got, want[k])
					}
				}
			}
		}
	}
	var warm SolverState
	const v, irr = 0.9, HalfSun
	first := base.CurrentWarm(v, irr, &warm)
	if !warm.repeats(base, v, base.photoCurrent(irr)) {
		t.Fatal("a warm state does not recognise the solve it just accepted")
	}
	if got := base.CurrentWarm(v, irr, &warm); got != first {
		t.Fatalf("repeat = %x, first solve %x", got, first)
	}
	if warm.repeats(base, math.Nextafter(v, 1), base.photoCurrent(irr)) || warm.repeats(base, v, math.Nextafter(base.photoCurrent(irr), 1)) {
		t.Error("the memo answers a key one ulp away")
	}
}

// randomSolverCell draws a physically plausible calibration: the ranges
// cover paper-scale modules through larger panels, with enough dynamic
// range to hit the solver's edge regimes. Options in override apply after the draw.
func randomSolverCell(rng *rand.Rand, override ...Option) *Cell {
	return NewCell(append([]Option{
		WithPhotoCurrent(math.Pow(10, -4+3*rng.Float64())),       // 0.1 mA .. 100 mA
		WithSaturationCurrent(math.Pow(10, -12+6*rng.Float64())), // 1 pA .. 1 uA
		WithIdealityFactor(1 + rng.Float64()),                    // 1 .. 2
		WithSeriesCells(1 + rng.Intn(6)),                         // 1 .. 6 junctions
		WithSeriesResistance(math.Pow(10, -1+2*rng.Float64())),   // 0.1 .. 10 ohm
		WithShuntResistance(math.Pow(10, 2+3*rng.Float64())),     // 100 .. 100k ohm
	}, override...)...)
}

// TestCurrentFastPropertyRandomCells is the satellite property test: for
// random cell parameters, voltages and irradiances, the fast solve matches
// the reference bisection bit-for-bit (a strictly stronger property than
// the 2e-7*Iph tolerance bound, which is asserted as well against the raw
// Newton root).
func TestCurrentFastPropertyRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3000; n++ {
		c := randomSolverCell(rng)
		irr := math.Pow(10, -3*rng.Float64())
		voc := c.OpenCircuitVoltage(irr)
		var warm SolverState
		for _, v := range []float64{
			-0.2, 0, rng.Float64() * voc, voc, voc * (1 + rng.Float64()), 3*voc + 1,
		} {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Fatalf("cell %d: Current(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Fatalf("cell %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			// Tolerance-scale check on the Newton root itself: the root and
			// the bisection answer must agree far inside 2e-7*Iph — except
			// under negative bias, where the true root can exceed Iph and
			// the reference bracket [-Iph, Iph] clamps at its upper end (it
			// only ever extends downward); the replay reproduces that clamp
			// bit-exactly, so only in-bracket roots are compared here.
			iph := c.photoCurrent(irr)
			// 1e-12 covers the bisection's own final-interval quantization,
			// which dominates for sub-microamp photocurrents.
			if root, _, _, ok := c.newtonRoot(v, iph, 0, nil); ok && root <= iph {
				if tol := 2e-7*iph + 1e-12; math.Abs(root-want) > tol {
					t.Fatalf("cell %d: newton root %v vs reference %v exceeds %g", n, root, want, tol)
				}
			}
		}
	}
}

// voltageForCurrent returns the voltage at which c's reference current at
// irr falls through target, bisecting v down to adjacent floats (the
// current falls as v rises).
func voltageForCurrent(c *Cell, irr, target float64) float64 {
	lo, hi := -1e3, 1e3
	for mid := 0.5 * (lo + hi); mid != lo && mid != hi; mid = 0.5 * (lo + hi) {
		if c.CurrentReference(mid, irr) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestCurrentReplayBinadeEdges drives random cells to the edges of the
// integer replay (newton.go): Newton roots a few ulps above and below a
// power of two, where the bracket straddles a binade for many levels;
// photocurrents that are exact powers of two, so the first bracket
// [-Iph, Iph] ends on a binade boundary (up to kiloamps, where the stop
// width is a handful of ulps); photocurrents whose bracket halves onto the
// 1e-12 A stop width; negative roots beyond Voc, which never leave the
// float loop; and the largest photocurrents randomSolverCell draws.
// Every solve, stateless and warm, must match the reference bit for bit,
// and the test fails if it did not reach each edge.
func TestCurrentReplayBinadeEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(c *Cell, v, irr float64, warm *SolverState) {
		t.Helper()
		want := c.CurrentReference(v, irr)
		if got := c.Current(v, irr); got != want {
			t.Fatalf("Current(%x, %x) = %x, reference %x", v, irr, got, want)
		}
		if got := c.CurrentWarm(v, irr, warm); got != want {
			t.Fatalf("CurrentWarm(%x, %x) = %x, reference %x", v, irr, got, want)
		}
	}
	var above, below, negative int
	for n := 0; n < 400; n++ {
		var c *Cell
		switch n % 4 {
		case 0:
			c = randomSolverCell(rng)
		case 1:
			c = randomSolverCell(rng, WithPhotoCurrent(0.1*(1-0.01*rng.Float64())))
		case 2:
			c = randomSolverCell(rng, WithPhotoCurrent(math.Ldexp(1, -14+rng.Intn(27))))
		default:
			// The bracket width is 2*Iph/2^k after k levels, so an Iph
			// within a few ulps-worth of 2^(k-1)*1e-12 ends the bisection
			// with its width exactly at the integer stop threshold.
			jitter := 1 + 4e-5*(2*rng.Float64()-1)
			c = randomSolverCell(rng, WithPhotoCurrent(math.Ldexp(1e-12, 30+rng.Intn(8))*jitter))
		}
		const irr = 1.0 // photocurrent = the cell's full-sun value, bit for bit
		iph := c.photoCurrent(irr)
		var warm SolverState
		for _, v := range sweepVoltages(c, irr) {
			check(c, v, irr, &warm)
			if root, _, _, ok := c.newtonRoot(v, iph, 0, nil); ok && root < 0 {
				negative++
			}
		}
		// Step the voltage away from where the current crosses a power of
		// two by 1, 2, 4, ... ulps on either side.
		pow2 := math.Ldexp(1, math.Ilogb(iph*(0.05+0.9*rng.Float64())))
		vx := voltageForCurrent(c, irr, pow2)
		ulp := math.Nextafter(vx, math.Inf(1)) - vx
		for e := 0; e <= 40; e++ {
			for _, sign := range []float64{-1, 1} {
				v := vx + sign*math.Ldexp(ulp, e)
				check(c, v, irr, &warm)
				root, _, _, ok := c.newtonRoot(v, iph, 0, nil)
				switch {
				case !ok:
				case root >= pow2 && root < pow2*(1+1e-9):
					above++
				case root < pow2 && root > pow2*(1-1e-9):
					below++
				}
			}
		}
	}
	if above == 0 || below == 0 || negative == 0 {
		t.Fatalf("edges not reached: %d roots just above a power of two, %d just below, %d negative",
			above, below, negative)
	}
}

// TestReplayLevelRule checks the block replay's one-level transducer
// (replayLevel) exhaustively on small integer brackets against the level
// loop's midpoint formula: every state (p, δ), both decisions and every
// pair of width bits (b0, b1), at several levels k and bracket offsets.
func TestReplayLevelRule(t *testing.T) {
	var seen [4][2][4]bool
	for k := uint(0); k < 4; k++ {
		for w0 := uint64(0); w0 < 64; w0++ {
			b0, b1 := uint(w0>>k&1), uint(w0>>(k+1)&1)
			for delta := uint64(0); delta < 2; delta++ {
				for lb := uint64(1000); lb < 1008; lb++ {
					hb := lb + w0>>k + delta
					mb := midBits(lb, hb)
					state := uint(lb&1) | uint(delta)<<1
					for d := uint(0); d < 2; d++ {
						seen[state][d][b0|b1<<1] = true
						next, f := replayLevel(state, d, b0, b1)
						if mb != lb+w0>>(k+1)+uint64(f) {
							t.Fatalf("k=%d w0=%d δ=%d lb=%d: midpoint offset %d, rule says %d+%d",
								k, w0, delta, lb, mb-lb, w0>>(k+1), f)
						}
						nl, nh := lb, mb
						if d == 1 {
							nl, nh = mb, hb
						}
						want := uint(nl&1) | uint(nh-nl-w0>>(k+1))<<1
						if nh-nl-w0>>(k+1) > 1 || next != want {
							t.Fatalf("k=%d w0=%d δ=%d lb=%d d=%d: bracket [%d, %d] has state %d, rule says %d",
								k, w0, delta, lb, d, nl, nh, want, next)
						}
					}
				}
			}
		}
	}
	for state := range seen {
		for d := range seen[state] {
			for b := range seen[state][d] {
				if !seen[state][d][b] {
					t.Errorf("state %d, decision %d, bits %02b never checked", state, d, b)
				}
			}
		}
	}
}

// TestReplayTable checks every entry of the block replay's table against
// four forced-decision levels of the level loop's midpoint formula, on
// brackets of width (w0>>k0)+δ with random high bits in w0 and random
// offsets: the bracket the four levels reach must start at
// L + (W>>3)·D + g, with W = w0>>(k0+1) and g the entry's offset term, and
// be in the entry's next state.
func TestReplayTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := blockTable()
	for i, e := range table {
		state, d, low := uint64(i&3), uint64(i>>2&15), uint64(i>>6)
		for n := 0; n < 8; n++ {
			k0 := uint(rng.Intn(8))
			w0 := (rng.Uint64()>>20)<<(k0+5) | low<<k0 | rng.Uint64()&(1<<k0-1)
			lb := rng.Uint64()>>2&^1 | state&1
			l, h := lb, lb+w0>>k0+state>>1
			for lvl := 3; lvl >= 0; lvl-- {
				mb := midBits(l, h)
				if d>>lvl&1 == 1 {
					l = mb
				} else {
					h = mb
				}
			}
			wantL := lb + w0>>(k0+4)*d + uint64(e>>2)
			width := w0 >> (k0 + 4)
			if l != wantL || h-l-width > 1 || uint64(e&3) != l&1|(h-l-width)<<1 {
				t.Fatalf("entry %d (state %d, D %04b, bits %05b) at k0=%d w0=%#x: levels reach [%d, %d], table says L=%d, state %d",
					i, state, d, low, k0, w0, l, h, wantL, e&3)
			}
		}
	}
}

// FuzzReplayBinadeParity checks the block replay against the level loop
// alone on raw brackets: lb, hb and rb are mapped into one binade (rb's
// exponent field when it is positive normal and below the top binade; the
// sign bit is dropped), and replayBinade must return exactly the bracket
// and iteration that replayLevels reaches from the original bracket.
func FuzzReplayBinadeParity(f *testing.F) {
	b := math.Float64bits
	one, two := b(1.0), b(2.0)
	f.Add(one, two-1, one+1, 1e-300, 0)           // rb = lb+1
	f.Add(one, two-1, two-1, 1e-300, 0)           // rb = hb
	f.Add(one, b(1.75), b(1.3), 1e-300, 0)        // a root well inside
	f.Add(one, b(1.75), b(1.3), 1e-13, 7)         // a band of a few hundred ulps
	f.Add(one, one+4503<<20, one+1234567, 0.0, 3) // w0>>20 == stopN in [1, 2)
	f.Add(one, one+4504<<20, one+1<<25, 0.0, 3)   // w0>>20 == stopN+1
	f.Add(one, b(1.5), b(1.25), 1.0, 0)           // a margin wider than the bracket
	f.Add(one, two-1, b(1.6), 1e-300, 197)        // iter within 4 of the cap
	f.Add(one, two-1, b(1.6), 1e-300, 199)        // one level below the cap
	// The bottom and top of a binade, in the bottom and top replayed ones.
	for _, e := range []uint64{1, 2045} {
		f.Add(e<<52, (e+1)<<52-1, e<<52|12345, 0.0, 0)
		f.Add(e<<52, (e+1)<<52-1, (e+1)<<52-12345, 1e-310, 0)
	}
	// Roots at the first midpoint of an odd width, with either rounding
	// bit, and one ulp either side, in a binade whose stop width is below
	// one ulp: the guess lands on an in-band probe.
	base := b(8192.0)
	for _, w := range []uint64{1001, 1003, 1<<40 + 1, 1<<40 + 3} {
		mid := midBits(base, base+w)
		for _, rb := range []uint64{mid - 1, mid, mid + 1} {
			f.Add(base, base+w, rb, 1e-300, 0)
		}
	}
	f.Fuzz(func(t *testing.T, lb, hb, rb uint64, margin float64, iter int) {
		if !(margin >= 0) || iter < 0 || iter > maxSolverIterations {
			t.Skip()
		}
		exp := rb >> 52 & 0x7ff // rb's exponent field, moved into the replayed binades
		if exp == 0 || exp > 2045 {
			exp = 1 + exp%2045
		}
		const sig = 1<<52 - 1
		lb, hb, rb = exp<<52|lb&sig, exp<<52|hb&sig, exp<<52|rb&sig
		if lb > hb {
			lb, hb = hb, lb
		}
		stopN, bandN := binadeThresholds(rb, margin)
		wl, wh, wi := replayLevels(lb, hb, rb, stopN, bandN, iter)
		lo, hi, next, _ := replayBinade(lb, hb, rb, margin, iter)
		if gl, gh := math.Float64bits(lo), math.Float64bits(hi); gl != wl || gh != wh || next != wi {
			t.Fatalf("replayBinade(%#x, %#x, %#x, %g, %d) = [%#x, %#x] at %d, level loop [%#x, %#x] at %d",
				lb, hb, rb, margin, iter, gl, gh, next, wl, wh, wi)
		}
	})
}

// pathMix counts how the fast path served a run of solves. Both fast paths
// fall back quietly by design — a block prefix that fails its certificate
// replays level by level, a poor warm start costs Newton iterations — so
// only these counts show a regression that leaves every result unchanged.
type pathMix struct {
	warm, oneIteration int // warm solves, and those accepted at the first evaluation
	binade, blocked    int // replays that reached the root's binade, and those a block prefix served
	solves, exps       int // solves, and the fresh math.Exp calls their Newton iterations made
}

// solve runs currentFast's steps on (v, irr) with warm, checks the result
// against the reference and counts the path.
func (m *pathMix) solve(t *testing.T, c *Cell, v, irr float64, warm *SolverState) {
	t.Helper()
	iph := c.photoCurrent(irr)
	wasWarm := warm.cell == c
	root, iters, exps, ok := c.newtonRoot(v, iph, c.newtonStart(v, iph, warm), warm)
	if !ok {
		t.Fatalf("Newton failed at v=%g irr=%g", v, irr)
	}
	m.solves++
	m.exps += exps
	got, binade, blocked := c.replayBisect(v, iph, root)
	if want := c.CurrentReference(v, irr); got != want {
		t.Fatalf("replay at v=%g irr=%g = %v, reference %v", v, irr, got, want)
	}
	warm.lastI = got
	if wasWarm {
		m.warm++
		if iters == 1 {
			m.oneIteration++
		}
	}
	if binade {
		m.binade++
		if blocked {
			m.blocked++
		}
	}
}

// TestReplayPathMix pins the fast paths' hit rates where a silent fallback
// would otherwise only show as lost speed: on BenchmarkCellCurrentWarmDrifting's
// voltage and light profile, and on random cells under small drifts, block
// prefixes serve at least 90% of the in-binade replays, and on the profile
// at least 85% of warm solves converge at the first Newton evaluation from
// the tangent start. A browned-out node's solves alternate between 0 V and
// a recharge of millivolts (Iph*1e-4 s/100 µF, the scenario engine's
// 2-cycle), which moves the diode argument farther than expAnchorMaxDelta
// under light rising through a morning: one exp anchor pays a math.Exp on
// nearly every such solve, and with two at most one solve in four may.
func TestReplayPathMix(t *testing.T) {
	var drift pathMix
	c := NewCell()
	var warm SolverState
	for i := 0; i < 20000; i++ {
		drift.solve(t, c, rampVoltage(i), driftIrradiance(i), &warm)
	}
	var random pathMix
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		c := randomSolverCell(rng)
		irr := 0.05 + 0.95*rng.Float64()
		v := c.OpenCircuitVoltage(irr) * (0.2 + 0.7*rng.Float64())
		dv, dirr := 1e-5*(2*rng.Float64()-1), 1e-5*(2*rng.Float64()-1)
		var warm SolverState
		for step := 0; step < 100; step++ {
			random.solve(t, c, v, irr, &warm)
			v += dv
			irr += dirr
		}
	}
	for _, tc := range []struct {
		name string
		m    pathMix
	}{{"drifting profile", drift}, {"random cells", random}} {
		if rate := float64(tc.m.blocked) / float64(tc.m.binade); !(rate >= 0.90) {
			t.Errorf("%s: block prefixes served %d of %d in-binade replays (%.3f), want >= 0.90",
				tc.name, tc.m.blocked, tc.m.binade, rate)
		}
	}
	if rate := float64(drift.oneIteration) / float64(drift.warm); !(rate >= 0.85) {
		t.Errorf("drifting profile: %d of %d warm solves converged in one Newton iteration (%.3f), want >= 0.85",
			drift.oneIteration, drift.warm, rate)
	}
	var brownout pathMix
	warm = SolverState{}
	for n := 0; n < 20000; n++ {
		irr, v := 0.05+0.95*float64(n)/20000, 0.0
		if n%2 == 1 {
			v = c.photoCurrent(irr) * 1e-4 / 100e-6
		}
		brownout.solve(t, c, v, irr, &warm)
	}
	if rate := float64(brownout.exps) / float64(brownout.solves); !(rate <= 0.25) {
		t.Errorf("brownout 2-cycle: %d fresh math.Exp in %d solves (%.3f per solve), want <= 0.25",
			brownout.exps, brownout.solves, rate)
	}
}

// TestCurrentFastDegenerateFallsBack exercises inputs outside the Newton
// envelope: the fast path must take the reference bisection and still agree
// with it exactly.
func TestCurrentFastDegenerateFallsBack(t *testing.T) {
	cases := []struct {
		name string
		cell *Cell
		v    float64
		irr  float64
	}{
		{"zero photocurrent", NewCell(WithPhotoCurrent(0)), 0.5, 1.0},
		{"NaN voltage", NewCell(), math.NaN(), 1.0},
		{"+Inf voltage", NewCell(), math.Inf(1), 1.0},
		{"negative shunt", NewCell(WithShuntResistance(-100)), 0.5, 1.0},
		{"zero junction scale", NewCell(WithIdealityFactor(0)), 0.5, 1.0},
		{"negative saturation", NewCell(WithSaturationCurrent(-1e-9)), 0.5, 1.0},
	}
	for _, tc := range cases {
		want := tc.cell.CurrentReference(tc.v, tc.irr)
		got := tc.cell.Current(tc.v, tc.irr)
		var warm SolverState
		gotWarm := tc.cell.CurrentWarm(tc.v, tc.irr, &warm)
		same := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		if !same(got, want) || !same(gotWarm, want) {
			t.Errorf("%s: Current=%v CurrentWarm=%v reference=%v", tc.name, got, gotWarm, want)
		}
	}
}

// TestOperatingPointBranchesUnchanged pins the load-line solver's error
// branches on top of the fast Current: no-operating-point still errors, a
// zero-draw load still floats at Voc.
func TestOperatingPointBranchesUnchanged(t *testing.T) {
	c := NewCell()
	// A load hungrier than the cell's short-circuit current at 0 V.
	if _, err := c.OperatingPoint(0.5, func(float64) float64 { return 1.0 }); err == nil {
		t.Error("hungry load line: want ErrNoOperatingPoint, got nil")
	}
	v, err := c.OperatingPoint(0.5, func(float64) float64 { return 0 })
	if err != nil {
		t.Fatalf("zero load: %v", err)
	}
	// Current(Voc) lands within solver tolerance of zero on either side, so
	// the zero-load solve either returns Voc exactly (floating branch) or
	// bisects to within the voltage tolerance of it.
	if voc := c.OpenCircuitVoltage(0.5); math.Abs(v-voc) > voltageSolveTolerance {
		t.Errorf("zero load floats at %v, want Voc %v (+/- %g)", v, voc, voltageSolveTolerance)
	}
}

// FuzzCurrentSolverParity fuzzes cell parameters and a walk through
// (v, irr): from the fuzzed start the solver steps by (dv, dirr) with its
// state carried along, as a transient under changing light does, and at
// every step the fast path (stateless and warm) must return exactly what
// the reference bisection returns. A zero step re-solves one point. An
// alternating walk visits v, v+dv, v, … as a browned-out node does, which
// serves Newton from both exp anchors. interleave solves each point
// 1 + interleave%4 times in a row, which the repeat memo answers; with
// interleave>>2%6 = k > 0, a sibling cell solves each point on the same
// state right after the cell: for k <= 4 one whose k-th parameter (Rs,
// Rsh, I0, n) is scaled by 1.25, so a memo that ignored that parameter
// would answer it with the cell's current, and for k = 5 a distinct cell
// with the cell's parameters.
func FuzzCurrentSolverParity(f *testing.F) {
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 1.0, 0.5, 0.0, 0.0, false, uint8(0))
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 1.45, 1e-4, 0.0, false, uint8(0)) // just above Voc
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 15.0, 0.0, 0.0, false, uint8(0))  // bracket extension
	f.Add(1e-4, 1e-12, 1.0, 1, 0.1, 100.0, 1e-3, 0.0, 0.0, 1e-5, false, uint8(0))     // short circuit
	f.Add(0.1, 1e-6, 2.0, 6, 10.0, 1e5, 1.0, -0.3, 1e-3, -1e-3, false, uint8(0))      // negative bias
	f.Add(16e-3, 9.5e-8, 1.5, 3, 0.0, 3000.0, 1.0, 0.5, 1e-3, 1e-3, false, uint8(0))  // Rs = 0 direct path
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.6, 1.2, 1e-5, 5e-5, false, uint8(0))  // drifting light at the knee
	f.Add(0.125, 1e-9, 1.3, 2, 1.0, 1e4, 1.0, 0.0, 1e-6, -1e-6, false, uint8(0))      // Iph a power of two
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.06, 0.0, 1e-3, 1e-5, true, uint8(0))  // brownout 2-cycle
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.5, 0.0, 8e-3, 0.0, true, uint8(0))    // half-sun 2-cycle
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.5, 1.0, -1e-3, -1e-4, true, uint8(0)) // alternating at the knee
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.5, 1.0, 0.0, 0.0, false, uint8(3))    // a settled node's repeats
	// A sibling differing in Rs, Rsh, I0 or n, or in nothing.
	for k := uint8(1); k <= 5; k++ {
		f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.5, 1.0, 1e-4, 0.0, false, k<<2|1)
	}
	f.Fuzz(func(t *testing.T, iph, i0, n float64, ns int, rs, rsh, irr, v, dv, dirr float64, alternate bool, interleave uint8) {
		// Clamp to the physically sane envelope; the fuzzer's job is to
		// explore solver regimes, not to feed NaN cell calibrations (those
		// are covered by TestCurrentFastDegenerateFallsBack).
		if !(iph >= 0 && iph <= 1) || !(i0 >= 0 && i0 <= 1e-3) ||
			!(n >= 0.5 && n <= 4) || ns < 1 || ns > 10 ||
			!(rs >= 0 && rs <= 100) || !(rsh >= 1 && rsh <= 1e7) ||
			!(irr >= 0 && irr <= 10) || !(v >= -10 && v <= 50) ||
			!(math.Abs(dv) <= 1e-2) || !(math.Abs(dirr) <= 1e-2) {
			t.Skip()
		}
		opts := []Option{
			WithPhotoCurrent(iph), WithSaturationCurrent(i0),
			WithIdealityFactor(n), WithSeriesCells(ns),
			WithSeriesResistance(rs), WithShuntResistance(rsh),
		}
		c := NewCell(opts...)
		cells := []*Cell{c}
		if k := interleave >> 2 % 6; k > 0 {
			sibling := opts
			if k <= 4 {
				sibling = append(opts, [...]Option{
					WithSeriesResistance(1.25 * rs), WithShuntResistance(1.25 * rsh),
					WithSaturationCurrent(1.25 * i0), WithIdealityFactor(1.25 * n),
				}[k-1])
			}
			cells = append(cells, NewCell(sibling...))
		}
		var warm SolverState
		for step := 0; step < 64; step++ {
			if got, want := c.Current(v, irr), c.CurrentReference(v, irr); got != want {
				t.Fatalf("step %d: Current(%x, %x) = %x, reference %x", step, v, irr, got, want)
			}
			for r := 0; r <= int(interleave%4); r++ {
				for k, cell := range cells {
					if got, want := cell.CurrentWarm(v, irr, &warm), cell.CurrentReference(v, irr); got != want {
						t.Fatalf("step %d, solve %d, cell %d: CurrentWarm(%x, %x) = %x, reference %x", step, r, k, v, irr, got, want)
					}
				}
			}
			if alternate {
				v, dv = v+dv, -dv
			} else {
				v += dv
			}
			irr += dirr
		}
	})
}

// --- Benchmarks: the kernel-level speedup the PR claims. ---

// rampVoltage mimics one simulation step's voltage motion: microvolt-scale
// movement around the knee of the I-V curve.
func rampVoltage(i int) float64 {
	return 0.95 + 1e-6*float64(i%1000)
}

// BenchmarkCellCurrentWarm measures the warm-started Newton solve on a
// slowly moving voltage — the transient simulator's exact call pattern.
func BenchmarkCellCurrentWarm(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), 0.8, &warm)
	}
	benchSink = sink
}

// driftIrradiance mimics an interpolated weather trace: the light level
// changes a little on every step, so every solve sees a new photocurrent.
func driftIrradiance(i int) float64 {
	return 0.6 + 0.2*float64(i%4096)/4096
}

// BenchmarkCellCurrentWarmDrifting is BenchmarkCellCurrentWarm under light
// that changes on every call — a fleet or scenario node's call pattern.
func BenchmarkCellCurrentWarmDrifting(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), driftIrradiance(i), &warm)
	}
	benchSink = sink
}

// BenchmarkCellCurrentCold measures the stateless fast path (Newton from a
// cold start plus replay) on the same voltage profile.
func BenchmarkCellCurrentCold(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.Current(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// BenchmarkCellCurrentReference measures the original bisection — the
// baseline the warm path must beat by >= 5x.
func BenchmarkCellCurrentReference(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentReference(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination in the benchmarks above.
var benchSink float64
