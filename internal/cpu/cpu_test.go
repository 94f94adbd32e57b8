package cpu

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultCalibration(t *testing.T) {
	p := NewProcessor()
	// Nominal point: 1 GHz at 1.0 V.
	if f := p.MaxFrequency(1.0); math.Abs(f-1e9) > 1e3 {
		t.Errorf("f(1.0 V) = %.4g Hz, want 1 GHz", f)
	}
	// ~15 ms for a 64x64 frame at 0.5 V needs ~300 MHz there.
	if f := p.MaxFrequency(0.5); f < 250e6 || f > 400e6 {
		t.Errorf("f(0.5 V) = %.1f MHz, want 250-400 MHz", f/1e6)
	}
	// SC full-load corner: ~10 mW at 0.55 V full speed.
	if pw := p.MaxPower(0.55); pw < 8e-3 || pw > 14e-3 {
		t.Errorf("P(0.55 V) = %.2f mW, want 8-14 mW", pw*1e3)
	}
	// Conventional MEP near 0.4 V, strictly inside the range (Fig. 7b/11a).
	v, e := p.ConventionalMEP()
	if v < p.MinVoltage()+0.01 || v > 0.5 {
		t.Errorf("conventional MEP = %.3f V, want interior value near 0.4 V", v)
	}
	if e <= 0 || math.IsInf(e, 0) {
		t.Errorf("MEP energy = %g", e)
	}
}

func TestMaxFrequencyMonotone(t *testing.T) {
	p := NewProcessor()
	prev := -1.0
	for v := 0.0; v <= 1.2; v += 0.01 {
		f := p.MaxFrequency(v)
		if f < prev {
			t.Fatalf("fmax not non-decreasing at %.2f V", v)
		}
		prev = f
	}
	if f := p.MaxFrequency(p.ThresholdVoltage()); f != 0 {
		t.Errorf("f at threshold = %g, want 0", f)
	}
	if f := p.MaxFrequency(0.1); f != 0 {
		t.Errorf("f below threshold = %g, want 0", f)
	}
}

func TestPowerComponents(t *testing.T) {
	p := NewProcessor()
	v := 0.6
	f := p.MaxFrequency(v)
	dyn := p.DynamicPower(v, f)
	leak := p.LeakagePower(v)
	tot := p.Power(v, f)
	if math.Abs(tot-dyn-leak) > 1e-12 {
		t.Errorf("P != Pdyn + Pleak: %g vs %g + %g", tot, dyn, leak)
	}
	// Dynamic power clamps at fmax.
	if p.DynamicPower(v, 10*f) != dyn {
		t.Error("dynamic power must clamp frequency at fmax")
	}
	if p.DynamicPower(0, 1e9) != 0 || p.DynamicPower(0.5, 0) != 0 {
		t.Error("degenerate dynamic power should be 0")
	}
	if p.LeakagePower(0) != 0 {
		t.Error("leakage at 0 V should be 0")
	}
}

func TestLeakageGrowsWithVoltage(t *testing.T) {
	p := NewProcessor()
	prev := 0.0
	for v := 0.1; v <= 1.2; v += 0.05 {
		l := p.LeakagePower(v)
		if l <= prev {
			t.Fatalf("leakage not increasing at %.2f V", v)
		}
		prev = l
	}
}

func TestEnergyPerCycleShape(t *testing.T) {
	p := NewProcessor()
	if !math.IsInf(p.EnergyPerCycle(p.ThresholdVoltage()), 1) {
		t.Error("energy per cycle at threshold should be +Inf")
	}
	mepV, mepE := p.ConventionalMEP()
	// The MEP beats a dense grid.
	for v := p.MinVoltage(); v <= p.MaxVoltage(); v += 0.005 {
		if e := p.EnergyPerCycle(v); e < mepE-1e-18 {
			t.Fatalf("energy %.6g at %.3f V beats MEP %.6g at %.3f V", e, v, mepE, mepV)
		}
	}
	// Leakage energy dominates on the left of the MEP, dynamic on the right.
	left := mepV - 0.05
	if p.LeakageEnergyPerCycle(left)/p.EnergyPerCycle(left) <
		p.LeakageEnergyPerCycle(mepV+0.2)/p.EnergyPerCycle(mepV+0.2) {
		t.Error("leakage fraction should fall as voltage rises above the MEP")
	}
	// Components sum.
	v := 0.55
	if math.Abs(p.EnergyPerCycle(v)-p.DynamicEnergyPerCycle(v)-p.LeakageEnergyPerCycle(v)) > 1e-18 {
		t.Error("energy components do not sum")
	}
}

func TestVoltageForFrequencyInverse(t *testing.T) {
	p := NewProcessor()
	for _, f := range []float64{50e6, 200e6, 500e6, 900e6} {
		v, err := p.VoltageForFrequency(f)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if got := p.MaxFrequency(v); got < f-1e3 {
			t.Errorf("f=%g: voltage %.4f sustains only %.4g", f, v, got)
		}
		// Minimality: 1 mV less must not sustain f (unless clamped at min).
		if v > p.MinVoltage()+1e-3 {
			if p.MaxFrequency(v-1e-3) >= f {
				t.Errorf("f=%g: %.4f V is not minimal", f, v)
			}
		}
	}
	if _, err := p.VoltageForFrequency(1e12); !errors.Is(err, ErrUnreachableFrequency) {
		t.Errorf("want ErrUnreachableFrequency, got %v", err)
	}
	if v, err := p.VoltageForFrequency(0); err != nil || v != p.MinVoltage() {
		t.Errorf("f=0: got %v, %v", v, err)
	}
}

func TestVoltageForMaxPower(t *testing.T) {
	p := NewProcessor()
	for _, budget := range []float64{1e-3, 5e-3, 20e-3} {
		v, err := p.VoltageForMaxPower(budget)
		if err != nil {
			t.Fatalf("budget=%g: %v", budget, err)
		}
		if math.Abs(p.MaxPower(v)-budget)/budget > 1e-3 {
			t.Errorf("budget=%g: P(%.4f V) = %.6g", budget, v, p.MaxPower(v))
		}
	}
	if _, err := p.VoltageForMaxPower(1e-9); !errors.Is(err, ErrInsufficientPower) {
		t.Errorf("want ErrInsufficientPower, got %v", err)
	}
	if v, err := p.VoltageForMaxPower(10); err != nil || v != p.MaxVoltage() {
		t.Errorf("huge budget: got %v, %v, want max voltage", v, err)
	}
}

func TestFrequencyForPower(t *testing.T) {
	p := NewProcessor()
	v := 0.6
	// Budget exactly the max power: full speed.
	if f := p.FrequencyForPower(v, p.MaxPower(v)); math.Abs(f-p.MaxFrequency(v)) > 1 {
		t.Errorf("full budget gives %.4g, want fmax %.4g", f, p.MaxFrequency(v))
	}
	// Half the dynamic budget: check the arithmetic.
	budget := p.LeakagePower(v) + 0.5*(p.MaxPower(v)-p.LeakagePower(v))
	want := 0.5 * p.MaxFrequency(v)
	if f := p.FrequencyForPower(v, budget); math.Abs(f-want)/want > 1e-9 {
		t.Errorf("half budget gives %.6g, want %.6g", f, want)
	}
	// Leakage exceeds budget: zero.
	if f := p.FrequencyForPower(v, 0.5*p.LeakagePower(v)); f != 0 {
		t.Errorf("sub-leakage budget gives %g, want 0", f)
	}
	if f := p.FrequencyForPower(0.2, 1e-3); f != 0 {
		t.Errorf("below threshold gives %g, want 0", f)
	}
}

func TestBestPointForBudget(t *testing.T) {
	p := NewProcessor()
	budget := 5e-3
	pt, err := p.BestPointForBudget(budget, 0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Power > budget*(1+1e-9) {
		t.Errorf("point power %.4g exceeds budget %.4g", pt.Power, budget)
	}
	// Beats a dense grid.
	for v := p.MinVoltage(); v <= p.MaxVoltage(); v += 0.002 {
		if f := p.FrequencyForPower(v, budget); f > pt.Frequency*(1+1e-6) {
			t.Fatalf("grid point %.3f V gives %.6g Hz > solver %.6g Hz", v, f, pt.Frequency)
		}
	}
	if _, err := p.BestPointForBudget(1e-9, 0, 1.2); !errors.Is(err, ErrInsufficientPower) {
		t.Errorf("tiny budget: want ErrInsufficientPower, got %v", err)
	}
	if _, err := p.BestPointForBudget(1e-3, 0.9, 0.5); !errors.Is(err, ErrEmptyVoltageRange) {
		t.Errorf("inverted range: want ErrEmptyVoltageRange, got %v", err)
	}
}

func TestMinimizeEnergyOver(t *testing.T) {
	p := NewProcessor()
	// With a constant-efficiency wrapper the result equals the plain MEP.
	v1, e1 := p.ConventionalMEP()
	v2, e2 := p.MinimizeEnergyOver(func(v float64) float64 { return p.EnergyPerCycle(v) / 0.8 })
	if math.Abs(v1-v2) > 1e-4 {
		t.Errorf("constant-eta MEP moved: %.4f vs %.4f", v1, v2)
	}
	if math.Abs(e2-e1/0.8)/e2 > 1e-6 {
		t.Errorf("scaled energy mismatch: %g vs %g", e2, e1/0.8)
	}
}

func TestOptions(t *testing.T) {
	p := NewProcessor(
		WithNominal(0.9, 500e6),
		WithThresholdVoltage(0.25),
		WithAlpha(1.3),
		WithSwitchedCapacitance(50e-12),
		WithLeakage(1e-5, 2.5),
		WithVoltageRange(0.3, 1.0),
	)
	if f := p.MaxFrequency(0.9); math.Abs(f-500e6) > 1 {
		t.Errorf("nominal point not honoured: %g", f)
	}
	if p.MinVoltage() != 0.3 || p.MaxVoltage() != 1.0 {
		t.Error("voltage range not honoured")
	}
	if p.ThresholdVoltage() != 0.25 {
		t.Error("threshold not honoured")
	}
	if got := p.DynamicEnergyPerCycle(1.0); math.Abs(got-50e-12) > 1e-15 {
		t.Errorf("Ceff not honoured: %g", got)
	}
}

// Property: current equals power over voltage.
func TestQuickCurrentConsistency(t *testing.T) {
	p := NewProcessor()
	f := func(vRaw, fRaw uint16) bool {
		v := 0.2 + float64(vRaw)/65535*1.0
		freq := float64(fRaw) / 65535 * 1e9
		return math.Abs(p.Current(v, freq)*v-p.Power(v, freq)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FrequencyForPower never exceeds the budget or fmax.
func TestQuickFrequencyForPowerBounds(t *testing.T) {
	p := NewProcessor()
	f := func(vRaw, bRaw uint16) bool {
		v := 0.2 + float64(vRaw)/65535*1.0
		budget := float64(bRaw) / 65535 * 30e-3
		freq := p.FrequencyForPower(v, budget)
		if freq < 0 || freq > p.MaxFrequency(v)+1 {
			return false
		}
		if freq == 0 {
			return true
		}
		return p.Power(v, freq) <= budget*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: more budget never means a slower best point.
func TestQuickBudgetMonotonicity(t *testing.T) {
	p := NewProcessor()
	f := func(aRaw, bRaw uint16) bool {
		a := 1e-3 + float64(aRaw)/65535*20e-3
		b := 1e-3 + float64(bRaw)/65535*20e-3
		if a > b {
			a, b = b, a
		}
		ptA, errA := p.BestPointForBudget(a, 0, 1.2)
		ptB, errB := p.BestPointForBudget(b, 0, 1.2)
		if errA != nil {
			return true // a infeasible: nothing to compare
		}
		if errB != nil {
			return false // more budget cannot become infeasible
		}
		return ptB.Frequency >= ptA.Frequency*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkConventionalMEP(b *testing.B) {
	p := NewProcessor()
	for i := 0; i < b.N; i++ {
		p.ConventionalMEP()
	}
}

func BenchmarkBestPointForBudget(b *testing.B) {
	p := NewProcessor()
	for i := 0; i < b.N; i++ {
		if _, err := p.BestPointForBudget(8e-3, 0, 1.2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProcessCorners(t *testing.T) {
	ss := NewProcessor(WithCorner(CornerSlow))
	tt := NewProcessor(WithCorner(CornerTypical))
	ff := NewProcessor(WithCorner(CornerFast))
	// Frequency ordering at a shared supply.
	if !(ss.MaxFrequency(0.6) < tt.MaxFrequency(0.6) && tt.MaxFrequency(0.6) < ff.MaxFrequency(0.6)) {
		t.Error("corner frequency ordering violated")
	}
	// Leakage ordering.
	if !(ss.LeakagePower(0.6) < tt.LeakagePower(0.6) && tt.LeakagePower(0.6) < ff.LeakagePower(0.6)) {
		t.Error("corner leakage ordering violated")
	}
	// Typical equals the default.
	def := NewProcessor()
	if tt.MaxFrequency(0.7) != def.MaxFrequency(0.7) || tt.LeakagePower(0.7) != def.LeakagePower(0.7) {
		t.Error("typical corner should match the default model")
	}
	// Leakage energy per cycle at a low-voltage point orders with the
	// corner's leakage (the FF corner's speed gain does not cancel its
	// 2.2x leakage).
	if !(ss.LeakageEnergyPerCycle(0.45) < tt.LeakageEnergyPerCycle(0.45) &&
		tt.LeakageEnergyPerCycle(0.45) < ff.LeakageEnergyPerCycle(0.45)) {
		t.Error("corner leakage-energy ordering violated at 0.45 V")
	}
	// Corner names.
	if CornerSlow.String() != "SS" || CornerTypical.String() != "TT" || CornerFast.String() != "FF" {
		t.Error("corner names wrong")
	}
	if Corner(0).String() != "corner?" {
		t.Error("invalid corner name wrong")
	}
}

func TestTemperatureEffects(t *testing.T) {
	cold := NewProcessor(WithTemperature(-10))
	room := NewProcessor(WithTemperature(25))
	hot := NewProcessor(WithTemperature(60))
	def := NewProcessor()

	// 25 C equals the calibration point.
	if room.LeakagePower(0.5) != def.LeakagePower(0.5) {
		t.Error("25 C should match the default model")
	}
	// Leakage ordering: cold < room < hot, and hot roughly 2^(35/15) ~ 5x room.
	lc, lr, lh := cold.LeakagePower(0.5), room.LeakagePower(0.5), hot.LeakagePower(0.5)
	if !(lc < lr && lr < lh) {
		t.Errorf("leakage ordering violated: %g %g %g", lc, lr, lh)
	}
	if ratio := lh / lr; ratio < 3.5 || ratio > 7 {
		t.Errorf("hot/room leakage ratio %.2f, want ~5", ratio)
	}
	// Peak frequency degrades with heat (mobility), despite the lower Vth.
	if hot.MaxFrequency(1.0) >= room.MaxFrequency(1.0) {
		t.Error("hot silicon should be slower at nominal voltage")
	}
	// Near threshold, the lower Vth wins: hot silicon is faster at 0.4 V.
	if hot.MaxFrequency(0.4) <= room.MaxFrequency(0.4) {
		t.Error("hot silicon should be faster near threshold")
	}
	// The minimum achievable energy per cycle worsens with heat: the
	// leakage floor rises ~2x/15 C while switching energy is unchanged.
	// (The MEP *voltage* direction is model-dependent here: the -2 mV/C
	// threshold shift raises near-threshold frequency enough to offset the
	// leakage-power doubling in the alpha-power model.)
	_, eCold := cold.ConventionalMEP()
	_, eHot := hot.ConventionalMEP()
	if eHot <= eCold {
		t.Errorf("hot MEP energy %.4g should exceed cold %.4g", eHot, eCold)
	}
}

// TestVoltageForFrequencyWarmParity checks that the warm-started voltage
// solve is bit-identical to the stateless one under the access patterns the
// schedulers produce: slowly drifting targets, jumps, repeats, unreachable
// and non-positive frequencies, and a processor swap mid-state.
func TestVoltageForFrequencyWarmParity(t *testing.T) {
	p := NewProcessor()
	q := NewProcessor(WithAlpha(1.6), WithThresholdVoltage(0.33))
	var state FreqSolverState

	check := func(proc *Processor, f float64) {
		t.Helper()
		wantV, wantErr := proc.VoltageForFrequency(f)
		gotV, gotErr := proc.VoltageForFrequencyWarm(f, &state)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("f=%g: error mismatch warm=%v stateless=%v", f, gotErr, wantErr)
		}
		if wantErr == nil && math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("f=%g: warm %v != stateless %v", f, gotV, wantV)
		}
	}

	// Slow drift, like a deadline controller's catch-up rate.
	f := 40e6
	for i := 0; i < 5000; i++ {
		check(p, f)
		f *= 1.0001
	}
	// Jumps, repeats, and edge cases on the same state.
	for _, f := range []float64{80e6, 80e6, 1e6, 0, -5, 1e12, math.Inf(1), 200e6, 3e6} {
		check(p, f)
	}
	// Swapping processors must invalidate the cached trajectory.
	for i := 0; i < 100; i++ {
		check(q, 30e6+1e4*float64(i))
		check(p, 30e6+1e4*float64(i))
	}
}

// TestVoltageForFrequencyWarmIntervalMemo pins the interval memo: a
// frequency inside the memoized (fA, fB] gets the stateless bits without a
// re-solve, and one just outside it re-solves.
func TestVoltageForFrequencyWarmIntervalMemo(t *testing.T) {
	p := NewProcessor()
	stateless := func(f float64) float64 {
		t.Helper()
		v, err := p.VoltageForFrequency(f)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var state FreqSolverState
	if v, err := p.VoltageForFrequencyWarm(55e6, &state); err != nil || v != stateless(55e6) {
		t.Fatalf("first solve = %v, %v; want %v", v, err, stateless(55e6))
	}
	if !(state.proc == p && state.fA < 55e6 && 55e6 <= state.fB) {
		t.Fatalf("memo (%v, %v] does not hold the solved frequency 55e6", state.fA, state.fB)
	}
	memo := state
	inside := []float64{
		math.Nextafter(memo.fA, math.Inf(1)), 0.5 * (memo.fA + memo.fB), memo.fB,
	}
	for _, f := range inside {
		if v, err := p.VoltageForFrequencyWarm(f, &state); err != nil || v != stateless(f) {
			t.Fatalf("f=%v inside the memo: %v, %v; want %v", f, v, err, stateless(f))
		}
		if state != memo {
			t.Fatalf("f=%v inside the memo re-solved: %+v -> %+v", f, memo, state)
		}
	}
	// Poisoning the memoized voltage shows who answers: inside the interval
	// the memo does, just outside it a fresh solve does.
	const poison = -1.0
	state.v = poison
	if v, _ := p.VoltageForFrequencyWarm(inside[1], &state); v != poison {
		t.Fatalf("f=%v inside the memo was re-solved to %v", inside[1], v)
	}
	for _, f := range []float64{memo.fA, math.Nextafter(memo.fB, math.Inf(1))} {
		state = memo
		state.v = poison
		if v, err := p.VoltageForFrequencyWarm(f, &state); err != nil || v != stateless(f) {
			t.Fatalf("f=%v just outside the memo: %v, %v; want %v", f, v, err, stateless(f))
		}
		if !(state.fA < f && f <= state.fB) || state.v == poison {
			t.Fatalf("f=%v just outside the memo did not re-solve: %+v", f, state)
		}
	}
	// A memo from another processor never answers.
	q := NewProcessor(WithAlpha(1.6))
	state = memo
	state.v = poison
	if v, _ := q.VoltageForFrequencyWarm(55e6, &state); v == poison || state.proc != q {
		t.Fatalf("memo of %p answered for %p: v=%v", p, q, v)
	}
}

// TestSupplyMemoParity checks the supply memo against the Processor methods
// bit for bit: random supplies and clocks, edge inputs, repeated and
// alternating supplies, and processors swapped on one memo.
func TestSupplyMemoParity(t *testing.T) {
	procs := []*Processor{
		NewProcessor(),
		NewProcessor(WithAlpha(1.6), WithThresholdVoltage(0.33)),
		NewProcessor(WithLeakage(1e-3, 2), WithCorner(CornerFast)),
	}
	var m SupplyMemo
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(p *Processor, v, f float64) {
		t.Helper()
		if got, want := m.MaxFrequency(p, v), p.MaxFrequency(v); !same(got, want) {
			t.Fatalf("MaxFrequency(%v) = %v, want %v", v, got, want)
		}
		if got, want := m.Power(p, v, f), p.Power(v, f); !same(got, want) {
			t.Fatalf("Power(%v, %v) = %v, want %v", v, f, got, want)
		}
		if got, want := m.LeakagePower(p, v), p.LeakagePower(v); !same(got, want) {
			t.Fatalf("LeakagePower(%v) = %v, want %v", v, got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), -0.2, -1e-300, 0.1, 0.32, 0.33, 0.34, 0.5, 1.2, 5,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for _, p := range procs {
		for _, v := range edges {
			for _, f := range edges {
				check(p, v, f)
				check(p, v, f) // the same supply again: served by the memo
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 20000; n++ {
		p := procs[rng.Intn(len(procs))]
		v := rng.Float64()*1.6 - 0.2
		if n%3 != 0 {
			v = 0.45 + 1e-3*float64(rng.Intn(4)) // repeats, as a regulated supply does
		}
		check(p, v, rng.Float64()*300e6-10e6)
	}
}
