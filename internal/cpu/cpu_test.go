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
	if f := p.MaxFrequency(p.thresholdVoltage); f != 0 {
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
	if !math.IsInf(p.EnergyPerCycle(p.thresholdVoltage), 1) {
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

func TestOptions(t *testing.T) {
	p := NewProcessor(func(p *Processor) {
		p.nominalVoltage, p.nominalFrequency = 0.9, 500e6
		p.thresholdVoltage, p.alpha, p.switchedCap = 0.25, 1.3, 50e-12
		p.minVoltage, p.maxVoltage = 0.3, 1.0
	})
	// NewProcessor derives the alpha-law norm and the Vmax clock after the
	// options run, so the overridden nominal point and range hold.
	if f := p.MaxFrequency(0.9); math.Abs(f-500e6) > 1 {
		t.Errorf("nominal point not honoured: %g", f)
	}
	if _, err := p.VoltageForFrequency(p.MaxFrequency(1.0) * 1.01); !errors.Is(err, ErrUnreachableFrequency) {
		t.Errorf("voltage range not honoured: %v", err)
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

func BenchmarkConventionalMEP(b *testing.B) {
	p := NewProcessor()
	for i := 0; i < b.N; i++ {
		p.ConventionalMEP()
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
	q := NewProcessor(func(p *Processor) { p.alpha, p.thresholdVoltage = 1.6, 0.33 })
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
	// Swapping processors must invalidate the interval memo, which is keyed
	// on the processor.
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
	q := NewProcessor(func(p *Processor) { p.alpha = 1.6 })
	state = memo
	state.v = poison
	if v, _ := q.VoltageForFrequencyWarm(55e6, &state); v == poison || state.proc != q {
		t.Fatalf("memo of %p answered for %p: v=%v", p, q, v)
	}
}

// TestVoltageForFrequencyWarmAllocs pins a memo miss at zero allocations:
// the bisection's predicate captures the memo bounds fA and fB, and it
// must stay on the stack for a DVFS controller that re-solves every step.
func TestVoltageForFrequencyWarmAllocs(t *testing.T) {
	p := NewProcessor()
	var state FreqSolverState
	f := 40e6
	allocs := testing.AllocsPerRun(100, func() {
		f = 120e6 - f // alternate between 40 and 80 MHz, so every call misses
		if _, err := p.VoltageForFrequencyWarm(f, &state); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("VoltageForFrequencyWarm miss allocates %v times, want 0", allocs)
	}
}

// TestSupplyMemoParity checks the supply memo against the Processor methods
// bit for bit: random supplies and clocks, edge inputs, repeated and
// alternating supplies, processors swapped on one memo, leakage-only runs
// of supplies followed by fmax's bits at the last one, and the methods in
// three orders, so that the knot certificate answers as well as fmax's
// bits.
func TestSupplyMemoParity(t *testing.T) {
	procs := []*Processor{
		NewProcessor(),
		NewProcessor(func(p *Processor) { p.alpha, p.thresholdVoltage = 1.6, 0.33 }),
		NewProcessor(func(p *Processor) { p.leakageCurrent0, p.dibl = 1e-3, 2 }, WithCorner(CornerFast)),
	}
	var m SupplyMemo
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	maxFrequency := func(p *Processor, v float64) {
		t.Helper()
		if got, want := m.MaxFrequency(p, v), p.MaxFrequency(v); !same(got, want) {
			t.Fatalf("MaxFrequency(%v) = %v, want %v", v, got, want)
		}
	}
	capped := func(p *Processor, v, f float64) {
		t.Helper()
		if got, want := m.CappedFrequency(p, v, f), math.Min(f, p.MaxFrequency(v)); !same(got, want) {
			t.Fatalf("CappedFrequency(%v, %v) = %v, want %v", v, f, got, want)
		}
	}
	power := func(p *Processor, v, f float64) {
		t.Helper()
		if got, want := m.Power(p, v, f), p.Power(v, f); !same(got, want) {
			t.Fatalf("Power(%v, %v) = %v, want %v", v, f, got, want)
		}
	}
	leakage := func(p *Processor, v float64) {
		t.Helper()
		if got, want := m.LeakagePower(p, v), p.LeakagePower(v); !same(got, want) {
			t.Fatalf("LeakagePower(%v) = %v, want %v", v, got, want)
		}
	}
	// check runs the four methods at (v, f) in one of their orders: the
	// clock before fmax takes the certificate, fmax first serves the clock
	// from its bits.
	check := func(p *Processor, v, f float64, order int) {
		t.Helper()
		switch order % 3 {
		case 0:
			capped(p, v, f)
			power(p, v, f)
			leakage(p, v)
			maxFrequency(p, v)
		case 1:
			power(p, v, f)
			capped(p, v, f)
			maxFrequency(p, v)
			leakage(p, v)
		default:
			maxFrequency(p, v)
			power(p, v, f)
			capped(p, v, f)
			leakage(p, v)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), -0.2, -1e-300, 0.1, 0.32, 0.33, 0.34, 0.5, 1.2, 5,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for _, p := range procs {
		for i, v := range edges {
			for j, f := range edges {
				check(p, v, f, i+j)
				check(p, v, f, i+j+1) // the same supply again: served by the memo
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
		check(p, v, rng.Float64()*300e6-10e6, n)
	}
	// A bypassed core: the supply falls a little every step, and runs of
	// halted (leakage-only) steps leave the knot behind before fmax's bits
	// are asked for at the last supply.
	for _, p := range procs {
		v := 1.1
		for n := 0; n < 3000; n++ {
			v -= 2e-4 * rng.Float64()
			fm := p.MaxFrequency(v)
			switch n % 10 {
			case 0, 1, 2:
				leakage(p, v)
			case 3:
				leakage(p, v)
				maxFrequency(p, v)
			case 4:
				leakage(p, v)
				power(p, v, fm)
			default:
				f := fm * (0.2 + 0.9*rng.Float64())
				capped(p, v, f)
				power(p, v, math.Min(f, fm))
			}
		}
	}
}

// certifyAt arms m's knot at supply kv and reports whether it certifies f
// below fmax at supply v, as the memo's methods consult it.
func certifyAt(m *SupplyMemo, p *Processor, kv, v, f float64) bool {
	m.MaxFrequency(p, kv)
	m.at(p, v)
	return m.below(p, v, f)
}

// TestSupplyMemoCertificateSound checks the knot certificate against the
// alpha law as computed: every clock it certifies lies below
// p.MaxFrequency(v), for knots above, at and below the supply and clocks up
// to an ulp of fmax, across alpha, threshold, corner and temperature. It
// also pins that the certificate serves: a clock 1e-9 below fmax at the
// knot's own supply, and half of fmax a 20 mV step below it, certify.
func TestSupplyMemoCertificateSound(t *testing.T) {
	procs := []*Processor{
		NewProcessor(),
		NewProcessor(func(p *Processor) { p.alpha, p.thresholdVoltage = 1.6, 0.33 }),
		NewProcessor(func(p *Processor) { p.alpha = 2 }),
		NewProcessor(func(p *Processor) { p.alpha = 1 }),
		NewProcessor(WithCorner(CornerSlow)),
		NewProcessor(WithCorner(CornerFast), WithTemperature(60)),
		NewProcessor(WithTemperature(-20)),
	}
	rng := rand.New(rand.NewSource(5))
	var m SupplyMemo
	certified := 0
	for _, p := range procs {
		lo, hi := p.MinVoltage(), p.MaxVoltage()
		for n := 0; n < 20000; n++ {
			kv := lo + (hi-lo)*rng.Float64()
			v := lo + (hi-lo)*rng.Float64()
			switch n % 4 {
			case 0:
				v = kv
			case 1:
				v = math.Nextafter(kv, 0)
			case 2:
				v = math.Min(kv+1e-3*rng.Float64(), hi) // a rising node
			}
			fm := p.MaxFrequency(v)
			for _, f := range []float64{
				0, math.Copysign(0, -1), fm * rng.Float64(), fm * (1 - 1e-9), fm * (1 - 0x1p-40),
				math.Nextafter(fm, 0), fm, math.Nextafter(fm, math.Inf(1)), 2 * fm,
			} {
				if certifyAt(&m, p, kv, v, f) {
					certified++
					if !(f < fm) {
						t.Fatalf("alpha %v Vth %v: knot %v certified f = %v below fmax(%v) = %v",
							p.alpha, p.thresholdVoltage, kv, f, v, fm)
					}
				}
			}
		}
		// At the knot itself a clock 1e-9 below fmax certifies, and so does
		// half of fmax 20 mV lower.
		for _, kv := range []float64{0.4, 0.55, 0.9, 1.2} {
			if kv <= p.thresholdVoltage+0.02 {
				continue
			}
			if fm := p.MaxFrequency(kv); !certifyAt(&m, p, kv, kv, fm*(1-1e-9)) {
				t.Errorf("alpha %v: knot %v does not certify fmax*(1-1e-9) at its own supply", p.alpha, kv)
			}
			if v := kv - 0.02; v >= p.MinVoltage() && !certifyAt(&m, p, kv, v, p.MaxFrequency(v)/2) {
				t.Errorf("alpha %v: knot %v does not certify fmax/2 at %v", p.alpha, kv, v)
			}
		}
	}
	if certified < len(procs)*20000 {
		t.Errorf("certified %d clocks in %d knots, want at least one per knot", certified, len(procs)*20000)
	}
}

// TestSupplyMemoCertificateRefuses pins what never certifies: an alpha
// above 2 (where (x/kx)^alpha may fall below (x/kx)^2), a supply below Vmin
// or above Vmax, a NaN supply, and a NaN, infinite or negative clock.
func TestSupplyMemoCertificateRefuses(t *testing.T) {
	var m SupplyMemo
	steep := NewProcessor(func(p *Processor) { p.alpha = 2.2 })
	for _, v := range []float64{0.4, 0.6, 1.0, 1.2} {
		for _, f := range []float64{0, 1, steep.MaxFrequency(v) / 4} {
			if certifyAt(&m, steep, v, v, f) {
				t.Errorf("alpha 2.2: certified f = %v at %v", f, v)
			}
		}
	}
	p := NewProcessor()
	for _, v := range []float64{0, 0.2, p.thresholdVoltage, math.Nextafter(p.MinVoltage(), 0),
		math.Nextafter(p.MaxVoltage(), 2), 5, math.Inf(1), math.NaN()} {
		if certifyAt(&m, p, 0.8, v, 0) {
			t.Errorf("certified f = 0 at supply %v outside [Vmin, Vmax]", v)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if certifyAt(&m, p, 0.8, 0.7, f) {
			t.Errorf("certified f = %v", f)
		}
	}
	if !certifyAt(&m, p, 0.8, 0.7, 1) {
		t.Errorf("a 1 Hz clock at 0.7 V is not certified below a 0.8 V knot")
	}
}

// alphaLawExponents are the exponents the alpha-law tests run: the default
// 1.4 (split 1 + 0.3999…), 1.6 (split 2 - 0.3999…, math.Pow's path), 0.7
// (split 1 - 0.3, a folded fraction) and 2.5 (integer part 2).
var alphaLawExponents = []float64{1.4, 1.6, 0.7, 2.5}

// TestAlphaLawMatchesPow sweeps the alpha-law kernel against math.Pow bit
// for bit: log-uniform over and beyond its normal-range guard, and uniform
// over the supplies the model sees.
func TestAlphaLawMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range alphaLawExponents {
		p := NewProcessor(func(p *Processor) { p.alpha = alpha })
		for n := 0; n < 200000; n++ {
			x := math.Ldexp(1+rng.Float64(), rng.Intn(1500)-750)
			if n%2 == 0 {
				x = 1.2 * rng.Float64()
			}
			if got, want := p.alphaLaw(x), math.Pow(x, alpha); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %v: alphaLaw(%v) = %v, math.Pow %v", alpha, x, got, want)
			}
		}
	}
	if p := NewProcessor(); p.powFrac == 0 {
		t.Errorf("the default alpha %v does not take the kernel", p.alpha)
	}
}

// FuzzAlphaLaw fuzzes the alpha-law kernel against math.Pow(x, alpha) bit
// for bit, over x at zero, subnormal, either side of the kernel's
// normal-range guard, huge, NaN and infinite, and over the exponents of
// TestAlphaLawMatchesPow and any other.
func FuzzAlphaLaw(f *testing.F) {
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
		math.Nextafter(0x1p-600, 0), 0x1p-600, math.Nextafter(0x1p-600, 1),
		0.08, 0.5, 1, 0.68, 1.2, math.Nextafter(0x1p600, 0), 0x1p600, math.Nextafter(0x1p600, math.Inf(1)),
		1e300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), -0.5,
	}
	for i, x := range xs {
		f.Add(x, alphaLawExponents[i%len(alphaLawExponents)])
	}
	for _, alpha := range alphaLawExponents {
		f.Add(0.5, alpha)
	}
	f.Fuzz(func(t *testing.T, x, alpha float64) {
		p := NewProcessor(func(p *Processor) { p.alpha = alpha })
		if got, want := p.alphaLaw(x), math.Pow(x, alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("alpha %v: alphaLaw(%v) = %v (%#x), math.Pow %v (%#x)",
				alpha, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
