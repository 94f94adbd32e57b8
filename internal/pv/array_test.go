package pv

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// shadingPatterns are ExtShading's (internal/expt) per-segment irradiances
// on a three-segment string: uniform, one shaded segment, graded shading.
var shadingPatterns = [][]float64{{1.0, 1.0, 1.0}, {1.0, 1.0, 0.3}, {1.0, 0.5, 0.15}}

func newTestArray(t *testing.T, n int) *Array {
	t.Helper()
	cells := make([]*Cell, n)
	for i := range cells {
		cells[i] = NewCell()
	}
	a, err := NewArray(cells)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrayValidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segments []*Cell
		want     error
	}{
		{"no segments", nil, ErrNoSegments},
		{"nil segment", []*Cell{NewCell(), nil}, ErrNilSegment},
	} {
		if a, err := NewArray(tc.segments); !errors.Is(err, tc.want) || a != nil {
			t.Errorf("%s: NewArray = %v, %v; want nil, %v", tc.name, a, err, tc.want)
		}
	}
}

func TestUniformArrayMatchesSeriesOfCells(t *testing.T) {
	// Two identical, equally lit segments: string Voc = 2x cell Voc, string
	// Isc = cell Isc, and the global MPP power = 2x cell MPP power.
	a := newTestArray(t, 2)
	cell := NewCell()
	irr := []float64{1.0, 1.0}

	s := a.newSolver(irr)
	voc := s.stringVoltage(0)
	if want := 2 * cell.OpenCircuitVoltage(1.0); math.Abs(voc-want) > 5e-3 {
		t.Errorf("string Voc = %.4f, want %.4f", voc, want)
	}
	isc := s.current(0)
	if want := cell.ShortCircuitCurrent(1.0); math.Abs(isc-want) > 1e-4 {
		t.Errorf("string Isc = %.4g, want %.4g", isc, want)
	}
	_, pArr := a.GlobalMPP(irr)
	_, pCell := cell.MPP(1.0)
	if math.Abs(pArr-2*pCell)/(2*pCell) > 0.02 {
		t.Errorf("string MPP %.4g, want ~%.4g", pArr, 2*pCell)
	}
}

func TestArrayVoltageDecreasesWithCurrent(t *testing.T) {
	a := newTestArray(t, 2)
	s := a.newSolver([]float64{1.0, 0.4})
	prev := math.Inf(1)
	for i := 0.0; i <= 16e-3; i += 0.5e-3 {
		v := s.stringVoltage(i)
		if v > prev+1e-9 {
			t.Fatalf("string voltage not non-increasing at I=%.4g", i)
		}
		prev = v
	}
}

func TestPartialShadingCreatesTwoHumps(t *testing.T) {
	a := newTestArray(t, 2)
	// One segment fully lit, one heavily shaded.
	irr := []float64{1.0, 0.25}
	peaks := a.LocalMPPs(irr)
	if len(peaks) < 2 {
		t.Fatalf("got %d local maxima, want >= 2 under partial shading", len(peaks))
	}
	// Uniform light: a single hump.
	uniform := a.LocalMPPs([]float64{1.0, 1.0})
	if len(uniform) != 1 {
		t.Errorf("uniform light gave %d local maxima, want 1", len(uniform))
	}
}

func TestGlobalMPPBeatsEveryLocalPeak(t *testing.T) {
	a := newTestArray(t, 3)
	irr := []float64{1.0, 0.6, 0.15}
	vGlobal, pGlobal := a.GlobalMPP(irr)
	if pGlobal <= 0 || vGlobal <= 0 {
		t.Fatal("degenerate global MPP")
	}
	for _, v := range a.LocalMPPs(irr) {
		if p := a.Power(v, irr); p > pGlobal*(1+1e-6) {
			t.Errorf("local peak at %.3f V (%.4g W) beats the global MPP (%.4g W)", v, p, pGlobal)
		}
	}
	// And a dense grid cannot beat it either.
	voc := a.newSolver(irr).stringVoltage(0)
	for k := 1; k < 500; k++ {
		v := voc * float64(k) / 500
		if p := a.Power(v, irr); p > pGlobal*(1+5e-3) {
			t.Fatalf("grid point %.3f V (%.4g W) beats the global MPP (%.4g W)", v, p, pGlobal)
		}
	}
}

func TestBypassDiodeLimitsShadedLoss(t *testing.T) {
	// With a bypass diode, a dark segment costs only the diode drop; the
	// lit segment still delivers. Compare the shaded string's MPP against
	// the single lit cell's.
	a := newTestArray(t, 2)
	_, pShaded := a.GlobalMPP([]float64{1.0, 0.0})
	cell := NewCell()
	_, pCell := cell.MPP(1.0)
	if pShaded < 0.5*pCell {
		t.Errorf("shaded string MPP %.4g W below half the lit cell's %.4g W; bypass diode ineffective", pShaded, pCell)
	}
	// Dark string delivers nothing.
	if _, p := a.GlobalMPP([]float64{0, 0}); p != 0 {
		t.Errorf("dark string delivers %.4g W", p)
	}
}

func TestArrayPowerNonNegative(t *testing.T) {
	a := newTestArray(t, 2)
	irr := []float64{0.8, 0.3}
	voc := a.newSolver(irr).stringVoltage(0)
	for k := 0; k <= 100; k++ {
		v := voc * 1.2 * float64(k) / 100
		if p := a.Power(v, irr); p < 0 {
			t.Fatalf("negative power %.4g at %.3f V", p, v)
		}
	}
	if a.Power(-0.5, irr) != 0 {
		t.Error("negative voltage should deliver nothing")
	}
}

func TestMissingIrradianceEntriesAreDark(t *testing.T) {
	a := newTestArray(t, 3)
	// Only one irradiance supplied: the other two segments bypass.
	voc := a.newSolver([]float64{1.0}).stringVoltage(0)
	cell := NewCell()
	want := cell.OpenCircuitVoltage(1.0) - 2*0.35
	if math.Abs(voc-want) > 5e-3 {
		t.Errorf("Voc with dark tail = %.4f, want %.4f", voc, want)
	}
}

// verbatimSolver prepares a solver whose segment solves all take the
// original bisection: the oracle for the replay.
func verbatimSolver(a *Array, irradiances []float64) *stringSolver {
	s := a.newSolver(irradiances)
	s.verbatim = true
	return s
}

// sameBits reports whether x and y have identical bit patterns.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestSegmentReplayMatchesVerbatim pins the replayed segment solve to the
// original bisection bit for bit across calibrations whose guard bands span
// seven decades (Rs = 0, and shunts from 10 ohm to 1 Gohm), across
// irradiances, and at the currents where the root sits on the bracket's
// ends: zero, 2^-40 and one ulp below Isc, and Isc itself (bypassed).
func TestSegmentReplayMatchesVerbatim(t *testing.T) {
	type namedCell struct {
		name string
		cell *Cell
	}
	cells := []namedCell{
		{"default", NewCell()},
		{"Rs=0", NewCell(WithSeriesResistance(0))},
		{"Rsh=10", NewCell(WithShuntResistance(10))},
		{"Rsh=1e9", NewCell(WithShuntResistance(1e9))},
	}
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 8; k++ {
		cells = append(cells, namedCell{fmt.Sprintf("random %d", k), randomSolverCell(rng)})
	}
	for _, tc := range cells {
		a, err := NewArray([]*Cell{tc.cell})
		if err != nil {
			t.Fatal(err)
		}
		for _, irr := range []float64{1, 0.5, 0.3, 0.15, 1e-3} {
			s, ref := a.newSolver([]float64{irr}), verbatimSolver(a, []float64{irr})
			isc := s.iscs[0]
			currents := []float64{0, isc * (1 - 0x1p-40), math.Nextafter(isc, 0), isc}
			for k := 1; k < 64; k++ {
				currents = append(currents, isc*float64(k)/64)
			}
			for _, current := range currents {
				if got, want := s.segmentVoltage(0, current), ref.segmentVoltage(0, current); !sameBits(got, want) {
					t.Errorf("%s, irr %g: segment voltage at %x A = %x, verbatim %x", tc.name, irr, current, got, want)
				}
			}
			if _, band := s.segmentRoot(0, isc/2); math.IsInf(band, 1) {
				t.Errorf("%s, irr %g: the replay fell back at Isc/2", tc.name, irr)
			}
		}
	}
}

// TestSegmentReplayRandomCells draws random calibrations, irradiances and
// currents, a third of them within 2^-30 relative of zero or of Isc, and
// checks the replayed segment solve against the original bisection bitwise.
func TestSegmentReplayRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n < 10000; n++ {
		a, err := NewArray([]*Cell{randomSolverCell(rng)})
		if err != nil {
			t.Fatal(err)
		}
		irr := []float64{math.Pow(10, -3*rng.Float64())}
		s, ref := a.newSolver(irr), verbatimSolver(a, irr)
		isc := s.iscs[0]
		var current float64
		switch n % 6 {
		case 0:
			current = isc * 0x1p-30 * rng.Float64()
		case 1:
			current = isc * (1 - 0x1p-30*rng.Float64())
		default:
			current = isc * rng.Float64()
		}
		if got, want := s.segmentVoltage(0, current), ref.segmentVoltage(0, current); !sameBits(got, want) {
			t.Fatalf("case %d: segment voltage at %x A, irr %x = %x, verbatim %x", n, current, irr[0], got, want)
		}
	}
}

// TestArrayReplayMatchesVerbatim checks every public solve on ExtShading's
// patterns against the verbatim nested bisection, bitwise.
func TestArrayReplayMatchesVerbatim(t *testing.T) {
	a := newTestArray(t, 3)
	for _, p := range shadingPatterns {
		ref := verbatimSolver(a, p)
		gv, gp := a.GlobalMPP(p)
		if wv, wp := ref.globalMPP(); !sameBits(gv, wv) || !sameBits(gp, wp) {
			t.Errorf("%v: GlobalMPP = (%x, %x), verbatim (%x, %x)", p, gv, gp, wv, wp)
		}
		peaks, want := a.LocalMPPs(p), ref.localMPPs()
		if len(peaks) != len(want) {
			t.Fatalf("%v: LocalMPPs = %v, verbatim %v", p, peaks, want)
		}
		for k, v := range want {
			if !sameBits(peaks[k], v) {
				t.Errorf("%v: local peak %d at %x, verbatim %x", p, k, peaks[k], v)
			}
			if got, want := a.Power(v, p), ref.power(v); !sameBits(got, want) {
				t.Errorf("%v: Power(%x) = %x, verbatim %x", p, v, got, want)
			}
		}
	}
}

// TestSegmentReplayPathMix pins the replay's path mix, where a silent
// fallback would only show as lost speed: on ExtShading's patterns, across
// each lit segment's currents from 0 to Isc, the default cell never falls
// back to the verbatim loop, and a replayed segment solve evaluates
// Cell.Current at most once on average.
func TestSegmentReplayPathMix(t *testing.T) {
	a := newTestArray(t, 3)
	for _, p := range shadingPatterns {
		s := a.newSolver(p)
		solves, evals := 0, 0
		for i := range p {
			for k := 0; k < 500; k++ {
				current := s.iscs[i] * float64(k) / 500
				vstar, band := s.segmentRoot(i, current)
				if math.IsInf(band, 1) {
					t.Fatalf("%v: segment %d fell back at %g A", p, i, current)
				}
				_, n := s.bisectSegment(i, current, vstar, band)
				solves++
				evals += n
			}
		}
		mean := float64(evals) / float64(solves)
		t.Logf("%v: %.3f Current evaluations per replayed segment solve", p, mean)
		if !(mean <= 1) {
			t.Errorf("%v: %d Current evaluations over %d replayed segment solves (%.3f), want <= 1",
				p, evals, solves, mean)
		}
	}
}

// TestArrayTwins checks the twin rule on strings whose segments differ in
// one cell field, by a quarter or one junction, or only in irradiance: a
// segment is the twin of an earlier one only when both match bit for bit,
// and every solve equals the verbatim solver's, which solves each segment.
func TestArrayTwins(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other *Cell
		irr   []float64
		twins []int
	}{
		{"photocurrent", NewCell(WithPhotoCurrent(20e-3)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"saturation current", NewCell(WithSaturationCurrent(1.25 * NewCell().saturationCurrent)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"ideality factor", NewCell(WithIdealityFactor(1.875)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"series cells", NewCell(WithSeriesCells(4)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"series resistance", NewCell(WithSeriesResistance(2.5)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"shunt resistance", NewCell(WithShuntResistance(3750)), []float64{1, 1, 1}, []int{-1, -1, 0}},
		{"irradiance", NewCell(), []float64{1, 0.5, 1}, []int{-1, -1, 0}},
		{"identical", NewCell(), []float64{1, 1, 0.3}, []int{-1, 0, -1}},
	} {
		a, err := NewArray([]*Cell{NewCell(), tc.other, NewCell()})
		if err != nil {
			t.Fatal(err)
		}
		s, ref := a.newSolver(tc.irr), verbatimSolver(a, tc.irr)
		if fmt.Sprint(s.twins) != fmt.Sprint(tc.twins) {
			t.Errorf("%s: twins %v, want %v", tc.name, s.twins, tc.twins)
		}
		for k := 0; k <= 32; k++ {
			current := 0.016 * float64(k) / 32
			if got, want := s.stringVoltage(current), ref.stringVoltage(current); !sameBits(got, want) {
				t.Fatalf("%s: stringVoltage(%g) = %x, verbatim %x", tc.name, current, got, want)
			}
		}
		for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
			if got, want := s.current(v), ref.current(v); !sameBits(got, want) {
				t.Fatalf("%s: current(%g) = %x, verbatim %x", tc.name, v, got, want)
			}
		}
	}
}

// cellBits is a cell's memory, every field's bits: the oracle for the twin
// rule, which covers any field a Cell gains.
func cellBits(c *Cell) [unsafe.Sizeof(Cell{})]byte {
	return *(*[unsafe.Sizeof(Cell{})]byte)(unsafe.Pointer(c))
}

// nudgedCell returns a default cell with field k (1 photocurrent, 2
// saturation current, 3 ideality factor, 4 series junctions, 5 series
// resistance, 6 shunt resistance) one ulp, or one junction, above the
// default; k = 0 leaves it default. It builds the cell with NewCell, which
// derives the solver's constants from the nudged field.
func nudgedCell(k int) *Cell {
	d := NewCell()
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	switch k {
	case 1:
		return NewCell(WithPhotoCurrent(up(d.photoCurrentFullSun)))
	case 2:
		return NewCell(WithSaturationCurrent(up(d.saturationCurrent)))
	case 3:
		return NewCell(WithIdealityFactor(up(d.idealityFactor)))
	case 4:
		return NewCell(WithSeriesCells(d.seriesCells + 1))
	case 5:
		return NewCell(WithSeriesResistance(up(d.seriesResistance)))
	case 6:
		return NewCell(WithShuntResistance(up(d.shuntResistance)))
	}
	return d
}

// FuzzArrayParity checks the string solver's voltage and current, and
// Power, on strings of one to four default cells against the verbatim
// nested bisection, bitwise, under fuzzed irradiances (zero, negative and
// NaN read as dark; infinite and overflowing ones terminate on the Voc
// bisection's iteration cap), terminal voltages (at or below zero, beyond
// the string's Voc) and string currents. odd puts a cell one ulp off the
// default in field odd>>2%7 (see nudgedCell) at segment odd%4, and each
// segment's twin must be the first earlier segment with its cell's and its
// irradiance's bits.
func FuzzArrayParity(f *testing.F) {
	for _, p := range shadingPatterns {
		for _, v := range []float64{-0.5, 0, 0.7, 1.9, 2.9, 4.2, 6} {
			f.Add(uint8(2), p[0], p[1], p[2], 0.0, v, 0.004, uint8(0))
		}
	}
	f.Add(uint8(3), 1.0, 0.0, -0.5, math.NaN(), 0.5, 0.016, uint8(0))
	f.Add(uint8(0), 1e-3, 0.0, 0.0, 0.0, 0.3, 1e-6, uint8(0))
	f.Add(uint8(1), 0.15, 1.0, 0.0, 0.0, 1.0, -0.01, uint8(0))
	f.Add(uint8(0), math.Inf(1), 0.0, 0.0, 0.0, 0.5, 0.004, uint8(0))
	f.Add(uint8(1), math.Inf(1), 0.5, 0.0, 0.0, 1.2, 0.004, uint8(0))
	f.Add(uint8(2), 1.0, math.Inf(-1), math.MaxFloat64, 0.0, 0.9, 0.01, uint8(0))
	f.Add(uint8(3), 1.0, 1.0, 1.0, 1.0, 3.1, 0.008, uint8(0))
	// Uniform light on a string with one segment one ulp off in a field.
	for k := uint8(1); k <= 6; k++ {
		f.Add(uint8(3), 1.0, 1.0, 1.0, 1.0, 3.1, 0.008, k<<2|k%4)
	}
	f.Fuzz(func(t *testing.T, n uint8, i0, i1, i2, i3, v, current float64, odd uint8) {
		irr := []float64{i0, i1, i2, i3}[:1+n%4]
		if !(math.Abs(v) <= 100) || !(math.Abs(current) <= 1) {
			t.Skip()
		}
		cells := make([]*Cell, len(irr))
		for k := range cells {
			cells[k] = NewCell()
		}
		if k := int(odd % 4); k < len(cells) {
			cells[k] = nudgedCell(int(odd >> 2 % 7))
		}
		a, err := NewArray(cells)
		if err != nil {
			t.Fatal(err)
		}
		s, ref := a.newSolver(irr), verbatimSolver(a, irr)
		for i := range cells {
			want := -1
			for j := range i {
				if cellBits(cells[j]) == cellBits(cells[i]) && sameBits(s.irrs[j], s.irrs[i]) {
					want = j
					break
				}
			}
			if s.twins[i] != want {
				t.Fatalf("segment %d of %v (odd %d): twin %d, want %d", i, irr, odd, s.twins[i], want)
			}
		}
		if got, want := s.stringVoltage(current), ref.stringVoltage(current); !sameBits(got, want) {
			t.Fatalf("stringVoltage(%x, %v) = %x, verbatim %x", current, irr, got, want)
		}
		if got, want := s.current(v), ref.current(v); !sameBits(got, want) {
			t.Fatalf("current(%x, %v) = %x, verbatim %x", v, irr, got, want)
		}
		if got, want := a.Power(v, irr), ref.power(v); !sameBits(got, want) {
			t.Fatalf("Power(%x, %v) = %x, verbatim %x", v, irr, got, want)
		}
	})
}

func BenchmarkGlobalMPP(b *testing.B) {
	cells := []*Cell{NewCell(), NewCell(), NewCell()}
	a, err := NewArray(cells)
	if err != nil {
		b.Fatal(err)
	}
	irr := []float64{1.0, 0.6, 0.15}
	for i := 0; i < b.N; i++ {
		a.GlobalMPP(irr)
	}
}
