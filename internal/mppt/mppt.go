// Package mppt implements the paper's time-based maximum-power-point
// tracking scheme (Sec. VI.A, Fig. 8). Instead of a current sensor, the
// input power of the solar cell is derived from how long the storage
// capacitor voltage takes to fall between two comparator thresholds V1 and
// V2 (Eq. 6-7):
//
//	Pin = Pdraw - C * Vavg * (V1 - V2) / t,
//
// where Pdraw is the (known) power the regulator draws from the node during
// the window. The estimate indexes a pre-computed lookup table mapping
// input power to the matching irradiance, MPP voltage and DVFS plan, so a
// sudden light change re-targets the operating point within one capacitor
// discharge interval.
//
// All quantities use SI units.
package mppt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/pv"
	"repro/internal/trace"
)

// Errors returned by this package.
var (
	// ErrEmptyTable indicates a lookup against a table with no entries.
	ErrEmptyTable = errors.New("mppt: empty lookup table")

	// ErrBadWindow indicates a non-positive crossing time or inverted
	// thresholds passed to the estimator.
	ErrBadWindow = errors.New("mppt: invalid estimation window")
)

// EstimateInputPower derives the harvester's input power (W) from a
// threshold-crossing observation, per Eq. 7. capacitance is the storage
// capacitance (F); vHigh and vLow are the comparator thresholds (V) with
// vHigh > vLow; elapsed is the crossing time (s); drawPower is the average
// power (W) drawn from the node during the window. The energy-balance form
// C*(vHigh^2-vLow^2)/2 is used, which equals C*Vavg*(V1-V2) exactly.
// Estimates clamp at zero: the harvester never sinks power.
func EstimateInputPower(capacitance, vHigh, vLow, elapsed, drawPower float64) (float64, error) {
	if elapsed <= 0 || vHigh <= vLow || capacitance <= 0 {
		return 0, fmt.Errorf("%w: C=%g V1=%g V2=%g t=%g", ErrBadWindow, capacitance, vHigh, vLow, elapsed)
	}
	pin := drawPower - capacitance*(vHigh*vHigh-vLow*vLow)/(2*elapsed)
	if pin < 0 {
		pin = 0
	}
	return pin, nil
}

// Entry is one row of the pre-characterised lookup table: for an observed
// input power, the matching irradiance, MPP and recommended DVFS plan.
type Entry struct {
	InputPower float64 // MPP power at this irradiance (W), the table key
	Irradiance float64 // fraction of full sun
	MPPVoltage float64 // harvester voltage at the MPP (V)
	Supply     float64 // recommended regulator output (V)
	Frequency  float64 // recommended clock frequency (Hz)
	Bypass     bool    // direct connection recommended at this level
}

// Planner chooses the DVFS plan for one characterised harvesting level.
// Implementations typically wrap the holistic optimiser; returning
// bypass=true recommends direct connection at this level.
type Planner func(irradiance, mppVoltage, mppPower float64) (supply, frequency float64, bypass bool)

// Table maps estimated input power to operating plans. Build with
// BuildTable; entries are kept sorted by InputPower.
type Table struct {
	entries []Entry
}

// BuildTable characterises the cell at the given irradiance levels and
// plans each with the planner. Levels need not be sorted.
func BuildTable(cell *pv.Cell, levels []float64, plan Planner) *Table {
	t := &Table{}
	for _, irr := range levels {
		if irr <= 0 {
			continue
		}
		vmpp, pmpp := cell.MPP(irr)
		supply, freq, bypass := plan(irr, vmpp, pmpp)
		t.entries = append(t.entries, Entry{
			InputPower: pmpp,
			Irradiance: irr,
			MPPVoltage: vmpp,
			Supply:     supply,
			Frequency:  freq,
			Bypass:     bypass,
		})
	}
	sort.Slice(t.entries, func(i, j int) bool {
		return t.entries[i].InputPower < t.entries[j].InputPower
	})
	return t
}

// Len returns the number of table rows.
func (t *Table) Len() int { return len(t.entries) }

// Lookup returns the row whose input power is nearest (in log ratio) to the
// estimate, which matches how a hardware LUT with decade-spaced rows is
// indexed.
func (t *Table) Lookup(pin float64) (Entry, error) {
	if len(t.entries) == 0 {
		return Entry{}, ErrEmptyTable
	}
	best, bestDist := t.entries[0], math.Inf(1)
	for _, e := range t.entries {
		var d float64
		if pin <= 0 || e.InputPower <= 0 {
			d = math.Abs(e.InputPower - pin)
		} else {
			d = math.Abs(math.Log(e.InputPower / pin))
		}
		if d < bestDist {
			best, bestDist = e, d
		}
	}
	return best, nil
}

// The tracker's fixed wiring: the simulation's comparator list opens with
// the V1/V2 estimation pair that Comparators builds, each comparator has a
// 4 mV hysteresis band, and the proportional loop trims the clock by
// trackerGain per volt of node error per second.
const (
	v1Index, v2Index     = 0, 1
	comparatorHysteresis = 0.004 // V
	trackerGain          = 2000  // 1/(V*s)
)

// Comparators returns the V1/V2 estimation comparator pair a Tracker
// reads, in the order it expects; v1 must exceed v2.
func Comparators(v1, v2 float64) []circuit.Comparator {
	return []circuit.Comparator{
		{Threshold: v1, Hysteresis: comparatorHysteresis},
		{Threshold: v2, Hysteresis: comparatorHysteresis},
	}
}

// Tracker is a circuit.Controller that performs time-based MPP tracking:
// a proportional DVFS loop holds the storage node near the MPP voltage of
// the currently assumed light level, and comparator crossings between the
// V1/V2 thresholds re-estimate the input power and re-target the plan.
// It starts from the brightest table row.
type Tracker struct {
	// Table is the pre-characterised plan table (required).
	Table *Table

	target      Entry
	windowStart float64
	windowOpen  bool
	drawAccum   float64
	drawSamples int

	// Telemetry for tests and reports.
	Estimates []float64 // input-power estimates in order (W)
	Retargets int       // number of plan switches
}

var _ circuit.Controller = (*Tracker)(nil)

// Init implements circuit.Controller.
func (tr *Tracker) Init(s *circuit.State) {
	// Rows sort by input power, so the last is the brightest level.
	tr.target = tr.Table.entries[len(tr.Table.entries)-1]
	if s.Tracing() {
		s.TraceInstant("mppt.init", trace.Args{
			"irradiance": tr.target.Irradiance, "mpp_v": tr.target.MPPVoltage,
			"supply_v": tr.target.Supply, "frequency_hz": tr.target.Frequency,
			"bypass": tr.target.Bypass, "table_rows": float64(tr.Table.Len()),
		})
	}
	tr.apply(s)
}

// targetNodeVoltage is where the loop steers the storage node: the MPP
// voltage in regulated mode, or the planned direct-connection voltage in
// bypass mode (holding the node at the MPP is not viable there — the core's
// leakage at that supply can exceed the harvest).
func (tr *Tracker) targetNodeVoltage() float64 {
	if tr.target.Bypass {
		return tr.target.Supply
	}
	return tr.target.MPPVoltage
}

// apply commands the current target entry.
func (tr *Tracker) apply(s *circuit.State) {
	s.SetBypass(tr.target.Bypass)
	s.SetSupply(tr.target.Supply)
	s.SetFrequency(tr.target.Frequency)
}

// OnStep implements circuit.Controller: proportional frequency trim that
// steers the node toward the target MPP voltage — draw more when the node
// is above the MPP, less when below.
func (tr *Tracker) OnStep(s *circuit.State) {
	if tr.windowOpen {
		tr.drawAccum += s.InputPower()
		tr.drawSamples++
	}
	err := s.CapVoltage() - tr.targetNodeVoltage()
	f := s.Frequency() * (1 + trackerGain*err*s.Step())
	if base := tr.target.Frequency; f < 0.05*base {
		f = 0.05 * base // keep the clock alive so the loop can recover
	}
	fm := s.MaxFrequency()
	if f > fm {
		f = fm
	}
	s.SetFrequency(f)
}

// OnThreshold implements circuit.Controller: a falling crossing of V1 opens
// the estimation window; the subsequent falling crossing of V2 closes it,
// estimates the input power per Eq. 7 and re-targets the plan from the
// table. Rising through V1 cancels a pending window (the node recovered).
func (tr *Tracker) OnThreshold(s *circuit.State, ev circuit.ThresholdEvent) {
	switch ev.Index {
	case v1Index:
		if !ev.Rising {
			tr.windowStart = ev.Time
			tr.windowOpen = true
			tr.drawAccum = 0
			tr.drawSamples = 0
			if s.Tracing() {
				s.TraceBegin("mppt.window", trace.Args{"v1": ev.Threshold})
			}
		} else {
			if tr.windowOpen && s.Tracing() {
				s.TraceEnd("mppt.window", trace.Args{"canceled": true})
			}
			tr.windowOpen = false
		}
	case v2Index:
		if ev.Rising || !tr.windowOpen {
			return
		}
		tr.windowOpen = false
		elapsed := ev.Time - tr.windowStart
		draw := 0.0
		if tr.drawSamples > 0 {
			draw = tr.drawAccum / float64(tr.drawSamples)
		}
		v1 := s.ComparatorThreshold(v1Index)
		v2 := s.ComparatorThreshold(v2Index)
		if s.Tracing() {
			s.TraceEnd("mppt.window", trace.Args{"elapsed_s": elapsed, "draw_w": draw})
		}
		pin, err := EstimateInputPower(s.Capacitor().Capacitance(), v1, v2, elapsed, draw)
		if err != nil {
			return
		}
		tr.Estimates = append(tr.Estimates, pin)
		if s.Tracing() {
			// The Eq. 6-7 input-power estimate, whether or not it retargets.
			s.TraceInstant("mppt.estimate", trace.Args{
				"pin_w": pin, "elapsed_s": elapsed, "draw_w": draw,
			})
		}
		entry, err := tr.Table.Lookup(pin)
		if err != nil {
			return
		}
		if entry != tr.target {
			tr.target = entry
			tr.Retargets++
			if s.Tracing() {
				// A LUT re-track decision: the plan switched rows.
				s.TraceInstant("mppt.retrack", trace.Args{
					"pin_w": pin, "irradiance": entry.Irradiance,
					"mpp_v": entry.MPPVoltage, "supply_v": entry.Supply,
					"frequency_hz": entry.Frequency, "bypass": entry.Bypass,
				})
			}
		}
		tr.apply(s)
	}
}
