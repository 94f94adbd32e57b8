package core

import (
	"fmt"

	"repro/internal/mppt"
	"repro/internal/reg"
	"repro/internal/trace"
)

// Manager is the holistic energy-management planner: it plans operating
// points with the Sec. IV/V analyses and characterises them into the plan
// table the time-based MPP tracker (Sec. VI.A) indexes. A run is a
// circuit.Config whose Controller is an mppt.Tracker over that table or a
// sched.DeadlineController (Sec. VI.B sprint/bypass scheduling).
type Manager struct {
	sys    *System
	r      reg.Regulator
	tracer trace.Tracer
}

// NewManager returns a Manager over the system and regulator.
func NewManager(sys *System, r reg.Regulator) *Manager {
	return &Manager{sys: sys, r: r}
}

// WithTracer attaches an event tracer to the manager's planning decisions.
// It returns the manager for chaining; a nil tracer disables tracing.
func (m *Manager) WithTracer(t trace.Tracer) *Manager {
	m.tracer = t
	return m
}

// PlanPerformance returns the best performance-oriented operating point at
// the given irradiance, applying the bypass rule: regulated MPP operation
// when it wins, direct connection otherwise.
func (m *Manager) PlanPerformance(irradiance float64) (Point, error) {
	d := m.sys.DecideBypass(m.r, irradiance)
	if trace.On(m.tracer) {
		// Planning is timeless: plan events sit at t=0 on the sim clock and
		// rely on sequence order (BuildTrackingTable emits one per level).
		pt := d.Regulated
		if d.Bypass {
			pt = d.Unregulated
		}
		trace.Instant(m.tracer, "core.plan", 0, "", trace.Args{
			"irradiance": irradiance, "bypass": d.Bypass,
			"supply_v": pt.Supply, "frequency_hz": pt.Frequency,
			"load_w": pt.LoadPower,
		})
	}
	if d.Bypass {
		if d.Unregulated.Frequency <= 0 {
			return d.Unregulated, fmt.Errorf("%w: no operation at irradiance %.3g", ErrNoFeasiblePoint, irradiance)
		}
		return d.Unregulated, nil
	}
	return d.Regulated, nil
}

// BuildTrackingTable pre-characterises the harvester at the given
// irradiance levels and plans each with the holistic performance rule,
// producing the lookup table the time-based MPP tracker indexes.
func (m *Manager) BuildTrackingTable(levels []float64) *mppt.Table {
	return mppt.BuildTable(m.sys.Cell, levels, func(irr, vmpp, pmpp float64) (float64, float64, bool) {
		pt, err := m.PlanPerformance(irr)
		if err != nil {
			// Unrunnable level: park at the minimum voltage, clock gated.
			return m.sys.Proc.MinVoltage(), 0, true
		}
		return pt.Supply, pt.Frequency, pt.RegulatorName == "Bypass"
	})
}
