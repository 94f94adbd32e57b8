package core

import (
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/sched"
	"repro/internal/trace"
)

func testManager() *Manager {
	sys, sc, _, _ := defaultSystem()
	return NewManager(sys, sc)
}

func TestPlanPerformanceFollowsBypassRule(t *testing.T) {
	m := testManager()
	bright, err := m.PlanPerformance(pv.FullSun)
	if err != nil {
		t.Fatal(err)
	}
	if bright.RegulatorName == "Bypass" {
		t.Error("full sun plan should regulate")
	}
	dim, err := m.PlanPerformance(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if dim.RegulatorName != "Bypass" {
		t.Error("dim plan should bypass")
	}
	if bright.Frequency <= dim.Frequency {
		t.Error("bright plan should be faster")
	}
}

func TestBuildTrackingTable(t *testing.T) {
	m := testManager()
	table := m.BuildTrackingTable([]float64{0.05, 0.25, 1.0})
	if table.Len() != 3 {
		t.Fatalf("len = %d", table.Len())
	}
	// Bright levels regulate; dim levels bypass, matching DecideBypass.
	for _, irr := range []float64{0.05, 0.25, 1.0} {
		_, pmpp := m.sys.Cell.MPP(irr)
		e, err := table.Lookup(pmpp)
		if err != nil || e.Irradiance != irr {
			t.Fatalf("irr=%.2f: row %+v, %v", irr, e, err)
		}
		if d := m.sys.DecideBypass(m.r, irr); e.Bypass != d.Bypass {
			t.Errorf("irr=%.2f: table bypass=%v, decision=%v", irr, e.Bypass, d.Bypass)
		}
	}
}

// runOn runs cfg on the manager's node: its cell, processor and regulator.
func runOn(t *testing.T, m *Manager, cfg circuit.Config) *circuit.Outcome {
	t.Helper()
	cfg.Cell, cfg.Proc, cfg.Reg = m.sys.Cell, m.sys.Proc, m.r
	sim, err := circuit.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunTrackedReproducesMPPT(t *testing.T) {
	m := testManager()
	vmpp, _ := m.sys.Cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	tracker := &mppt.Tracker{Table: m.BuildTrackingTable([]float64{0.05, 0.1, 0.25, 0.5, 1.0})}
	out := runOn(t, m, circuit.Config{
		Cap:         storage,
		Irradiance:  circuit.StepIrradiance(1.0, 0.25, 8e-3),
		Controller:  tracker,
		Comparators: mppt.Comparators(1.0, 0.9),
		Step:        2e-6,
		MaxTime:     40e-3,
		TraceEvery:  100,
	})
	if len(tracker.Estimates) == 0 || tracker.Retargets == 0 {
		t.Fatalf("no tracking activity: %d estimates, %d retargets", len(tracker.Estimates), tracker.Retargets)
	}
	_, want := m.sys.Cell.MPP(0.25)
	if math.Abs(tracker.Estimates[0]-want)/want > 0.30 {
		t.Errorf("estimate %.3g W, want within 30%% of %.3g W", tracker.Estimates[0], want)
	}
	if out.Trace == nil {
		t.Error("trace missing")
	}
}

// deadlineJob is a job of the given length and window on a fresh 100 uF
// node at full sun, horizon twice the deadline.
func deadlineJob(t *testing.T, ctl *sched.DeadlineController) circuit.Config {
	t.Helper()
	storage, err := cap.New(100e-6, 1.09, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return circuit.Config{
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(1.0),
		Controller: ctl,
		Step:       2e-6,
		MaxTime:    2 * ctl.Deadline,
		JobCycles:  ctl.Cycles,
	}
}

func TestRunDeadlineJobCompletes(t *testing.T) {
	m := testManager()
	ctl := &sched.DeadlineController{Cycles: 4e6, Deadline: 20e-3}
	out := runOn(t, m, deadlineJob(t, ctl))
	if !out.Completed {
		t.Fatalf("job did not complete: %+v", out)
	}
	if ctl.BypassedAt >= 0 {
		t.Error("no bypass expected at constant full sun")
	}
}

func TestRunDeadlineJobQuantizedClock(t *testing.T) {
	m := testManager()
	levels := []float64{100e6, 200e6, 300e6, 400e6}
	cfg := deadlineJob(t, &sched.DeadlineController{Cycles: 4e6, Deadline: 25e-3})
	cfg.ClockLevels = levels
	cfg.TraceEvery = 50
	out := runOn(t, m, cfg)
	if !out.Completed {
		t.Fatalf("quantized job did not complete: %+v", out)
	}
	// Every traced frequency sits on the grid (or zero).
	for _, s := range out.Trace.Samples {
		onGrid := s.Frequency == 0
		for _, l := range levels {
			if math.Abs(s.Frequency-l) < 1 {
				onGrid = true
			}
		}
		if !onGrid {
			t.Fatalf("off-grid frequency %.4g Hz in trace", s.Frequency)
		}
	}
}

func TestPlanPerformanceEmitsPlanEvent(t *testing.T) {
	rec := trace.NewRecorder()
	m := testManager().WithTracer(rec)
	if _, err := m.PlanPerformance(1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanPerformance(0.1); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Kind != "core.plan" || ev.Clock != trace.ClockSim {
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if b, ok := events[1].Args["bypass"].(bool); !ok || !b {
		t.Errorf("dim plan event should carry bypass=true, got %v", events[1].Args["bypass"])
	}
}
