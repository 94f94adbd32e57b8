package core

import (
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/pv"
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

func TestRunTrackedReproducesMPPT(t *testing.T) {
	m := testManager()
	vmpp, _ := m.sys.Cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunTracked(TrackedRunConfig{
		Cap:        storage,
		Irradiance: circuit.StepIrradiance(1.0, 0.25, 8e-3),
		Levels:     []float64{0.05, 0.1, 0.25, 0.5, 1.0},
		V1:         1.0,
		V2:         0.9,
		Duration:   40e-3,
		TraceEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) == 0 || res.Retargets == 0 {
		t.Fatalf("no tracking activity: %+v", res)
	}
	_, want := m.sys.Cell.MPP(0.25)
	if math.Abs(res.Estimates[0]-want)/want > 0.30 {
		t.Errorf("estimate %.3g W, want within 30%% of %.3g W", res.Estimates[0], want)
	}
	if res.Outcome.Trace == nil {
		t.Error("trace missing")
	}
}

func TestRunDeadlineJobCompletes(t *testing.T) {
	m := testManager()
	storage, err := cap.New(100e-6, 1.09, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunDeadlineJob(DeadlineRunConfig{
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(1.0),
		Cycles:     4e6,
		Deadline:   20e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Completed {
		t.Fatalf("job did not complete: %+v", res.Outcome)
	}
	if res.BypassedAt >= 0 {
		t.Error("no bypass expected at constant full sun")
	}
}

func TestRunDeadlineJobConfigErrors(t *testing.T) {
	m := testManager()
	if _, err := m.RunDeadlineJob(DeadlineRunConfig{}); err == nil {
		t.Error("missing components should error")
	}
	if _, err := m.RunTracked(TrackedRunConfig{}); err == nil {
		t.Error("missing components should error")
	}
}

func TestRunDeadlineJobQuantizedClock(t *testing.T) {
	m := testManager()
	storage, err := cap.New(100e-6, 1.09, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{100e6, 200e6, 300e6, 400e6}
	res, err := m.RunDeadlineJob(DeadlineRunConfig{
		Cap:         storage,
		Irradiance:  circuit.ConstantIrradiance(1.0),
		Cycles:      4e6,
		Deadline:    25e-3,
		ClockLevels: levels,
		TraceEvery:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Completed {
		t.Fatalf("quantized job did not complete: %+v", res.Outcome)
	}
	// Every traced frequency sits on the grid (or zero).
	for _, s := range res.Outcome.Trace.Samples {
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

func TestRunConfigTracerOverridesManager(t *testing.T) {
	mgrRec := trace.NewRecorder()
	runRec := trace.NewRecorder()
	m := testManager().WithTracer(mgrRec)
	storage, err := cap.New(100e-6, 1.09, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunDeadlineJob(DeadlineRunConfig{
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(1.0),
		Cycles:     4e6,
		Deadline:   20e-3,
		Tracer:     runRec,
		TraceTrack: "override",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Completed {
		t.Fatalf("job did not complete")
	}
	if runRec.Len() == 0 {
		t.Fatal("override tracer saw no events")
	}
	for _, ev := range runRec.Events() {
		if ev.Track != "override" {
			t.Errorf("event track = %q, want override", ev.Track)
		}
	}
	if mgrRec.Len() != 0 {
		t.Errorf("manager tracer saw %d events despite the override", mgrRec.Len())
	}
}
