package expt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// chaosTestPlan is the canonical hostile scenario pinned by the golden
// chaos trace: one explicit mid-run blackout, seeded random brownouts, and
// an NVM that tears every second commit mark and sometimes bit-rots
// restores.
func chaosTestPlan() fault.Plan {
	return fault.Plan{
		Seed:      7,
		Brownouts: []fault.Pulse{{AtS: 50e-3, DurationS: 20e-3}},
		Random:    &fault.RandomPulses{Count: 2, MeanDurationS: 10e-3, Depth: 0.1},
		NVM:       &fault.NVMPlan{FailEveryN: 2, RestoreBitrotProb: 0.2},
	}
}

// chaosEvents runs the experiment under the fault plan with a recorder
// attached and returns its events: the benign event stream plus a fault.*
// event for every injection.
func chaosEvents(id string, plan fault.Plan) ([]trace.Event, error) {
	rec := trace.NewRecorder()
	if _, _, err := observe(id, SurfaceChaos, Observe{Tracer: rec, Plan: &plan}); err != nil {
		return nil, err
	}
	return rec.Events(), nil
}

func TestChaosIDs(t *testing.T) {
	want := []string{"ext-intermittent", "fig11b", "fig9b"}
	if got := idsWith(SurfaceChaos, true); !reflect.DeepEqual(got, want) {
		t.Errorf("chaos IDs = %v, want %v", got, want)
	}
}

func TestChaosEventsErrors(t *testing.T) {
	if _, err := chaosEvents("nope", fault.Plan{}); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown ID error = %v", err)
	}
	if _, err := chaosEvents("fig2", fault.Plan{}); !errors.Is(err, ErrNoChaos) {
		t.Errorf("chaos-less ID error = %v", err)
	}
}

// TestChaosUnboundedPlanFailsFast: a plan whose brownout repetitions never
// advance passes ParsePlan (the bound needs the horizon) but must fail
// every chaos driver with ErrBadPlan at resolution, not hang it.
func TestChaosUnboundedPlanFailsFast(t *testing.T) {
	plan, err := fault.ParsePlan([]byte(`{"brownouts":[{"at_s":0.01,"duration_s":1e-20,"every_s":1e-20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range idsWith(SurfaceChaos, true) {
		start := time.Now()
		if _, err := chaosEvents(id, plan); !errors.Is(err, fault.ErrBadPlan) {
			t.Errorf("%s: err = %v, want ErrBadPlan", id, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejection took %v", id, d)
		}
	}
}

func TestChaosEventsDeterministic(t *testing.T) {
	a, err := chaosEvents("ext-intermittent", chaosTestPlan())
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaosEvents("ext-intermittent", chaosTestPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two chaos runs of the same plan differ")
	}
	kinds := map[string]int{}
	for _, ev := range a {
		kinds[ev.Kind]++
	}
	if kinds["fault.plan"] == 0 || kinds["fault.brownout"] == 0 {
		t.Errorf("chaos run emitted no fault schedule events: %v", kinds)
	}
	if kinds["fault.nvm-torn"] == 0 {
		t.Errorf("FailEveryN=2 plan tore no commit marks: %v", kinds)
	}
	if err := trace.ValidateAll(a); err != nil {
		t.Errorf("chaos trace invalid: %v", err)
	}
}

// TestGoldenChaosTrace pins the canonical chaos run's fault.* event stream
// byte for byte, so fault timing, injection counts and event shapes cannot
// drift silently. Refresh with
// go test ./internal/expt -run TestGoldenChaosTrace -update.
func TestGoldenChaosTrace(t *testing.T) {
	events, err := chaosEvents("ext-intermittent", chaosTestPlan())
	if err != nil {
		t.Fatal(err)
	}
	faults := trace.Filter(events, func(ev trace.Event) bool {
		return ev.Kind == "fault.plan" || ev.Kind == "fault.brownout" ||
			ev.Kind == "fault.nvm-torn" || ev.Kind == "fault.nvm-bitrot"
	})
	if len(faults) == 0 {
		t.Fatal("chaos run emitted no fault.* events")
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.FormatJSONL, faults); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := goldenTracePath("ext-intermittent-chaos")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden chaos trace (refresh with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chaos trace drifted from %s:\n%s", path, firstDiff(want, got))
	}
}

// TestChaosBrownoutsChangeOutcome sanity-checks that the fault layer
// actually reaches the physics: the fig11b chaos run under a total
// mid-scenario blackout must not beat its benign twin.
func TestChaosBrownoutsChangeOutcome(t *testing.T) {
	benign, err := fig11b(Observe{})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Brownouts: []fault.Pulse{{AtS: 2e-3, DurationS: 40e-3}}}
	dark, err := fig11b(Observe{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if dark.Proposed.OperatedFor > benign.Proposed.OperatedFor+1e-9 {
		t.Errorf("blackout lengthened operation: %g > %g",
			dark.Proposed.OperatedFor, benign.Proposed.OperatedFor)
	}
	if dark.Proposed.EnergyHarvested >= benign.Proposed.EnergyHarvested {
		t.Errorf("blackout did not reduce harvested energy: %g >= %g",
			dark.Proposed.EnergyHarvested, benign.Proposed.EnergyHarvested)
	}
}
