package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// goldenTracePath pins the fig11b event stream byte for byte, like the
// report goldens: event renames, lost kinds or timestamp drift fail CI.
// Refresh with go test ./internal/expt -run TestGoldenTrace -update.
func goldenTracePath(id string) string {
	return filepath.Join("testdata", "golden-trace", id+".jsonl")
}

func TestGoldenTraceFig11b(t *testing.T) {
	got, err := RenderTrace("fig11b", trace.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	path := goldenTracePath("fig11b")
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
		t.Fatalf("missing golden trace (refresh with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace drifted from %s:\n%s", path, firstDiff(want, got))
	}
}

func TestTraceEventsDeterministic(t *testing.T) {
	a, err := TraceEvents("fig8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceEvents("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two traced runs of fig8 differ")
	}
	if len(a) == 0 {
		t.Fatal("fig8 trace is empty")
	}
}

func TestTraceEventsErrors(t *testing.T) {
	if _, err := TraceEvents("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown ID error = %v", err)
	}
	if _, err := TraceEvents("fig2"); !errors.Is(err, ErrNoTrace) {
		t.Errorf("untraced ID error = %v", err)
	}
}

func TestTracedIDs(t *testing.T) {
	want := []string{"ext-fleet", "ext-intermittent", "ext-scenario", "fig11b", "fig8", "fig9b"}
	if got := TracedIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("TracedIDs = %v, want %v", got, want)
	}
}

func TestRenderTraceChrome(t *testing.T) {
	body, err := RenderTrace("fig11b", trace.FormatChrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	for _, ev := range doc.TraceEvents {
		// Registry traces are sim-clock only: everything lives in pid 1.
		if ev.PID != 1 {
			t.Errorf("event on pid %d; registry traces must be deterministic (sim clock)", ev.PID)
		}
	}
}

// TestTraceMatchesReportTransitions cross-checks the event timeline
// against the result structs the reports print: the bypass handoff and
// the sprint-phase change must sit at the times the run recorded, and the
// MPPT estimate/retrack counts must equal the tracker's telemetry.
func TestTraceMatchesReportTransitions(t *testing.T) {
	rec := trace.NewRecorder()
	res, err := fig11b(Observe{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposed.BypassedAt < 0 {
		t.Fatal("proposed policy never bypassed; scenario drifted")
	}
	events := rec.Events()
	var bypassTime, sprintTime float64 = -1, -1
	for _, ev := range events {
		if ev.Track != "w/ sprinting+bypass" {
			continue
		}
		switch {
		case ev.Kind == "sched.bypass":
			bypassTime = ev.Time
		case ev.Kind == "sched.mode" && ev.Args["mode"] == "sprint":
			sprintTime = ev.Time
		}
	}
	if math.Abs(bypassTime-res.Proposed.BypassedAt) > 1e-9 {
		t.Errorf("sched.bypass at %g s, report says %g s", bypassTime, res.Proposed.BypassedAt)
	}
	if math.Abs(sprintTime-demoDeadline/2) > 2*demoStep {
		t.Errorf("sprint handoff at %g s, want ~T/2 = %g s", sprintTime, demoDeadline/2)
	}

	rec = trace.NewRecorder()
	f8, err := fig8(Observe{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	estimates, retracks := 0, 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case "mppt.estimate":
			estimates++
		case "mppt.retrack":
			retracks++
		}
	}
	if estimates != len(f8.Tracker.Estimates) {
		t.Errorf("%d mppt.estimate events, tracker made %d estimates", estimates, len(f8.Tracker.Estimates))
	}
	if retracks != f8.Tracker.Retargets {
		t.Errorf("%d mppt.retrack events, tracker retargeted %d times", retracks, f8.Tracker.Retargets)
	}
}
