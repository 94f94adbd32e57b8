package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// record once, share the file across subcommand tests (fig11b runs two
// transient simulations; no need to repeat them per test).
func recordFig11b(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig11b.jsonl")
	if err := run([]string{"record", "-o", path, "fig11b"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("record: %v", err)
	}
	return path
}

func TestListShowsTracedExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, id := range []string{"fig8", "fig9b", "fig11b", "ext-intermittent"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %q:\n%s", id, out.String())
		}
	}
}

func TestRecordValidateSummarize(t *testing.T) {
	path := recordFig11b(t)

	var out bytes.Buffer
	if err := run([]string{"validate", path}, &out); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.HasPrefix(out.String(), "ok:") {
		t.Errorf("validate output = %q, want ok: prefix", out.String())
	}

	out.Reset()
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	for _, want := range []string{"by kind:", "spans:", "time in mode:", "sched.bypass", "sprint"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestGoldenFleetSummary pins the summarize report for the ext-fleet trace,
// covering the fleet.run span and the fleet.epoch counter table.
// Regenerate with: go test ./cmd/hemtrace -run TestGoldenFleetSummary -update
func TestGoldenFleetSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext-fleet.jsonl")
	if err := run([]string{"record", "-o", path, "ext-fleet"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("record: %v", err)
	}
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	golden := filepath.Join("testdata", "golden_summary_ext-fleet.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (refresh with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("summary drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
	for _, kind := range []string{"fleet.run", "fleet.epoch", "counters:"} {
		if !strings.Contains(out.String(), kind) {
			t.Errorf("fleet summary missing %q:\n%s", kind, out.String())
		}
	}
}

func TestFilterByKind(t *testing.T) {
	path := recordFig11b(t)
	var out bytes.Buffer
	if err := run([]string{"filter", "-kind", "sched.mode", path}, &out); err != nil {
		t.Fatalf("filter: %v", err)
	}
	events, err := trace.ReadJSONL(&out)
	if err != nil {
		t.Fatalf("re-read filtered: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("filter kept no events")
	}
	for _, ev := range events {
		if ev.Kind != "sched.mode" {
			t.Errorf("filter leaked kind %q", ev.Kind)
		}
	}
}

func TestConvertEmitsValidChromeTrace(t *testing.T) {
	path := recordFig11b(t)
	var out bytes.Buffer
	if err := run([]string{"convert", "-format", "chrome", path}, &out); err != nil {
		t.Fatalf("convert: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("convert output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("convert produced no traceEvents")
	}
}

func TestRecordErrors(t *testing.T) {
	if err := run([]string{"record", "nope"}, new(bytes.Buffer)); !errors.Is(err, expt.ErrUnknown) {
		t.Errorf("unknown ID error = %v, want ErrUnknown", err)
	}
	// fig2 is analytic: registered, but with no traced runner.
	if err := run([]string{"record", "fig2"}, new(bytes.Buffer)); !errors.Is(err, expt.ErrNoTrace) {
		t.Errorf("untraced ID error = %v, want ErrNoTrace", err)
	}
	if err := run([]string{"record", "-format", "xml", "fig11b"}, new(bytes.Buffer)); err == nil {
		t.Error("bad -format accepted")
	}
}

func TestValidateRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(`{"seq":0,"clock":"lunar","t":1,"kind":"x","ph":"i"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", path}, new(bytes.Buffer)); err == nil {
		t.Error("corrupt trace validated")
	}
}
