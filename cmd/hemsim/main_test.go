package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expt"
)

func TestListFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig2", "fig7b", "fig11b", "headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"fig3"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "LDO") {
		t.Error("fig3 report missing LDO")
	}
}

func TestRunCommaSeparated(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"fig3,fig4"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fig. 3") || !strings.Contains(out, "Fig. 4") {
		t.Error("combined run missing a report")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"fig99"}, &b); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestParallelOutputByteIdentical is the engine's determinism contract:
// everything above the timing footer must not depend on -j.
func TestParallelOutputByteIdentical(t *testing.T) {
	const targets = "fig2,fig3,fig4,fig5,fig6a,headline"
	stripped := func(jobs string) string {
		var b strings.Builder
		if err := run([]string{"-j", jobs, targets}, &b); err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		out := b.String()
		if i := strings.Index(out, "-- timing"); i >= 0 {
			out = out[:i]
		} else {
			t.Errorf("-j %s: timing footer missing from multi-experiment run", jobs)
		}
		return out
	}
	j1 := stripped("1")
	j8 := stripped("8")
	if j1 != j8 {
		t.Errorf("reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
}

// TestFleetBatchParity: the -fleet report bytes are independent of the
// worker count and so of the lane windows it cuts the 12 nodes into: one
// of 12 (-j 1), then windows of 6, 3 and 2 lanes, and single lanes (-j 12).
func TestFleetBatchParity(t *testing.T) {
	const spec = "n=12,seed=4,horizon=0.004,epoch=1e-3,step=2e-5"
	outFor := func(jobs string) string {
		var b strings.Builder
		if err := run([]string{"-fleet", spec, "-j", jobs}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ref := outFor("1")
	if ref == "" {
		t.Fatal("empty fleet report")
	}
	for _, jobs := range []string{"2", "4", "6", "12"} {
		if got := outFor(jobs); got != ref {
			t.Errorf("-j %s: fleet report differs from -j 1", jobs)
		}
	}
}

func TestTimingFooter(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-j", "2", "fig3,fig4"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"-- timing (j=2) --", "fig3", "fig4", "experiments in"} {
		if !strings.Contains(out, want) {
			t.Errorf("timing footer missing %q:\n%s", want, out)
		}
	}
	// Single-experiment runs stay footer-free.
	b.Reset()
	if err := run([]string{"fig3"}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "-- timing") {
		t.Error("single-experiment run printed a timing footer")
	}
	// And -timing=false silences it.
	b.Reset()
	if err := run([]string{"-timing=false", "fig3,fig4"}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "-- timing") {
		t.Error("-timing=false still printed a footer")
	}
}

// TestFig9bCSVExport pins the series-export bugfix end to end: -csv must
// produce a waveform file for fig9b, not the "no plottable series" skip.
func TestFig9bCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiment")
	}
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csv", dir, "fig9b"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9b.csv"))
	if err != nil {
		t.Fatalf("fig9b.csv missing: %v", err)
	}
	if !strings.Contains(string(data), "sprint+bypass Vdd") {
		t.Error("fig9b.csv missing variant waveforms")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csv", dir, "fig2,headline"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatalf("fig2.csv missing: %v", err)
	}
	if !strings.HasPrefix(string(data), "series,x,y\n") {
		t.Error("csv header missing")
	}
	if !strings.Contains(string(data), "full sun") {
		t.Error("csv content missing")
	}
	// headline has no series: no file, no error.
	if _, err := os.Stat(filepath.Join(dir, "headline.csv")); !os.IsNotExist(err) {
		t.Error("headline.csv should not exist")
	}
}

// TestTraceParityAcrossWorkers extends the determinism contract to -trace:
// the merged event file must be byte-identical whatever -j was, and mixing
// traced and untraced experiments must not disturb it.
func TestTraceParityAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiments")
	}
	const targets = "fig8,fig2,fig11b"
	record := func(jobs string) []byte {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		var b strings.Builder
		if err := run([]string{"-j", jobs, "-trace", path, targets}, &b); err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		return data
	}
	j1, j8 := record("1"), record("8")
	if !bytes.Equal(j1, j8) {
		t.Errorf("trace differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
	if len(j1) == 0 {
		t.Fatal("trace file empty")
	}
	// Tracks are namespaced by experiment ID, and the untraced fig2
	// contributes nothing.
	for _, line := range strings.Split(strings.TrimSpace(string(j1)), "\n") {
		if !strings.Contains(line, `"track":"fig8`) && !strings.Contains(line, `"track":"fig11b`) {
			t.Errorf("event outside the fig8/fig11b namespaces: %s", line)
		}
	}
}

// TestTraceWallSpans checks -trace-wall adds runner telemetry on the wall
// clock without touching the deterministic sim events.
func TestTraceWallSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var b strings.Builder
	if err := run([]string{"-j", "2", "-trace", path, "-trace-wall", "fig3,fig8"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"runner.job"`) {
		t.Error("wall spans missing runner.job events")
	}
	if !strings.Contains(string(data), `"clock":"wall"`) {
		t.Error("runner spans should be on the wall clock")
	}
}

// TestTraceChromeExtension checks a .json -trace path switches to the
// Chrome trace format.
func TestTraceChromeExtension(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	if err := run([]string{"-trace", path, "fig8"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Error(".json trace is not in the Chrome format")
	}
}

// writeFaultPlan drops a canonical chaos plan into a temp dir: a blackout
// over the blinking profile plus an NVM that tears every second commit.
func writeFaultPlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed":7,"brownouts":[{"at_s":0.05,"duration_s":0.02}],` +
		`"random_brownouts":{"count":2,"mean_duration_s":0.01,"depth":0.1},` +
		`"nvm":{"fail_every_n":2,"restore_bitrot_prob":0.2}}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFaultsRequiresTrace(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-faults", writeFaultPlan(t), "fig2"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("-faults without -trace: err = %v, want a -trace hint", err)
	}
}

func TestFaultsBadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"nope":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-faults", path, "-trace", tracePath, "fig2"}, &b); err == nil {
		t.Error("malformed plan accepted")
	}
}

// TestFaultsParityAcrossWorkers extends the -j determinism contract to
// chaos runs: same plan, same seed, byte-identical trace whatever the
// worker count — the acceptance bar for the fault layer.
func TestFaultsParityAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiments")
	}
	plan := writeFaultPlan(t)
	const targets = "ext-intermittent,fig2,fig11b"
	record := func(jobs string) []byte {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		var b strings.Builder
		if err := run([]string{"-j", jobs, "-trace", path, "-faults", plan, targets}, &b); err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		return data
	}
	j1, j8 := record("1"), record("8")
	if !bytes.Equal(j1, j8) {
		t.Errorf("chaos trace differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
	out := string(j1)
	for _, kind := range []string{"fault.plan", "fault.brownout", "fault.nvm-torn"} {
		if !strings.Contains(out, `"kind":"`+kind+`"`) {
			t.Errorf("chaos trace missing %s events", kind)
		}
	}
}

// TestObserversLeaveOutputsUnchanged: each job takes its report, series,
// events and profile from one run, so turning every observer on must not
// move a stdout byte, and each CSV must equal the plain expt.RenderCSV. A
// fault plan perturbs only the trace: stdout and the CSVs stay benign.
func TestObserversLeaveOutputsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiments")
	}
	const targets = "fig2,fig8,fig11b,ext-intermittent,headline"
	stdout := func(args ...string) string {
		var b strings.Builder
		args = append([]string{"-j", "2", "-timing=false"}, append(args, targets)...)
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return b.String()
	}
	checkCSVs := func(dir string) {
		t.Helper()
		for _, id := range strings.Split(targets, ",") {
			got, readErr := os.ReadFile(filepath.Join(dir, id+".csv"))
			want, err := expt.RenderCSV(id)
			if errors.Is(err, expt.ErrNoSeries) {
				if !os.IsNotExist(readErr) {
					t.Errorf("summary-only %s left a CSV behind (%v)", id, readErr)
				}
				continue
			}
			if err != nil || readErr != nil {
				t.Fatalf("%s: render %v, read %v", id, err, readErr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s.csv differs from expt.RenderCSV", id)
			}
		}
	}
	plain := stdout()
	dir := t.TempDir()
	observed := stdout("-trace", filepath.Join(dir, "trace.jsonl"),
		"-profile", filepath.Join(dir, "profile.pb.gz"), "-csv", filepath.Join(dir, "csv"))
	if observed != plain {
		t.Errorf("-trace -profile -csv changed stdout:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	checkCSVs(filepath.Join(dir, "csv"))

	chaos := stdout("-trace", filepath.Join(dir, "chaos.jsonl"), "-faults", writeFaultPlan(t),
		"-csv", filepath.Join(dir, "chaos-csv"))
	if chaos != plain {
		t.Errorf("-faults changed stdout:\n--- plain ---\n%s\n--- chaos ---\n%s", plain, chaos)
	}
	checkCSVs(filepath.Join(dir, "chaos-csv"))
}

// scenarioSpecFile writes a fast scenario spec and returns its path.
func scenarioSpecFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name":"t","seed":9,` +
		`"source":{"kind":"kinetic","rate_hz":8,"impulse":0.5,"decay_s":0.2},` +
		`"workload":{"job_cycles":5e6,"aux_w":5e-5},` +
		`"geometry":{"nodes":3,"horizon_s":0.2,"step_s":1e-4}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioBatchParity extends the determinism contract to -scenario:
// byte-identical reports at every -j, from one window of all three nodes
// (-j 1) through 2+1 (-j 2) to single lanes (-j 3 and -j 8).
func TestScenarioBatchParity(t *testing.T) {
	spec := scenarioSpecFile(t)
	outFor := func(jobs string) string {
		var b strings.Builder
		if err := run([]string{"-scenario", spec, "-j", jobs}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ref := outFor("1")
	if !strings.Contains(ref, "== SCENARIO: t ==") {
		t.Fatalf("unexpected scenario report:\n%s", ref)
	}
	for _, jobs := range []string{"2", "3", "8"} {
		if got := outFor(jobs); got != ref {
			t.Errorf("-j %s: scenario report differs from -j 1", jobs)
		}
	}
}

// TestScenarioRecordReplay drives the record/replay loop through the CLI:
// -record captures the rendered light trace, a kind=trace spec replays it,
// and the two reports are byte-identical.
func TestScenarioRecordReplay(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpecFile(t)
	rec := filepath.Join(dir, "rec.json")
	var orig strings.Builder
	if err := run([]string{"-scenario", spec, "-record", rec}, &orig); err != nil {
		t.Fatal(err)
	}
	replaySpec := filepath.Join(dir, "replay.json")
	text := `{"name":"t","seed":9,` +
		`"source":{"kind":"trace","path":` + strconv.Quote(rec) + `},` +
		`"workload":{"job_cycles":5e6,"aux_w":5e-5},` +
		`"geometry":{"nodes":3,"horizon_s":0.2,"step_s":1e-4}}`
	if err := os.WriteFile(replaySpec, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed strings.Builder
	if err := run([]string{"-scenario", replaySpec}, &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != orig.String() {
		t.Errorf("replayed report differs from the original:\n%s\n-- vs --\n%s",
			replayed.String(), orig.String())
	}
}

// TestScenarioFlagValidation: -record without -scenario, and -scenario
// with -fleet, both fail fast.
func TestScenarioFlagValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-record", "x.json", "fig2"}, &b); err == nil {
		t.Error("-record without -scenario accepted")
	}
	if err := run([]string{"-scenario", "spec.json", "-fleet", "n=2"}, &b); err == nil {
		t.Error("-scenario with -fleet accepted")
	}
	if err := run([]string{"-scenario", filepath.Join(t.TempDir(), "missing.json")}, &b); err == nil {
		t.Error("missing spec file accepted")
	}
}
