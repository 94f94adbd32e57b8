package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderSequencesEvents(t *testing.T) {
	r := NewRecorder()
	Instant(r, "a.one", 0.5, "x", nil)
	Begin(r, "a.span", 1.0, "x", Args{"v": 1.5})
	End(r, "a.span", 2.0, "x", nil)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if err := ValidateAll(evs); err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	// All helpers must tolerate a nil tracer (tracing off).
	Instant(nil, "k", 0, "", nil)
	Begin(nil, "k", 0, "", nil)
	End(nil, "k", 0, "", nil)
	Counter(nil, "k", 0, "", nil)
	WallSpan(nil, "k", 0, 1, "", nil)
	if On(nil) {
		t.Fatal("On(nil) = true")
	}
	if !On(NewRecorder()) {
		t.Fatal("On(recorder) = false")
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Instant(r, "k", float64(i), "", nil)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("got %d events, want 800", r.Len())
	}
	if err := ValidateAll(r.Events()); err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	Instant(r, "sched.mode", 0.001, "proposed", Args{"mode": "slow", "f_hz": 1.84e8})
	Begin(r, "mppt.window", 0.002, "proposed", nil)
	End(r, "mppt.window", 0.004, "proposed", Args{"pin_w": 0.0081})
	WallSpan(r, "runner.job", 0, 0.25, "fig11b", Args{"worker": 2})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != r.Len() {
		t.Fatalf("round trip lost events: got %d want %d", len(got), r.Len())
	}
	// Serialisation must be deterministic: same events, same bytes.
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var buf3 bytes.Buffer
	if err := WriteJSONL(&buf3, r.Events()); err != nil {
		t.Fatalf("re-encode original: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("JSONL bytes differ between original and round-tripped events")
	}
}

func TestReadJSONLRejectsBadEvents(t *testing.T) {
	cases := map[string]string{
		"bad clock": `{"seq":0,"clock":"lunar","t":0,"kind":"k","ph":"i"}`,
		"bad phase": `{"seq":0,"clock":"sim","t":0,"kind":"k","ph":"Z"}`,
		"no kind":   `{"seq":0,"clock":"sim","t":0,"kind":"","ph":"i"}`,
		"neg time":  `{"seq":0,"clock":"sim","t":-1,"kind":"k","ph":"i"}`,
		"not json":  `nope`,
		"seq falls": `{"seq":1,"clock":"sim","t":0,"kind":"k","ph":"i"}` + "\n" +
			`{"seq":0,"clock":"sim","t":0,"kind":"k","ph":"i"}`,
		"seq repeats": `{"seq":0,"clock":"sim","t":0,"kind":"k","ph":"i"}` + "\n" +
			`{"seq":0,"clock":"sim","t":1,"kind":"k","ph":"i"}`,
	}
	for name, line := range cases {
		if _, err := ReadJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: ReadJSONL accepted %q", name, line)
		}
	}
}

func TestMergeRenumbers(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	Instant(a, "a", 1, "", nil)
	Instant(a, "a", 2, "", nil)
	Instant(b, "b", 0.5, "", nil)
	merged := Merge(a.Events(), b.Events())
	if len(merged) != 3 {
		t.Fatalf("got %d events", len(merged))
	}
	if err := ValidateAll(merged); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if merged[2].Kind != "b" || merged[2].Seq != 2 {
		t.Fatalf("batch order not preserved: %+v", merged[2])
	}
}

func TestWriteChromeIsValidTraceEventJSON(t *testing.T) {
	r := NewRecorder()
	Instant(r, "sched.bypass", 0.016, "proposed", Args{"vcap_v": 0.61})
	Begin(r, "mppt.window", 0.002, "proposed", nil)
	End(r, "mppt.window", 0.004, "proposed", nil)
	Counter(r, "sched.slack", 0.01, "proposed", Args{"cycles": 1234.0, "ok": true, "label": "x"})
	WallSpan(r, "runner.job", 0, 0.25, "fig11b", nil)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// The document must parse as the trace_event object form with the
	// required per-event fields — the schema chrome://tracing/Perfetto load.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	pids := map[float64]bool{}
	var meta, real int
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		if ev["ph"] == "M" {
			meta++
			continue
		}
		real++
		pids[ev["pid"].(float64)] = true
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("non-metadata event missing ts: %v", ev)
		}
		if ev["ph"] == "C" {
			for k, v := range ev["args"].(map[string]any) {
				if _, ok := v.(float64); !ok {
					t.Errorf("counter arg %q is not numeric: %v", k, v)
				}
			}
		}
	}
	if meta == 0 {
		t.Error("no process/thread metadata events emitted")
	}
	if real != r.Len() {
		t.Errorf("got %d non-metadata events, want %d", real, r.Len())
	}
	// Sim and wall clocks must land in distinct processes (separate tracks).
	if len(pids) != 2 {
		t.Errorf("expected 2 clock processes, saw pids %v", pids)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder()
	Instant(r, "sched.mode", 0.0, "run", Args{"mode": "slow"})
	Instant(r, "sched.mode", 0.013, "run", Args{"mode": "sprint"})
	Begin(r, "mppt.window", 0.002, "run", nil)
	End(r, "mppt.window", 0.005, "run", nil)
	Begin(r, "mppt.window", 0.010, "run", nil)
	End(r, "mppt.window", 0.014, "run", nil)
	Instant(r, "mppt.retrack", 0.014, "run", Args{"pin_w": 0.008})
	Instant(r, "circuit.halt", 0.020, "run", nil)
	Counter(r, "fleet.epoch", 0.010, "fleet", Args{"active": 7, "harvest_j": 0.5})
	Counter(r, "fleet.epoch", 0.020, "fleet", Args{"active": 3, "harvest_j": 1.25})

	s := Summarize(r.Events())
	if s.Events != 10 {
		t.Fatalf("Events = %d", s.Events)
	}
	if s.ByKind["mppt.window"] != 4 || s.ByKind["sched.mode"] != 2 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}
	if len(s.Spans) != 1 {
		t.Fatalf("Spans = %+v", s.Spans)
	}
	sp := s.Spans[0]
	if sp.Count != 2 || !approx(sp.TotalS, 0.007) || !approx(sp.LongestS, 0.004) {
		t.Fatalf("span stats = %+v", sp)
	}
	// slow: 0 -> 0.013; sprint: 0.013 -> 0.020 (track horizon).
	want := map[string]float64{"slow": 0.013, "sprint": 0.007}
	for _, m := range s.Modes {
		if !approx(m.TotalS, want[m.Mode]) {
			t.Errorf("mode %q dwell = %g, want %g", m.Mode, m.TotalS, want[m.Mode])
		}
	}
	// The counter table keeps the last sampled value per arg — cumulative
	// series read out as run totals.
	if len(s.Counters) != 1 {
		t.Fatalf("Counters = %+v", s.Counters)
	}
	c := s.Counters[0]
	if c.Kind != "fleet.epoch" || c.Track != "fleet" || c.Samples != 2 {
		t.Fatalf("counter stats = %+v", c)
	}
	if !approx(c.FirstS, 0.010) || !approx(c.LastS, 0.020) {
		t.Fatalf("counter time range = [%g, %g]", c.FirstS, c.LastS)
	}
	if c.Last["active"] != 3 || c.Last["harvest_j"] != 1.25 {
		t.Fatalf("counter finals = %v", c.Last)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, want := range []string{"by kind:", "spans:", "counters:", "time in mode:", "mppt.retrack", "fleet.epoch"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFilterAndKinds(t *testing.T) {
	r := NewRecorder()
	Instant(r, "a.x", 0, "", nil)
	Instant(r, "b.y", 1, "", nil)
	Instant(r, "a.z", 2, "", nil)
	got := Filter(r.Events(), func(ev Event) bool { return strings.HasPrefix(ev.Kind, "a.") })
	if len(got) != 2 {
		t.Fatalf("Filter kept %d events", len(got))
	}
	kinds := Kinds(r.Events())
	if len(kinds) != 3 || kinds[0] != "a.x" || kinds[2] != "b.y" {
		t.Fatalf("Kinds = %v", kinds)
	}
}

func approx(got, want float64) bool {
	const tol = 1e-9
	return got > want-tol && got < want+tol
}
