package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/prof"
	"repro/internal/trace"
)

func TestExperimentTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, cold := get(t, ts.URL+"/api/v1/experiments/fig11b/trace")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, cold)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(cold))
	if err != nil {
		t.Fatalf("body is not valid JSONL trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}

	// Traced re-runs are deterministic, so the cached response must be
	// byte-identical to the cold render and to a direct expt.RenderTrace.
	status, cached := get(t, ts.URL+"/api/v1/experiments/fig11b/trace")
	if status != http.StatusOK {
		t.Fatalf("cached status %d", status)
	}
	if !bytes.Equal(cold, cached) {
		t.Error("cached trace differs from cold render")
	}
	direct, err := expt.RenderTrace("fig11b", trace.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, direct) {
		t.Error("served trace differs from direct expt.RenderTrace")
	}

	status, chrome := get(t, ts.URL+"/api/v1/experiments/fig11b/trace?format=chrome")
	if status != http.StatusOK {
		t.Fatalf("chrome status %d: %s", status, chrome)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome body is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no traceEvents")
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v1/experiments/fig2/trace", http.StatusUnprocessableEntity}, // analytic: no traced runner
		{"/api/v1/experiments/nope/trace", http.StatusNotFound},
		{"/api/v1/experiments/fig11b/trace?format=xml", http.StatusBadRequest},
	} {
		if status, body := get(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("GET %s = %d, want %d: %s", tc.path, status, tc.want, body)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate some traffic so route families are populated.
	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/healthz")
	}
	get(t, ts.URL+"/api/v1/experiments")

	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, family := range []string{
		"# TYPE hemserved_uptime_seconds gauge",
		"# TYPE hemserved_http_requests_total counter",
		"# TYPE hemserved_http_request_duration_ms histogram",
		"# TYPE hemserved_report_cache_hits_total counter",
		"# TYPE hemserved_gate_capacity gauge",
		"# TYPE hemserved_log_dropped_total counter",
		`hemserved_http_requests_total{route="healthz",class="2xx"} 3`,
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %q", family)
		}
	}

	// Histogram contract for the healthz route: bucket counts cumulative
	// and non-decreasing, +Inf equals _count, _sum present.
	var last uint64
	var infSeen, sumSeen bool
	var count uint64
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, `hemserved_http_request_duration_ms_bucket{route="healthz"`):
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Errorf("bucket counts not cumulative at %q", line)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				infSeen = true
			}
		case strings.HasPrefix(line, `hemserved_http_request_duration_ms_sum{route="healthz"}`):
			sumSeen = true
		case strings.HasPrefix(line, `hemserved_http_request_duration_ms_count{route="healthz"}`):
			count, _ = strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if !infSeen || !sumSeen {
		t.Fatalf("healthz histogram incomplete: +Inf=%v sum=%v", infSeen, sumSeen)
	}
	if count != 3 || last != count {
		t.Errorf("+Inf bucket %d and _count %d should both be 3", last, count)
	}
}

// failWriter forces the access log down its error path.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestLogDroppedCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{AccessLog: failWriter{}})
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/healthz")

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	var doc struct {
		LogDropped uint64 `json:"log_dropped"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	// The /metrics request itself logs (and fails) after the snapshot, so
	// expect at least the two healthz drops.
	if doc.LogDropped < 2 {
		t.Errorf("log_dropped = %d, want >= 2", doc.LogDropped)
	}
}

// TestHistogramSubMicrosecondMean pins the sub-microsecond mean fix across
// the registry migration: observations under a microsecond must still
// contribute to the reported mean.
func TestHistogramSubMicrosecondMean(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 1000; i++ {
		m.record("r", 200, 800*time.Nanosecond)
	}
	snap := m.snapshot(nil)
	route, ok := snap["requests"].(map[string]any)["r"].(map[string]any)
	if !ok {
		t.Fatalf("route snapshot missing: %v", snap)
	}
	mean, ok := route["latency_ms"].(map[string]any)["mean_ms"].(float64)
	if !ok {
		t.Fatalf("mean_ms missing from snapshot %v", route)
	}
	want := 800e-6 // 800 ns in ms
	if mean < want*0.99 || mean > want*1.01 {
		t.Errorf("mean_ms = %g, want ~%g (sub-microsecond observations truncated?)", mean, want)
	}
}

// TestExperimentProfileEndpoint: the profile endpoint serves decodable,
// cacheable pprof bytes matching a direct render, and maps unprofiled or
// unknown experiments onto the shared status contract.
func TestExperimentProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, cold := get(t, ts.URL+"/api/v1/experiments/fig11b/profile")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, cold)
	}
	d, err := prof.ReadPprof(bytes.NewReader(cold))
	if err != nil {
		t.Fatalf("body is not a valid pprof profile: %v", err)
	}
	if len(d.Samples) == 0 {
		t.Fatal("profile has no samples")
	}

	status, cached := get(t, ts.URL+"/api/v1/experiments/fig11b/profile")
	if status != http.StatusOK {
		t.Fatalf("cached status %d", status)
	}
	if !bytes.Equal(cold, cached) {
		t.Error("cached profile differs from cold render")
	}
	direct, err := expt.RenderProfile("fig11b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, direct) {
		t.Error("served profile differs from direct expt.RenderProfile")
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v1/experiments/fig2/profile", http.StatusUnprocessableEntity}, // analytic: no step loop
		{"/api/v1/experiments/nope/profile", http.StatusNotFound},
	} {
		if status, body := get(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("GET %s = %d, want %d: %s", tc.path, status, tc.want, body)
		}
	}
}
