package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// tinyScenarioSpec renders in a few milliseconds: two kinetic nodes over a
// short horizon at a coarse step.
const tinyScenarioSpec = `{"seed":3,` +
	`"source":{"kind":"kinetic","rate_hz":8,"impulse":0.5,"decay_s":0.2},` +
	`"workload":{"job_cycles":5e6,"aux_w":5e-5},` +
	`"geometry":{"nodes":2,"horizon_s":0.05,"step_s":1e-4}}`

// TestScenariosInfo covers the schema listing.
func TestScenariosInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/api/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var info struct {
		Version          int      `json:"version"`
		SourceKinds      []string `json:"source_kinds"`
		ArrivalProcesses []string `json:"arrival_processes"`
		Bounds           struct {
			MaxNodes       int     `json:"max_nodes"`
			MaxTotalEvents float64 `json:"max_total_events"`
		} `json:"bounds"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if info.Version != 1 || len(info.SourceKinds) != 5 || len(info.ArrivalProcesses) != 4 {
		t.Errorf("unexpected info doc: %+v", info)
	}
	if info.Bounds.MaxNodes != maxScenarioNodes {
		t.Errorf("max_nodes = %d, want %d", info.Bounds.MaxNodes, maxScenarioNodes)
	}
	if info.Bounds.MaxTotalEvents != maxFleetSteps {
		t.Errorf("max_total_events = %g, want %g", info.Bounds.MaxTotalEvents, float64(maxFleetSteps))
	}
	for _, k := range info.SourceKinds {
		if k == "trace" {
			t.Error("info doc advertises the trace kind, which POST rejects")
		}
	}
}

// TestScenariosRun covers the happy path: JSON report with the canonical
// spec echoed back, byte-identical on a cache hit.
func TestScenariosRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/api/v1/scenarios"
	code, body := post(t, url, tinyScenarioSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var rep struct {
		Spec struct {
			Seed     int64 `json:"seed"`
			Geometry struct {
				Nodes int `json:"nodes"`
			} `json:"geometry"`
		} `json:"spec"`
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if rep.Spec.Seed != 3 || rep.Spec.Geometry.Nodes != 2 {
		t.Errorf("spec echoed as seed=%d nodes=%d", rep.Spec.Seed, rep.Spec.Geometry.Nodes)
	}
	if len(rep.Nodes) != 2 {
		t.Errorf("%d node results, want 2", len(rep.Nodes))
	}
	if _, again := post(t, url, tinyScenarioSpec); string(again) != string(body) {
		t.Error("cache hit returned different bytes")
	}
}

// TestScenariosRunRejects covers the request bounds, including the
// filesystem-probe refusal for kind=trace.
func TestScenariosRunRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/api/v1/scenarios"
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":      {`nope`, http.StatusBadRequest},
		"unknown field": {`{"bogus":1}`, http.StatusBadRequest},
		"bad kind":      {`{"source":{"kind":"fusion"}}`, http.StatusBadRequest},
		"node cap":      {`{"geometry":{"nodes":9999}}`, http.StatusBadRequest},
		"step budget":   {`{"geometry":{"nodes":256,"horizon_s":1000}}`, http.StatusBadRequest},
		// Within the step budget, but 5e11 impulses, and 5.1e9 arrival
		// times across the nodes: the spec's and the handler's event bounds.
		"impulse count": {`{"source":{"kind":"kinetic","rate_hz":1e12},"geometry":{"horizon_s":0.5,"step_s":1e-4}}`, http.StatusBadRequest},
		"event budget":  {`{"workload":{"arrivals":{"process":"poisson","rate_hz":1e6}},"geometry":{"nodes":256,"horizon_s":20,"step_s":1e-3}}`, http.StatusBadRequest},
		"trace kind":    {`{"source":{"kind":"trace","path":"/etc/passwd"}}`, http.StatusUnprocessableEntity},
	} {
		if code, body := post(t, url, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", name, code, tc.want, body)
		}
	}
}
