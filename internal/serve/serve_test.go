package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/mppt"
	"repro/internal/pv"
)

// newTestServer returns a Server and an httptest front end with a log sink.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/api/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Experiments []struct {
			ID        string `json:"id"`
			HasSeries bool   `json:"has_series"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experiments) != len(expt.Names()) {
		t.Fatalf("listed %d experiments, registry has %d", len(resp.Experiments), len(expt.Names()))
	}
	registry := expt.Registry()
	for _, e := range resp.Experiments {
		if e.HasSeries != registry[e.ID].Has(expt.SurfaceSeries) {
			t.Errorf("%s: has_series=%v disagrees with registry", e.ID, e.HasSeries)
		}
	}
}

// TestCachedReportByteIdentical extends the engine's j-parity determinism
// contract to the serving layer: for every registry experiment, the LRU-
// cached response must be byte-identical to both a cold HTTP render and a
// direct expt.Render.
func TestCachedReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full registry twice")
	}
	_, ts := newTestServer(t, Config{})
	for _, id := range expt.Names() {
		status, cold := get(t, ts.URL+"/api/v1/experiments/"+id)
		if status != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", id, status, cold)
		}
		status, cached := get(t, ts.URL+"/api/v1/experiments/"+id)
		if status != http.StatusOK {
			t.Fatalf("%s: cached status %d", id, status)
		}
		if !bytes.Equal(cold, cached) {
			t.Errorf("%s: cached response differs from cold render", id)
		}
		direct, err := expt.Render(id)
		if err != nil {
			t.Fatalf("%s: direct render: %v", id, err)
		}
		if !bytes.Equal(cached, direct) {
			t.Errorf("%s: served response differs from direct expt.Render", id)
		}
	}
}

func TestExperimentCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/api/v1/experiments/fig2?format=csv")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.HasPrefix(body, []byte("series,x,y\n")) {
		t.Error("csv header missing")
	}
	direct, err := expt.RenderCSV("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct) {
		t.Error("served CSV differs from direct RenderCSV")
	}
	// Summary-only experiment: 422, not a silent empty file.
	status, _ = get(t, ts.URL+"/api/v1/experiments/headline?format=csv")
	if status != http.StatusUnprocessableEntity {
		t.Errorf("headline csv status %d, want 422", status)
	}
	// Unknown format: 400.
	status, _ = get(t, ts.URL+"/api/v1/experiments/fig2?format=xml")
	if status != http.StatusBadRequest {
		t.Errorf("format=xml status %d, want 400", status)
	}
}

func TestUnknownExperiment404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/api/v1/experiments/fig99")
	if status != http.StatusNotFound {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte("unknown experiment")) {
		t.Errorf("error body %s", body)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	status, body := post(t, ts.URL+"/api/v1/experiments/batch", `{"ids":["fig3","headline"]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Results []struct {
			ID     string `json:"id"`
			Report string `json:"report"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].ID != "fig3" || resp.Results[1].ID != "headline" {
		t.Fatalf("results out of order: %+v", resp.Results)
	}
	direct, err := expt.Render("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Report != string(direct) {
		t.Error("batch fig3 report differs from direct render")
	}

	// A bad ID surfaces per-result and flips the status to 404.
	status, body = post(t, ts.URL+"/api/v1/experiments/batch", `{"ids":["fig3","fig99"]}`)
	if status != http.StatusNotFound {
		t.Fatalf("status %d: %s", status, body)
	}
	// Empty list and trailing data are client errors; trailing whitespace
	// is not.
	for body, want := range map[string]int{
		`{"ids":[]}`:              http.StatusBadRequest,
		`{"ids":["fig3"]} xx`:     http.StatusBadRequest,
		"{\"ids\":[\"fig3\"]} \n": http.StatusOK,
	} {
		if status, _ := post(t, ts.URL+"/api/v1/experiments/batch", body); status != want {
			t.Errorf("body %q: status %d, want %d", body, status, want)
		}
	}
}

func TestPVSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/api/v1/pv/solve", `{"irradiance":0.5,"points":8}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		VocV  float64 `json:"voc_v"`
		IscA  float64 `json:"isc_a"`
		MPPV  float64 `json:"mpp_v"`
		MPPW  float64 `json:"mpp_w"`
		Curve []struct{ V, I, P float64 }
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	cell := pv.NewCell()
	wantVoc := cell.OpenCircuitVoltage(0.5)
	wantV, wantP := cell.MPP(0.5)
	if math.Abs(resp.VocV-wantVoc) > 1e-12 || math.Abs(resp.MPPV-wantV) > 1e-12 || math.Abs(resp.MPPW-wantP) > 1e-15 {
		t.Errorf("solve mismatch: got Voc %g MPP (%g, %g), want Voc %g MPP (%g, %g)",
			resp.VocV, resp.MPPV, resp.MPPW, wantVoc, wantV, wantP)
	}
	if len(resp.Curve) != 8 {
		t.Errorf("curve has %d points, want 8", len(resp.Curve))
	}

	// Calibration overrides change the answer.
	status, body2 := post(t, ts.URL+"/api/v1/pv/solve", `{"irradiance":0.5,"photo_current_a":0.008}`)
	if status != http.StatusOK {
		t.Fatalf("override status %d: %s", status, body2)
	}
	var resp2 struct {
		MPPW float64 `json:"mpp_w"`
	}
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.MPPW >= resp.MPPW {
		t.Errorf("half photocurrent should harvest less: %g >= %g", resp2.MPPW, resp.MPPW)
	}

	for body, want := range pvSolveRejects {
		status, _ := post(t, ts.URL+"/api/v1/pv/solve", body)
		if status != want {
			t.Errorf("body %s: status %d, want %d", body, status, want)
		}
	}
}

// pvSolveRejects are PV solve bodies the server refuses, with the status
// each must get.
var pvSolveRejects = map[string]int{
	`{"irradiance":0}`:                    http.StatusBadRequest,
	`{"irradiance":-1}`:                   http.StatusBadRequest,
	`{"irradiance":0.5,"points":1}`:       http.StatusBadRequest,
	`{"irradiance":0.5,"points":-3}`:      http.StatusBadRequest,
	`{"irradiance":0.5,"points":1e9}`:     http.StatusBadRequest,
	`{"irradiance":0.5,"typo":true}`:      http.StatusBadRequest,
	`not json`:                            http.StatusBadRequest,
	`{"irradiance":0.5} trailing garbage`: http.StatusBadRequest,
	// Isc overflows to +Inf, which JSON cannot encode.
	`{"irradiance":1e308,"photo_current_a":1e308,"points":16}`: http.StatusUnprocessableEntity,
}

func TestMPPTPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/api/v1/mppt/plan", `{"pin_w":0.003}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		PinW        float64 `json:"pin_w"`
		Irradiance  float64 `json:"irradiance"`
		MPPVoltage  float64 `json:"mpp_v"`
		SupplyV     float64 `json:"supply_v"`
		FrequencyHz float64 `json:"frequency_hz"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := s.table.Lookup(0.003)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Irradiance != want.Irradiance || resp.MPPVoltage != want.MPPVoltage ||
		resp.SupplyV != want.Supply || resp.FrequencyHz != want.Frequency {
		t.Errorf("plan %+v disagrees with table row %+v", resp, want)
	}

	// Window form matches Eq. 7 exactly.
	status, body = post(t, ts.URL+"/api/v1/mppt/plan",
		`{"capacitance_f":100e-6,"v_high":1.0,"v_low":0.9,"elapsed_s":0.002,"draw_power_w":0.012}`)
	if status != http.StatusOK {
		t.Fatalf("window status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	wantPin, err := mppt.EstimateInputPower(100e-6, 1.0, 0.9, 0.002, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	if resp.PinW != wantPin {
		t.Errorf("pin %g, want %g", resp.PinW, wantPin)
	}

	for body, want := range map[string]int{
		`{}`:                              http.StatusBadRequest,
		`{"pin_w":-1}`:                    http.StatusBadRequest,
		`{"pin_w":0.01,"elapsed_s":0.01}`: http.StatusBadRequest, // both forms
		`{"v_high":0.9,"v_low":1.0,"elapsed_s":0.01,"capacitance_f":1e-4}`: http.StatusBadRequest, // inverted
		`{"pin_w":0.008}{"pin_w":-1}`:                                      http.StatusBadRequest, // a second document
	} {
		status, _ := post(t, ts.URL+"/api/v1/mppt/plan", body)
		if status != want {
			t.Errorf("body %s: status %d, want %d", body, status, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/api/v1/experiments/fig3")
	get(t, ts.URL+"/api/v1/experiments/fig3") // cache hit
	get(t, ts.URL+"/healthz")

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var m struct {
		RequestsTotal uint64 `json:"requests_total"`
		InFlight      int64  `json:"in_flight"`
		Requests      map[string]struct {
			Total     uint64            `json:"total"`
			ByStatus  map[string]uint64 `json:"by_status"`
			LatencyMS struct {
				Count   uint64            `json:"count"`
				Buckets map[string]uint64 `json:"buckets"`
			} `json:"latency_ms"`
		} `json:"requests"`
		ReportCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"report_cache"`
		Gate struct {
			Capacity int `json:"capacity"`
		} `json:"gate"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.RequestsTotal < 3 {
		t.Errorf("requests_total %d, want >= 3", m.RequestsTotal)
	}
	eg := m.Requests["experiment_get"]
	if eg.Total != 2 || eg.ByStatus["2xx"] != 2 || eg.LatencyMS.Count != 2 {
		t.Errorf("experiment_get stats %+v", eg)
	}
	if m.ReportCache.Hits < 1 || m.ReportCache.Misses < 1 || m.ReportCache.Size < 1 {
		t.Errorf("report cache stats %+v", m.ReportCache)
	}
	if m.Gate.Capacity < 1 {
		t.Errorf("gate capacity %d", m.Gate.Capacity)
	}
	if m.InFlight < 1 {
		t.Errorf("in_flight %d, want >= 1 (the /metrics request itself)", m.InFlight)
	}
}

func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/api/v1/experiments/fig99")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), buf.String())
	}
	var entry struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		Bytes  int64   `json:"bytes"`
		MS     float64 `json:"ms"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry.Method != "GET" || entry.Path != "/api/v1/experiments/fig99" || entry.Status != 404 || entry.Bytes == 0 {
		t.Errorf("log entry %+v", entry)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFlightGroupCoalesces proves the singleflight primitive: followers
// arriving while the leader renders share one execution and its exact
// bytes.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var calls int32
	var wg sync.WaitGroup
	results := make([][]byte, 5)
	run := func(i int) {
		defer wg.Done()
		v, _, err := g.do(t.Context(), "key", func() ([]byte, error) {
			calls++
			close(leaderIn)
			<-release
			return []byte("rendered"), nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i] = v
	}
	wg.Add(1)
	go run(0)
	<-leaderIn // leader is inside fn
	for i := 1; i < 5; i++ {
		wg.Add(1)
		go run(i)
	}
	// Give the followers a moment to park on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("render ran %d times, want 1", calls)
	}
	for i, r := range results {
		if string(r) != "rendered" {
			t.Errorf("caller %d got %q", i, r)
		}
	}
}

// TestRenderCacheErrorNotCached: a failing render must not poison the key.
func TestRenderCacheErrorNotCached(t *testing.T) {
	c := newRenderCache(4)
	boom := errors.New("boom")
	fail := true
	render := func() ([]byte, error) {
		if fail {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, err := c.get(t.Context(), "k", render); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	fail = false
	b, err := c.get(t.Context(), "k", render)
	if err != nil || string(b) != "ok" {
		t.Fatalf("recovery got (%q, %v)", b, err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.get("a") // refresh a; b is now LRU
	c.put("c", []byte("3"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

// TestConcurrentMixedTraffic hammers every endpoint at once; under -race
// this is the serving stack's thread-safety proof.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	urls := []struct{ method, url, body string }{
		{"GET", "/api/v1/experiments", ""},
		{"GET", "/api/v1/experiments/fig3", ""},
		{"GET", "/api/v1/experiments/fig2?format=csv", ""},
		{"POST", "/api/v1/pv/solve", `{"irradiance":0.5,"points":16}`},
		{"POST", "/api/v1/mppt/plan", `{"pin_w":0.005}`},
		{"GET", "/metrics", ""},
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, u := range urls {
					var resp *http.Response
					var err error
					if u.method == "GET" {
						resp, err = http.Get(ts.URL + u.url)
					} else {
						resp, err = http.Post(ts.URL+u.url, "application/json", strings.NewReader(u.body))
					}
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s: status %d", u.method, u.url, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRequestTimeout: a request that cannot get a gate slot within its
// deadline is shed with 503 instead of hanging.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	// Occupy the only slot.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.gate.Do(t.Context(), func() error {
		close(started)
		<-block
		return nil
	})
	<-started
	defer close(block)

	req := httptest.NewRequest("POST", "/api/v1/pv/solve", strings.NewReader(`{"irradiance":0.5}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", rec.Code, rec.Body)
	}
}

func ExampleServer() {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Print(string(body))
	// Output: {"status":"ok"}
}
