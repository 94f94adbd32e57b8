package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyFleetSpec returns a spec that renders in a few milliseconds: 2 nodes
// over 100 steps each, seeded so each spec is a distinct cache key.
func tinyFleetSpec(seed int) string {
	return fmt.Sprintf("n=2,seed=%d,horizon=0.002,epoch=1e-3,step=2e-5", seed)
}

// TestFleetEndpoint covers the happy path and the response contract: JSON
// body with the canonical spec echoed back, byte-identical on a cache hit.
func TestFleetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/api/v1/fleet/" + tinyFleetSpec(1)
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("fleet get: status %d, body %s", code, body)
	}
	var rep struct {
		Spec struct {
			N    int   `json:"n"`
			Seed int64 `json:"seed"`
		} `json:"spec"`
		Snapshots []json.RawMessage `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if rep.Spec.N != 2 || rep.Spec.Seed != 1 {
		t.Errorf("spec echoed as n=%d seed=%d", rep.Spec.N, rep.Spec.Seed)
	}
	if len(rep.Snapshots) == 0 {
		t.Error("no snapshots in fleet response")
	}
	if _, again := get(t, url); string(again) != string(body) {
		t.Error("cache hit returned different bytes")
	}
}

// TestFleetEndpointRejects covers the request bounds.
func TestFleetEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{
		"n=9999999",             // population cap
		"n=0",                   // invalid spec
		"bogus=1",               // unknown key
		"n=5000,horizon=100000", // step-budget cap
		// Epoch-count cap: almost no integration work (1 step) but ~5e10
		// scheduler rounds, each appending a snapshot, without the bound.
		"n=1,horizon=0.05,epoch=1e-12,step=0.05",
		"n=3,step=1,horizon=0.05", // a step longer than the horizon
	} {
		if code, _ := get(t, ts.URL+"/api/v1/fleet/"+bad); code != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", bad, code)
		}
	}
}

// TestFollowerOutlivesLeader: a request coalesced onto another's render
// does not inherit that request's cancellation. With the gate's one slot
// held, a fleet leader cancelled while it waits for the slot answers 503,
// and the live follower for the same spec takes the flight over and
// answers the report once the slot frees.
func TestFollowerOutlivesLeader(t *testing.T) {
	s := New(Config{Workers: 1})
	release := make(chan struct{})
	parked := make(chan struct{})
	go s.gate.Do(context.Background(), func() error {
		close(parked)
		<-release
		return nil
	})
	<-parked
	url := "/api/v1/fleet/" + tinyFleetSpec(5)
	serve := func(ctx context.Context, out chan<- *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
		out <- rec
	}
	until := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go serve(ctx, leader)
	until("the leader to queue at the gate", func() bool { return s.gate.Waited() == 1 })
	go serve(context.Background(), follower)
	until("the follower's cache miss", func() bool { return s.reports.misses.Load() == 2 })
	time.Sleep(20 * time.Millisecond) // the follower parks on the leader's flight
	cancel()
	if rec := <-leader; rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled leader: status %d, want 503; body %s", rec.Code, rec.Body)
	}
	close(release)
	rec := <-follower
	if rec.Code != http.StatusOK {
		t.Fatalf("live follower: status %d, want 200; body %s", rec.Code, rec.Body)
	}
	_, ts := newTestServer(t, Config{})
	if _, want := get(t, ts.URL+url); rec.Body.String() != string(want) {
		t.Error("the follower's report differs from a fresh server's")
	}
}

// TestCancelledFollowerReturns: a request coalesced onto another's render
// returns its own context's error as soon as that context ends. With the
// gate's one slot held, the leader queues for it; the follower parked on
// the leader's flight is cancelled and must return while the slot is
// still held, not when the leader's render ends.
func TestCancelledFollowerReturns(t *testing.T) {
	s := New(Config{Workers: 1})
	release := make(chan struct{})
	parked := make(chan struct{})
	go s.gate.Do(context.Background(), func() error {
		close(parked)
		<-release
		return nil
	})
	<-parked
	const key = "report:held"
	render := func() ([]byte, error) { return []byte("rendered"), nil }
	cached := func(ctx context.Context, out chan<- error) {
		_, err := s.cached(httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx), key, render)
		out <- err
	}
	leader, follower := make(chan error, 1), make(chan error, 1)
	go cached(context.Background(), leader)
	for deadline := time.Now().Add(10 * time.Second); s.gate.Waited() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the leader to queue at the gate")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cached(ctx, follower)
	for deadline := time.Now().Add(10 * time.Second); s.reports.misses.Load() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the follower's cache miss")
		}
	}
	time.Sleep(20 * time.Millisecond) // the follower parks on the leader's flight
	cancel()
	select {
	case err := <-follower:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the cancelled follower is still parked on the leader's flight")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Errorf("leader: %v", err)
	}
}

// TestStaleStoreBoundedUnderKeyPressure is the regression test for the
// unbounded last-known-good store: parameterised fleet specs give an
// unbounded key space, so the store must evict — deterministically, on
// the same capacity knob as the LRU — while the degraded path keeps
// serving Warning 110 for keys recent enough to survive.
func TestStaleStoreBoundedUnderKeyPressure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, ReportCacheSize: 1, RequestTimeout: 500 * time.Millisecond,
	})
	// Push far more distinct keys than the stale bound through the cache.
	const distinct = 3 * staleFactor
	for seed := 0; seed < distinct; seed++ {
		if code, body := get(t, ts.URL+"/api/v1/fleet/"+tinyFleetSpec(seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d, body %s", seed, code, body)
		}
	}
	if got, max := s.reports.staleLen(), staleFactor*1; got > max {
		t.Fatalf("stale store holds %d entries after %d distinct keys, want <= %d", got, distinct, max)
	}
	// The earliest keys must have been evicted from the stale store too.
	if _, ok := s.reports.getStale("fleet:" + tinyFleetSpec(0)); ok {
		t.Error("oldest stale entry survived eviction pressure")
	}

	// Degraded path after pressure: evict the newest key from the front
	// LRU (capacity 1), saturate the gate, and expect the stale copy.
	last := tinyFleetSpec(distinct - 1)
	if code, _ := get(t, ts.URL+"/api/v1/experiments/fig2"); code != http.StatusOK {
		t.Fatal("evicting render failed")
	}
	if _, ok := s.reports.lru.get("fleet:" + last); ok {
		t.Fatal("fleet entry still in front LRU; eviction setup broken")
	}
	release := make(chan struct{})
	parked := make(chan struct{})
	go s.gate.Do(context.Background(), func() error {
		close(parked)
		<-release
		return nil
	})
	<-parked
	defer close(release)

	resp, err := http.Get(ts.URL + "/api/v1/fleet/" + last)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated fleet request: status %d, want 200 (stale)", resp.StatusCode)
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "110") {
		t.Errorf("degraded fleet response missing Warning 110: %q", w)
	}
	if got := s.metrics.staleServed.Value(); got != 1 {
		t.Errorf("staleServed = %d, want 1", got)
	}
}

// TestFleetLiveSSE: the live endpoint streams one epoch event per barrier
// snapshot as text/event-stream, then a final report event whose JSON
// matches the plain report endpoint's run.
func TestFleetLiveSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := tinyFleetSpec(7)
	resp, err := http.Get(ts.URL + "/api/v1/fleet/" + spec + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live fleet: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	var epochs []json.RawMessage
	var report json.RawMessage
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := json.RawMessage(strings.TrimPrefix(line, "data: "))
			switch event {
			case "epoch":
				epochs = append(epochs, data)
			case "report":
				report = data
			case "error":
				t.Fatalf("stream reported error: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// horizon=0.002 at epoch=1e-3 gives exactly 2 barriers.
	if len(epochs) != 2 {
		t.Errorf("got %d epoch events, want 2", len(epochs))
	}
	if report == nil {
		t.Fatal("no final report event")
	}
	var rep struct {
		Snapshots []json.RawMessage `json:"snapshots"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("report event is not JSON: %v", err)
	}
	if len(rep.Snapshots) != len(epochs) {
		t.Errorf("report has %d snapshots, stream emitted %d", len(rep.Snapshots), len(epochs))
	}
	for i, snap := range rep.Snapshots {
		if string(snap) != string(epochs[i]) {
			t.Errorf("epoch %d: streamed %s, report holds %s", i, epochs[i], snap)
		}
	}

	// The bounds are shared with the report endpoint.
	if code, _ := get(t, ts.URL+"/api/v1/fleet/n=9999999/live"); code != http.StatusBadRequest {
		t.Errorf("oversized live spec: status %d, want 400", code)
	}
}

// TestFleetLiveCancellation: a client that disconnects mid-stream stops the
// run at the next epoch barrier instead of simulating to the horizon.
func TestFleetLiveCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/v1/fleet/n=64,seed=3,horizon=0.05,epoch=1e-3,step=2e-5/live", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one frame to prove the stream started, then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("stream never started: %v", err)
	}
	cancel()
	// The server sheds the run; the only observable contract here is that
	// reading now fails rather than delivering the whole horizon.
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("stream completed fully despite cancellation")
	}
}
