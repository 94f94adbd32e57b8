package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/expt"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Request classes of the serve_mixed traffic.
const (
	reqExperiment = iota // cached registry report
	reqPV                // PV solve, a solver-cache hit
	reqFleet             // cold 64-node fleet, fresh seed
	reqScenario          // cold 16-node scenario, fresh seed
)

// routeNames are the server's route labels per class.
var routeNames = [...]string{"experiment_get", "pv_solve", "fleet_get", "scenarios_run"}

// pvLevels are the fixed irradiances of the PV solves.
var pvLevels = [...]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// clients is the closed-loop client count: each sends its next request
// only after the previous one answers.
const clients = 2

// request is one HTTP call of the mix.
type request struct {
	class  int
	method string
	path   string
	body   []byte
	id     string // experiment ID (reqExperiment)
	seed   int64  // the cold key's seed (reqFleet, reqScenario)
}

// coldFleetSpec is the fleet a cold fleet request orders.
func coldFleetSpec(seed int64) (fleet.Spec, error) {
	return fleet.ParseSpec(fmt.Sprintf("n=64,seed=%d,horizon=0.02", seed))
}

// coldScenarioSpec is the scenario a cold scenario request posts.
func coldScenarioSpec(seed int64) (scenario.Spec, error) { return scenarioSpec(seed, 16) }

// coldSeed gives cold request k of pass p a seed no other request of the
// run, or of a run with another benchmark seed, shares.
func coldSeed(seed int64, pass, n, k int) int64 {
	return seed*1_000_000 + int64(pass*n+k)
}

// requestMix is pass p of the seeded traffic: n requests, 75% registry
// reports, 10% PV solves, 10% cold fleets and the rest cold scenarios, in
// a seeded order.
func requestMix(seed int64, pass, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	ids := expt.Names()
	nExp, nPV, nFleet := n*75/100, n*10/100, n*10/100
	reqs := make([]request, 0, n)
	for k := 0; k < n; k++ {
		switch {
		case k < nExp:
			id := ids[rng.Intn(len(ids))]
			reqs = append(reqs, request{class: reqExperiment, method: "GET", path: "/api/v1/experiments/" + id, id: id})
		case k < nExp+nPV:
			body := fmt.Sprintf(`{"irradiance":%g,"points":16}`, pvLevels[rng.Intn(len(pvLevels))])
			reqs = append(reqs, request{class: reqPV, method: "POST", path: "/api/v1/pv/solve", body: []byte(body)})
		case k < nExp+nPV+nFleet:
			s := coldSeed(seed, pass, n, k)
			spec, err := coldFleetSpec(s)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{class: reqFleet, method: "GET", path: "/api/v1/fleet/" + spec.String(), seed: s})
		default:
			s := coldSeed(seed, pass, n, k)
			spec, err := coldScenarioSpec(s)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{class: reqScenario, method: "POST", path: "/api/v1/scenarios", body: []byte(spec.String()), seed: s})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// primeRequests are the hot set: every registry report and every PV level.
func primeRequests() []request {
	var reqs []request
	for _, id := range expt.Names() {
		reqs = append(reqs, request{class: reqExperiment, method: "GET", path: "/api/v1/experiments/" + id, id: id})
	}
	for _, l := range pvLevels {
		reqs = append(reqs, request{class: reqPV, method: "POST", path: "/api/v1/pv/solve", body: []byte(fmt.Sprintf(`{"irradiance":%g,"points":16}`, l))})
	}
	return reqs
}

// sample is one answered request.
type sample struct {
	class int
	ms    float64
	err   error // transport error, non-200 or a wrong body
}

// loadDriver sends requests to one base URL and checks every answer.
type loadDriver struct {
	base    string
	client  *http.Client
	goldens map[string][]byte
}

func newLoadDriver(base string, goldens map[string][]byte) *loadDriver {
	return &loadDriver{
		base:    base,
		client:  &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		goldens: goldens,
	}
}

// send issues one request and verifies the response.
func (d *loadDriver) send(r request) sample {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, d.base+r.path, body)
	if err != nil {
		return sample{class: r.class, err: err}
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return sample{class: r.class, err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{class: r.class, ms: ms(time.Since(start))}
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(b))
	default:
		s.err = d.verify(r, b)
	}
	return s
}

// verify checks a 200 body: reports against the goldens, the rest for the
// spec they echo.
func (d *loadDriver) verify(r request, b []byte) error {
	switch r.class {
	case reqExperiment:
		if !bytes.Equal(b, d.goldens[r.id]) {
			return fmt.Errorf("report %s differs from its golden", r.id)
		}
	case reqPV:
		var v struct {
			MPP float64 `json:"mpp_w"`
		}
		if err := json.Unmarshal(b, &v); err != nil || !(v.MPP > 0) {
			return fmt.Errorf("pv solve body %.80q", b)
		}
	case reqFleet:
		var rep fleet.Report
		if err := json.Unmarshal(b, &rep); err != nil || rep.Spec.Seed != r.seed || rep.Spec.N != 64 ||
			rep.Completed+rep.Unfinished != 64 {
			return fmt.Errorf("fleet body for seed %d: %.80q", r.seed, b)
		}
	case reqScenario:
		var rep scenario.Report
		if err := json.Unmarshal(b, &rep); err != nil || rep.Spec.Seed != r.seed || len(rep.Nodes) != 16 {
			return fmt.Errorf("scenario body for seed %d: %.80q", r.seed, b)
		}
	}
	return nil
}

// pass sends reqs from the closed-loop clients and returns the samples
// and the wall time until the last answer.
func (d *loadDriver) pass(reqs []request) ([]sample, float64) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = d.send(reqs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// serverProc is a running hemserved.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed once stdout is drained
}

// startServer execs hemserved on an ephemeral port and waits for /healthz.
func (rc *runCtx) startServer() (*serverProc, error) {
	s := &serverProc{done: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(rc.bin, "hemserved"), "-addr", "127.0.0.1:0", "-quiet")
	s.cmd.Dir = rc.work
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- url:
				default: // only the first address matters
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("hemserved did not report its address: %s", s.stderr.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hemserved /healthz never answered 200: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the server down gracefully and waits for it.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { s.cmd.Process.Kill() })
	<-s.done
	err := s.cmd.Wait()
	timer.Stop()
	if err != nil {
		return fmt.Errorf("hemserved exit: %v: %s", err, s.stderr.String())
	}
	return nil
}

// cpuSeconds reads the server's user+system CPU so far from /proc.
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:])) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const userHZ = 100 // clock ticks per second on Linux
	return (utime + stime) / userHZ, nil
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Requests map[string]struct {
		Latency struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean_ms"`
		} `json:"latency_ms"`
	} `json:"requests"`
	ReportCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"report_cache"`
	PVCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"pv_cache"`
	Gate struct {
		Waited uint64 `json:"waited"`
	} `json:"gate"`
	Resilience struct {
		StaleServed uint64 `json:"stale_served"`
	} `json:"resilience"`
}

func (d *loadDriver) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// serveRun is one measured serve_mixed run.
type serveRun struct {
	samples    []sample
	passWalls  []float64
	scale      []float64 // per pass, to the reference speed
	cpu        float64   // server CPU over the measured passes (s)
	before     serverMetrics
	after      serverMetrics
	peakRSSMiB float64
}

// record checks a batch of samples.
func (rc *runCtx) record(samples []sample) {
	for _, s := range samples {
		rc.checkErr(s.err, routeNames[s.class])
	}
}

// bootServer starts hemserved and primes the hot set, rc.sz.setups times
// in a row; every boot but the last is shut down again. The median boot,
// exec to primed, is setup_s.
func (rc *runCtx) bootServer(g map[string][]byte) (*serverProc, *loadDriver, error) {
	var srv *serverProc
	var drv *loadDriver
	err := rc.medianSetup(rc.sz.setups, func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if srv, err = rc.startServer(); err != nil {
			return err
		}
		drv = newLoadDriver(srv.base, g)
		samples, _ := drv.pass(primeRequests())
		rc.record(samples)
		return nil
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, nil, err
	}
	return srv, drv, nil
}

// measureServe boots the server, runs passes of the seeded mix within the
// budget, and stops the server.
func (rc *runCtx) measureServe() (*serveRun, error) {
	g, err := goldens(rc.root)
	if err != nil {
		return nil, err
	}
	srv, drv, err := rc.bootServer(g)
	if err != nil {
		return nil, err
	}
	run := &serveRun{}
	measure := func() error {
		if run.before, err = drv.metrics(); err != nil {
			return err
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		pass := 0
		run.passWalls, run.scale, err = rc.repeat(func() (float64, error) {
			reqs, err := requestMix(rc.seed, pass, rc.sz.passRequests)
			if err != nil {
				return 0, err
			}
			pass++
			samples, wall := drv.pass(reqs)
			rc.record(samples)
			run.samples = append(run.samples, samples...)
			return wall, nil
		})
		if err != nil {
			return err
		}
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		run.cpu = cpu1 - cpu0
		if run.after, err = drv.metrics(); err != nil {
			return err
		}
		var ok bool
		if run.peakRSSMiB, ok = peakRSSMiB(srv.cmd.Process.Pid, "hemserved"); !ok {
			return errors.New("cannot read the server's peak RSS")
		}
		return nil
	}
	if err := errors.Join(measure(), srv.stop()); err != nil {
		return nil, err
	}
	return run, nil
}

// classLatencies returns the latencies of the answered samples in classes.
func classLatencies(samples []sample, classes ...int) []float64 {
	var out []float64
	for _, s := range samples {
		for _, c := range classes {
			if s.class == c && s.err == nil {
				out = append(out, s.ms)
			}
		}
	}
	return out
}

func serveE2E(rc *runCtx) error {
	run, err := rc.measureServe()
	if err != nil {
		return err
	}
	rc.infof("%d passes of %d requests: pass wall %.3f s, scale %.3f", len(run.passWalls), rc.sz.passRequests, run.passWalls, run.scale)
	for _, c := range []struct {
		name string
		ms   []float64
	}{
		{"cached", classLatencies(run.samples, reqExperiment, reqPV)},
		{"cold", classLatencies(run.samples, reqFleet, reqScenario)},
	} {
		if p, v, ok := tailPercentile(c.ms); ok {
			rc.infof("%s: %d samples, p50 %.3f ms, p%g %.3f ms", c.name, len(c.ms), median(c.ms), p, v)
		}
	}
	rc.set("wall_s", median(normalized(run.passWalls, run.scale)))
	rc.set("cpu_s", run.cpu/float64(len(run.passWalls))*median(run.scale))
	rc.set("peak_rss_mb", run.peakRSSMiB)
	return nil
}

func serveTraced(rc *runCtx) error {
	first := coldSeed(rc.seed, 0, rc.sz.passRequests, 0)
	fspec, err := coldFleetSpec(first)
	if err != nil {
		return err
	}
	if err := rc.setReplica(fleetReplica("serve-fleet", fspec, fspec.N)); err != nil {
		return err
	}
	// The cold requests' engines, single-worker as the server runs them.
	if _, _, _, err := rc.tracedFleet(fspec, 1, false); err != nil {
		return err
	}
	sspec, err := coldScenarioSpec(first)
	if err != nil {
		return err
	}
	if _, _, err := rc.tracedScenario(sspec, 1); err != nil {
		return err
	}

	run, err := rc.measureServe()
	if err != nil {
		return err
	}
	cached := classLatencies(run.samples, reqExperiment, reqPV)
	cold := classLatencies(run.samples, reqFleet, reqScenario)
	busy := 0.0 // the passes' wall time, without the reference runs between them
	for _, w := range run.passWalls {
		busy += w
	}
	rc.set("serve.rps", float64(len(run.samples))/busy)
	rc.set("serve.cached_p50_ms", median(cached))
	rc.set("serve.cached_p99_ms", percentile(cached, 99))
	rc.set("serve.cold_p50_ms", median(cold))
	rc.set("serve.cold_p90_ms", percentile(cold, 90))
	rc.infof("%d cached and %d cold samples", len(cached), len(cold))
	for class, route := range routeNames {
		rc.set("serve."+route+".p50_ms", median(classLatencies(run.samples, class)))
	}
	rc.set("runner.parallelism", run.cpu/busy)

	b, a := run.before, run.after
	if n := a.Requests["experiment_get"].Latency.Count - b.Requests["experiment_get"].Latency.Count; n > 0 {
		sum := func(m serverMetrics) float64 {
			l := m.Requests["experiment_get"].Latency
			return l.Mean * float64(l.Count)
		}
		server := (sum(a) - sum(b)) / float64(n)
		client := classLatencies(run.samples, reqExperiment)
		mean := 0.0
		for _, v := range client {
			mean += v / float64(len(client))
		}
		rc.set("serve.client_minus_server_ms", mean-server)
	}
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	rc.set("serve.report_cache_hit_ratio", ratio(a.ReportCache.Hits-b.ReportCache.Hits, a.ReportCache.Misses-b.ReportCache.Misses))
	rc.set("serve.report_cache_coalesced", float64(a.ReportCache.Coalesced-b.ReportCache.Coalesced))
	rc.set("pv.cache_hit_ratio", ratio(a.PVCache.Hits-b.PVCache.Hits, a.PVCache.Misses-b.PVCache.Misses))
	rc.set("runner.gate_waited", float64(a.Gate.Waited-b.Gate.Waited))
	rc.set("serve.stale_served", float64(a.Resilience.StaleServed-b.Resilience.StaleServed))

	// Traced pass: the same traffic against the server in process.
	g, err := goldens(rc.root)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	drv := newLoadDriver(ts.URL, g)
	samples, _ := drv.pass(primeRequests())
	rc.record(samples)
	var walls []float64
	for pass := 0; pass < 3; pass++ {
		reqs, err := requestMix(rc.seed, pass, rc.sz.passRequests)
		if err != nil {
			return err
		}
		samples, wall := drv.pass(reqs)
		rc.record(samples)
		walls = append(walls, wall)
	}
	rc.set("trace.overhead_ratio", median(walls)/median(run.passWalls))
	return nil
}
