// Package serve is the HTTP serving layer of the reproduction: it exposes
// the experiment registry, the PV solver and the Sec. VI.A time-based MPPT
// planner as a JSON API (command hemserved). The design goal is the
// ROADMAP's serving north star — many concurrent clients, bounded resource
// use, deterministic responses:
//
//   - every simulation-heavy request passes a runner.Gate, so at most
//     Workers simulations run regardless of connection count;
//   - rendered experiment reports and CSV exports are deterministic, so
//     they live in an LRU keyed by experiment ID with singleflight
//     coalescing in front of the render (cache.go) — a cached response is
//     byte-identical to a cold one;
//   - PV solves run the solvers in internal/pv on every request, under
//     the gate;
//   - per-request deadlines, request logging and /metrics (counters,
//     latency histograms, cache hit rates, gate saturation) come from the
//     middleware in this file and metrics.go, with no external deps.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/runner"
)

// DefaultMPPTLevels are the irradiance levels the default tracking table
// is characterised at: the paper's Fig. 2 measurement conditions.
var DefaultMPPTLevels = []float64{
	pv.IndoorDim, 0.05, pv.IndoorBright, pv.QuarterSun, pv.HalfSun, pv.BrightSun, pv.FullSun,
}

// Config parameterises a Server. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrently executing simulations (not connections).
	// 0 selects GOMAXPROCS.
	Workers int

	// ReportCacheSize is the LRU capacity in rendered responses (an
	// experiment has one report entry and, if it has series, one CSV
	// entry). 0 selects 64, which holds the whole registry.
	ReportCacheSize int

	// RequestTimeout caps each request's total time, including queueing at
	// the gate. 0 selects 30 s.
	RequestTimeout time.Duration

	// AccessLog receives one JSON line per request; nil disables logging.
	AccessLog io.Writer

	// Chaos enables request-level fault injection via the X-Fault-Plan
	// header (chaos.go). Off by default; the header is ignored — never
	// parsed — when this is false, so the chaos surface cannot be reached
	// on a server that did not opt in.
	Chaos bool
}

// Server serves the experiment registry and the solver endpoints.
// Construct with New; a Server is safe for concurrent use.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	gate      *runner.Gate
	reports   *renderCache
	metrics   *serverMetrics
	log       *requestLog
	chaosInjs chaosTable

	// Default calibrated models and the pre-characterised MPPT plan table
	// (all immutable after construction, so shareable across requests).
	cell  *pv.Cell
	proc  *cpu.Processor
	table *mppt.Table
}

// New returns a Server over the default calibrated models.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ReportCacheSize < 1 {
		cfg.ReportCacheSize = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	mgr := core.NewManager(core.NewSystem(cell, proc), reg.NewSC())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		gate:    runner.NewGate(cfg.Workers),
		reports: newRenderCache(cfg.ReportCacheSize),
		metrics: newMetrics(),
		log:     &requestLog{w: cfg.AccessLog},
		cell:    cell,
		proc:    proc,
		table:   mgr.BuildTrackingTable(DefaultMPPTLevels),
	}
	s.registerServerFuncs()
	s.routes()
	return s
}

// routes wires every endpoint through the instrumentation middleware.
func (s *Server) routes() {
	handle := func(pattern, label string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(label, h))
	}
	handle("GET /api/v1/experiments", "experiments_list", s.handleExperimentsList)
	handle("GET /api/v1/experiments/{id}", "experiment_get", s.handleExperimentGet)
	handle("GET /api/v1/experiments/{id}/trace", "experiment_trace", s.handleExperimentTrace)
	handle("GET /api/v1/experiments/{id}/profile", "experiment_profile", s.handleExperimentProfile)
	handle("POST /api/v1/experiments/batch", "experiments_batch", s.handleExperimentsBatch)
	handle("GET /api/v1/fleet/{spec}", "fleet_get", s.handleFleet)
	handle("GET /api/v1/fleet/{spec}/live", "fleet_live", s.handleFleetLive)
	handle("GET /api/v1/scenarios", "scenarios_info", s.handleScenariosInfo)
	handle("POST /api/v1/scenarios", "scenarios_run", s.handleScenariosRun)
	handle("POST /api/v1/pv/solve", "pv_solve", s.handlePVSolve)
	handle("POST /api/v1/mppt/plan", "mppt_plan", s.handleMPPTPlan)
	handle("GET /metrics", "metrics", s.handleMetrics)
	handle("GET /metrics/prometheus", "metrics_prometheus", s.handleMetricsPrometheus)
	handle("GET /healthz", "healthz", s.handleHealthz)
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// instrument wraps a handler with the per-request deadline, in-flight
// gauge, latency/status accounting and the access log.
func (s *Server) instrument(label string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		r = r.WithContext(ctx)
		if cctx, ok := s.chaos(sw, r); ok {
			h(sw, r.WithContext(cctx))
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.record(label, sw.status, elapsed)
		s.log.log(r.Method, r.URL.Path, sw.status, sw.bytes, elapsed)
	})
}

// gated runs fn under the simulation gate, translating queue cancellation
// into 503 so a saturated server sheds load instead of stalling clients.
// It reports whether fn ran.
func (s *Server) gated(w http.ResponseWriter, r *http.Request, fn func() error) bool {
	err := s.gate.Do(r.Context(), fn)
	switch {
	case err == nil:
		return true
	case r.Context().Err() != nil:
		httpError(w, http.StatusServiceUnavailable, "server saturated: "+err.Error())
		return false
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
		return false
	}
}

// writeJSON renders v with a stable field order (encoding/json sorts map
// keys) and a trailing newline. It encodes before writing the status, so
// a value encoding/json rejects gets the 500 envelope, not a 200 with an
// empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// httpError emits the JSON error envelope every handler shares.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
