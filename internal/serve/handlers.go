package serve

// Endpoint implementations. Conventions: request and response bodies are
// JSON except experiment reports (text/plain) and CSV exports (text/csv);
// errors use the {"error": "..."} envelope; unknown experiment IDs map to
// 404, structurally invalid requests to 400, and summary-only experiments
// asked for CSV to 422.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/runner"
	"repro/internal/trace"
)

// maxRequestBody bounds POST bodies; the largest legitimate request is a
// batch of every experiment ID, far under a kilobyte.
const maxRequestBody = 1 << 16

// maxCurvePoints bounds the I-V table size a single solve may request.
const maxCurvePoints = 4096

// experimentInfo is one row of the registry listing.
type experimentInfo struct {
	ID        string `json:"id"`
	HasSeries bool   `json:"has_series"`
}

// handleExperimentsList reports the registry in stable ID order.
func (s *Server) handleExperimentsList(w http.ResponseWriter, r *http.Request) {
	registry := expt.Registry()
	infos := make([]experimentInfo, 0, len(registry))
	for _, id := range expt.Names() {
		infos = append(infos, experimentInfo{ID: id, HasSeries: registry[id].Has(expt.SurfaceSeries)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": infos})
}

// renderKey is the cache/stale-store key for one experiment render.
func renderKey(id, format string) string {
	if format == "csv" {
		return "csv:" + id
	}
	return "report:" + id
}

// cached returns the response body cached under key, running a cold
// render inside a simulation-gate slot. Every cached endpoint renders a
// deterministic function of its key, so a cached body is byte-identical
// to a cold one; an injected gate hold stretches the slot occupancy.
func (s *Server) cached(r *http.Request, key string, render func() ([]byte, error)) ([]byte, error) {
	return s.reports.get(r.Context(), key, func() (body []byte, err error) {
		gateErr := s.gate.DoHeld(r.Context(), gateHold(r.Context()), func() error {
			body, err = render()
			return nil
		})
		if gateErr != nil {
			return nil, gateErr
		}
		return body, err
	})
}

// respond writes a cached render's outcome with its content type. When
// err means the gate was too saturated to render in time and a
// last-known-good copy of key exists, it serves that copy with a Warning
// header (RFC 7234's 110, "response is stale"); any other error maps onto
// the API's status contract.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, key, contentType string, body []byte, err error) {
	if err != nil {
		// Only saturation (the request deadline passed) may degrade to the
		// stale copy; a real failure is never masked.
		ok := false
		if r.Context().Err() != nil {
			body, ok = s.reports.getStale(key)
		}
		if !ok {
			writeExperimentError(w, r, err)
			return
		}
		s.metrics.staleServed.Add(1)
		w.Header().Set("Warning", `110 hemserved "stale response: server saturated"`)
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// renderExperiment produces the cached response body for one experiment in
// the requested format. The cache key is just the ID (per format):
// registry outputs are deterministic. Under a chaos plan, an injected
// render fault fails the attempt before the cache is consulted, so
// retries exercise the full path.
func (s *Server) renderExperiment(r *http.Request, id, format string) ([]byte, error) {
	render := expt.Render
	if format == "csv" {
		render = expt.RenderCSV
	}
	if err := renderFault(r.Context()); err != nil {
		return nil, err
	}
	return s.cached(r, renderKey(id, format), func() ([]byte, error) { return render(id) })
}

// renderExperimentRetry is renderExperiment with a bounded
// exponential-backoff retry loop around transient, injected failures
// (fault.ErrInjected). Real render errors — unknown IDs, summary-only
// CSVs — are permanent and return immediately; retrying them would only
// triple the latency of every 404.
func (s *Server) renderExperimentRetry(r *http.Request, id, format string) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		body, err := s.renderExperiment(r, id, format)
		if err == nil || !errors.Is(err, fault.ErrInjected) || attempt >= renderRetries {
			return body, err
		}
		s.metrics.renderRetries.Add(1)
		if !sleepCtx(r.Context(), retryBackoff(id, attempt)) {
			return nil, r.Context().Err()
		}
	}
}

// handleExperimentGet serves one experiment report (text) or its series
// (?format=csv).
func (s *Server) handleExperimentGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format != "" && format != "csv" && format != "text" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want text or csv)", format))
		return
	}
	if format == "text" {
		format = ""
	}
	contentType := "text/plain; charset=utf-8"
	if format == "csv" {
		contentType = "text/csv"
	}
	body, err := s.renderExperiment(r, id, format)
	s.respond(w, r, renderKey(id, format), contentType, body, err)
}

// handleExperimentTrace serves one experiment's simulation events, JSONL
// by default or as a Chrome trace (?format=chrome). Traced runs are
// deterministic, so responses cache like reports do; experiments that
// declare no trace surface map to 422 (ErrNoTrace), mirroring the CSV
// contract.
func (s *Server) handleExperimentTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	traceFormat, contentType := trace.FormatJSONL, "application/x-ndjson"
	switch format {
	case "", "jsonl":
	case "chrome":
		traceFormat, contentType = trace.FormatChrome, "application/json"
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want jsonl or chrome)", format))
		return
	}
	key := "trace:" + traceFormat + ":" + id
	body, err := s.cached(r, key, func() ([]byte, error) { return expt.RenderTrace(id, traceFormat) })
	s.respond(w, r, key, contentType, body, err)
}

// handleExperimentProfile serves one experiment's energy-flow profile as
// gzipped pprof protobuf bytes (`go tool pprof` reads the response body
// directly). Profiled runs are deterministic, so responses cache like
// reports and traces; experiments that declare no profile surface map to
// 422 (ErrNoProfile), mirroring the trace contract.
func (s *Server) handleExperimentProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	key := "profile:" + id
	body, err := s.cached(r, key, func() ([]byte, error) { return expt.RenderProfile(id) })
	s.respond(w, r, key, "application/octet-stream", body, err)
}

// Fleet request bounds: a spec is attacker-controlled sizing, so the
// population, the total integration work and the scheduler's epoch count
// are all capped. The epoch cap matters independently of the step cap: a
// tiny epoch with a coarse step (horizon=0.05, epoch=1e-12, step=0.05)
// orders almost no integration work yet would spin the scheduler through
// ~5e10 barrier rounds, each appending a snapshot — unbounded CPU and
// memory from one GET without it.
const (
	maxFleetNodes  = 5000
	maxFleetSteps  = 2e7 // n * horizon/step, total steps one request may order
	maxFleetEpochs = 1e4 // horizon/epoch, scheduler rounds (and snapshots)
)

// parseFleetSpec parses and bounds the {spec} path value, writing the 400
// itself on failure. Shared by the report and live (SSE) fleet endpoints so
// the two cannot drift on what sizing they accept.
func parseFleetSpec(w http.ResponseWriter, r *http.Request) (fleet.Spec, bool) {
	spec, err := fleet.ParseSpec(r.PathValue("spec"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return spec, false
	}
	if spec.N > maxFleetNodes {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("fleet too large: n=%d (max %d)", spec.N, maxFleetNodes))
		return spec, false
	}
	if work := float64(spec.N) * (spec.Horizon / spec.Step); work > maxFleetSteps {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("fleet spec orders %.3g integration steps (max %.3g); shrink n or horizon, or coarsen step", work, float64(maxFleetSteps)))
		return spec, false
	}
	if epochs := spec.Horizon / spec.Epoch; epochs > maxFleetEpochs {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("fleet spec orders %.3g scheduler epochs (max %.3g); coarsen epoch or shrink horizon", epochs, float64(maxFleetEpochs)))
		return spec, false
	}
	return spec, true
}

// handleFleet runs a shared-clock node fleet (internal/fleet) and serves
// its report as JSON. Fleet reports are pure functions of the canonical
// spec, so responses cache under "fleet:<spec>" exactly like experiment
// renders — including the singleflight, the gate, and the stale degraded
// path. The engine runs single-worker inside the gate slot: one request,
// one simulation thread, and byte-identical bodies by construction.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	spec, ok := parseFleetSpec(w, r)
	if !ok {
		return
	}
	if err := renderFault(r.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	key := "fleet:" + spec.String()
	body, err := s.cached(r, key, func() ([]byte, error) {
		cfg := spec.Config()
		cfg.Workers = 1
		// The request context cancels the run at the next epoch barrier,
		// so an abandoned request frees its gate slot instead of
		// simulating to the horizon.
		cfg.Ctx = r.Context()
		rep, err := fleet.Run(cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	})
	s.respond(w, r, key, "application/json", body, err)
}

// batchRequest asks for several experiment reports in one round trip.
type batchRequest struct {
	IDs []string `json:"ids"`
}

// batchResult is one experiment's outcome within a batch response.
type batchResult struct {
	ID     string `json:"id"`
	Report string `json:"report,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleExperimentsBatch renders several experiments concurrently on the
// runner pool, long poles first (expt.Priority), each render passing the
// simulation gate and the report cache, and returns them in request order.
func (s *Server) handleExperimentsBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, "ids must be a non-empty list (use \"all\" for the full registry)")
		return
	}
	ids := req.IDs
	if len(ids) == 1 && ids[0] == "all" {
		ids = expt.Names()
	}
	jobs := make([]runner.Job, len(ids))
	for i, id := range ids {
		jobs[i] = runner.Job{ID: id, Priority: expt.Priority(id), Run: func(jw io.Writer) error {
			body, err := s.renderExperimentRetry(r, id, "")
			if err != nil {
				return err
			}
			_, werr := jw.Write(body)
			return werr
		}}
	}
	results := runner.Run(jobs, s.gate.Cap())
	out := make([]batchResult, len(results))
	status := http.StatusOK
	for i, res := range results {
		out[i] = batchResult{ID: res.ID, Report: string(res.Output)}
		if res.Err != nil {
			out[i] = batchResult{ID: res.ID, Error: res.Err.Error()}
			if errors.Is(res.Err, expt.ErrUnknown) {
				status = http.StatusNotFound
			}
		}
	}
	writeJSON(w, status, map[string]any{"results": out})
}

// pvSolveRequest parameterises one PV characterisation. Zero-valued
// calibration fields keep the paper's IXYS defaults.
type pvSolveRequest struct {
	Irradiance float64 `json:"irradiance"`
	Points     int     `json:"points,omitempty"` // I-V samples; 0 omits the curve

	PhotoCurrentA      float64 `json:"photo_current_a,omitempty"`
	IdealityFactor     float64 `json:"ideality_factor,omitempty"`
	SeriesCells        int     `json:"series_cells,omitempty"`
	SeriesResistanceO  float64 `json:"series_resistance_ohm,omitempty"`
	ShuntResistanceO   float64 `json:"shunt_resistance_ohm,omitempty"`
	SaturationCurrentA float64 `json:"saturation_current_a,omitempty"`
}

// pvPoint mirrors pv.Point with JSON tags.
type pvPoint struct {
	V float64 `json:"v"`
	I float64 `json:"i"`
	P float64 `json:"p"`
}

type pvSolveResponse struct {
	Irradiance float64   `json:"irradiance"`
	VocV       float64   `json:"voc_v"`
	IscA       float64   `json:"isc_a"`
	MPPVoltage float64   `json:"mpp_v"`
	MPPPower   float64   `json:"mpp_w"`
	Curve      []pvPoint `json:"curve,omitempty"`
}

// cellFor builds the request's cell; a request that overrides no
// calibration field gets the server's default cell.
func (s *Server) cellFor(req pvSolveRequest) *pv.Cell {
	var opts []pv.Option
	if req.PhotoCurrentA > 0 {
		opts = append(opts, pv.WithPhotoCurrent(req.PhotoCurrentA))
	}
	if req.IdealityFactor > 0 {
		opts = append(opts, pv.WithIdealityFactor(req.IdealityFactor))
	}
	if req.SeriesCells > 0 {
		opts = append(opts, pv.WithSeriesCells(req.SeriesCells))
	}
	if req.SeriesResistanceO > 0 {
		opts = append(opts, pv.WithSeriesResistance(req.SeriesResistanceO))
	}
	if req.ShuntResistanceO > 0 {
		opts = append(opts, pv.WithShuntResistance(req.ShuntResistanceO))
	}
	if req.SaturationCurrentA > 0 {
		opts = append(opts, pv.WithSaturationCurrent(req.SaturationCurrentA))
	}
	if len(opts) == 0 {
		return s.cell
	}
	return pv.NewCell(opts...)
}

// handlePVSolve characterises a cell at one irradiance: Voc, Isc, MPP and
// optionally the sampled I-V curve. A calibration whose solution leaves
// the float64 range (an overflowing photocurrent, say) gets 422: JSON has
// no encoding for Inf or NaN.
func (s *Server) handlePVSolve(w http.ResponseWriter, r *http.Request) {
	var req pvSolveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Irradiance <= 0 {
		httpError(w, http.StatusBadRequest, "irradiance must be positive")
		return
	}
	if req.Points < 0 || req.Points > maxCurvePoints {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("points must be in [0, %d]", maxCurvePoints))
		return
	}
	if req.Points == 1 {
		httpError(w, http.StatusBadRequest, "points must be 0 or at least 2")
		return
	}
	cell := s.cellFor(req)
	var resp pvSolveResponse
	if !s.gated(w, r, func() error {
		resp.Irradiance = req.Irradiance
		resp.VocV = cell.OpenCircuitVoltage(req.Irradiance)
		resp.IscA = cell.ShortCircuitCurrent(req.Irradiance)
		resp.MPPVoltage, resp.MPPPower = cell.MPP(req.Irradiance)
		for _, p := range cell.Curve(req.Irradiance, req.Points) {
			resp.Curve = append(resp.Curve, pvPoint{V: p.Voltage, I: p.Current, P: p.Power})
		}
		return nil
	}) {
		return
	}
	ok := finite(resp.VocV, resp.IscA, resp.MPPVoltage, resp.MPPPower)
	for _, p := range resp.Curve {
		ok = ok && finite(p.V, p.I, p.P)
	}
	if !ok {
		httpError(w, http.StatusUnprocessableEntity, "solution overflows float64: Voc, Isc, the MPP and every curve point must be finite")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// finite reports whether no value is an infinity or NaN.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// mpptPlanRequest asks for a DVFS plan either directly from an input-power
// estimate (pin_w) or from a Sec. VI.A threshold-crossing observation.
type mpptPlanRequest struct {
	PinW float64 `json:"pin_w,omitempty"`

	CapacitanceF float64 `json:"capacitance_f,omitempty"`
	VHigh        float64 `json:"v_high,omitempty"`
	VLow         float64 `json:"v_low,omitempty"`
	ElapsedS     float64 `json:"elapsed_s,omitempty"`
	DrawPowerW   float64 `json:"draw_power_w,omitempty"`
}

type mpptPlanResponse struct {
	PinW        float64 `json:"pin_w"`
	Irradiance  float64 `json:"irradiance"`
	MPPVoltage  float64 `json:"mpp_v"`
	SupplyV     float64 `json:"supply_v"`
	FrequencyHz float64 `json:"frequency_hz"`
	Bypass      bool    `json:"bypass"`
}

// handleMPPTPlan estimates the harvester's input power (Eq. 7, when a
// crossing window is given) and looks up the pre-characterised plan table:
// MPP voltage plus the recommended supply/frequency/bypass setting.
func (s *Server) handleMPPTPlan(w http.ResponseWriter, r *http.Request) {
	var req mpptPlanRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	pin := req.PinW
	if req.ElapsedS != 0 || req.CapacitanceF != 0 || req.VHigh != 0 || req.VLow != 0 {
		if req.PinW != 0 {
			httpError(w, http.StatusBadRequest, "give either pin_w or a crossing window, not both")
			return
		}
		var err error
		pin, err = mppt.EstimateInputPower(req.CapacitanceF, req.VHigh, req.VLow, req.ElapsedS, req.DrawPowerW)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else if req.PinW <= 0 {
		httpError(w, http.StatusBadRequest, "pin_w must be positive (or give a crossing window)")
		return
	}
	plan, err := s.table.Lookup(pin)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mpptPlanResponse{
		PinW:        pin,
		Irradiance:  plan.Irradiance,
		MPPVoltage:  plan.MPPVoltage,
		SupplyV:     plan.Supply,
		FrequencyHz: plan.Frequency,
		Bypass:      plan.Bypass,
	})
}

// handleMetrics snapshots every counter the server maintains.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(map[string]any{
		"report_cache": map[string]any{
			"size":      s.reports.lru.len(),
			"capacity":  s.cfg.ReportCacheSize,
			"hits":      s.reports.hits.Load(),
			"misses":    s.reports.misses.Load(),
			"coalesced": s.reports.shared.Load(),
		},
		"gate": map[string]any{
			"capacity":  s.gate.Cap(),
			"in_flight": s.gate.InFlight(),
			"waited":    s.gate.Waited(),
		},
		"resilience": map[string]any{
			"chaos_enabled":     s.cfg.Chaos,
			"injected_failures": s.metrics.chaosFailures.Value(),
			"render_retries":    s.metrics.renderRetries.Value(),
			"stale_served":      s.metrics.staleServed.Value(),
			"stale_store_size":  s.reports.staleLen(),
		},
		"log_dropped": s.log.droppedLines(),
	}))
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeExperimentError maps render errors onto the API's status contract.
func writeExperimentError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, expt.ErrUnknown):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, expt.ErrNoSeries), errors.Is(err, expt.ErrNoTrace),
		errors.Is(err, expt.ErrNoProfile):
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	case r.Context().Err() != nil:
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// decodeJSON parses a bounded body that holds exactly one JSON document.
// Unknown fields are rejected so typos fail loudly, and so is data after
// the document; trailing whitespace is allowed. It writes the 400 itself
// and reports success.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON document")
		return false
	}
	return true
}
