package serve

// The scenario endpoints: the declarative front-end (internal/scenario)
// over HTTP. GET lists what the engine accepts — source kinds, arrival
// processes and the sizing bounds — so clients can build specs without
// guessing; POST runs a spec and serves the report as JSON. Scenario
// reports are pure functions of the canonical spec string, so responses
// cache under "scenario:<spec>" exactly like experiment renders, with the
// same singleflight, gate and stale degraded path.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/scenario"
)

// Scenario sizing bounds. Scenario populations are richer per node than
// fleet nodes (radio schedules, site trims), so the node cap is tighter;
// the total-steps cap is shared with the fleet endpoints, and also caps
// the source impulses and arrivals a run generates one by one.
const maxScenarioNodes = 256

// handleScenariosInfo describes the scenario schema: every source kind and
// arrival process this build renders, plus the sizing bounds POST enforces.
func (s *Server) handleScenariosInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version": scenario.SpecVersion,
		"source_kinds": []string{
			scenario.SourceBench, scenario.SourceClear, scenario.SourceCloudy,
			scenario.SourceKinetic, scenario.SourceIndoor,
		},
		"arrival_processes": []string{
			scenario.ArrivalsNone, scenario.ArrivalsPoisson,
			scenario.ArrivalsGamma, scenario.ArrivalsWeibull,
		},
		"bounds": map[string]any{
			"max_nodes":        maxScenarioNodes,
			"max_total_steps":  float64(maxFleetSteps),
			"max_total_events": float64(maxFleetSteps),
		},
	})
}

// handleScenariosRun runs the scenario spec in the request body and serves
// its report as JSON. kind=trace is rejected here — a spec names a server-
// local file path, and an HTTP client must not be able to probe the
// server's filesystem — record/replay stays a CLI workflow.
func (s *Server) handleScenariosRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	spec, err := scenario.ParseScenario(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Source.Kind == scenario.SourceTrace {
		httpError(w, http.StatusUnprocessableEntity,
			"source kind \"trace\" reads server-local files and is not served over HTTP; replay traces with the hemsim CLI")
		return
	}
	g := spec.Geometry
	if g.Nodes > maxScenarioNodes {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("scenario too large: nodes=%d (max %d)", g.Nodes, maxScenarioNodes))
		return
	}
	if work := float64(g.Nodes) * (g.HorizonS / g.StepS); work > maxFleetSteps {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("scenario orders %.3g integration steps (max %.3g); shrink nodes or horizon, or coarsen step", work, float64(maxFleetSteps)))
		return
	}
	impulses, arrivals := spec.ExpectedEvents()
	if events := impulses + float64(g.Nodes)*arrivals; events > maxFleetSteps {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("scenario expects %.3g source impulses and arrivals (max %.3g); shrink nodes or horizon, or lower the rates", events, float64(maxFleetSteps)))
		return
	}
	if err := renderFault(r.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	key := "scenario:" + spec.String()
	respBody, err := s.cached(r, key, func() ([]byte, error) {
		// Single-worker inside the gate slot: one request, one simulation
		// thread; the context frees the slot if the client abandons the
		// request.
		rep, err := scenario.Run(scenario.Config{Spec: spec, Workers: 1, Ctx: r.Context()})
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	})
	s.respond(w, r, key, "application/json", respBody, err)
}
