package expt

// The scenario extension: the declarative front-end over the circuit
// simulator (internal/scenario). One JSON spec composes an energy source
// (here the piezo impulse-train harvester), a radio-event workload and the
// run geometry; the registry entry runs a small mixed-outcome population so
// the golden pins the whole spec → source → arrivals → circuit → report
// pipeline.

import "repro/internal/scenario"

// scenarioDemoSpec is the registry scenario: a four-node kinetic-harvester
// population with Poisson radio traffic, tuned so the outcomes mix
// (completions, brownouts and one unfinished node).
const scenarioDemoSpec = `{"name":"registry","seed":9,` +
	`"source":{"kind":"kinetic","rate_hz":8,"impulse":0.5,"decay_s":0.2},` +
	`"workload":{"job_cycles":5e6,"aux_w":5e-5},"geometry":{"nodes":4}}`

// extScenario runs the demo scenario: obs.Tracer records the scenario.run
// span plus per-node circuit events and obs.Profile gets one ledger per
// node under the ext-scenario scope.
func extScenario(obs Observe) (*scenario.Report, error) {
	spec, err := scenario.ParseScenario([]byte(scenarioDemoSpec))
	if err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Config{
		Spec:         spec,
		Tracer:       obs.Tracer,
		Profile:      obs.Profile,
		ProfileScope: "ext-scenario",
	})
}

// ExtScenario runs the demo scenario for the registry.
func ExtScenario() (*scenario.Report, error) { return extScenario(Observe{}) }
