package expt

// The fleet extension: the population view the paper's single test chip
// cannot give. A small shared-clock fleet (internal/fleet) of battery-less
// nodes runs the deadline workload under per-node weather and site
// diversity; the report is the distributional summary (completion and
// brownout rates, completion-time histogram, epoch series).

import "repro/internal/fleet"

// fleetDemoSpec is the registry fleet: small enough for the golden suite
// to stay fast, large enough to show a mixed population.
const fleetDemoSpec = "n=32,seed=9,horizon=0.02,epoch=2e-3,step=2e-5"

// extFleet runs the demo fleet: obs.Tracer records fleet.* events and
// obs.Profile gets one ledger per node under the ext-fleet scope.
func extFleet(obs Observe) (*fleet.Report, error) {
	spec, err := fleet.ParseSpec(fleetDemoSpec)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config()
	cfg.Tracer = obs.Tracer
	cfg.Profile = obs.Profile
	cfg.ProfileScope = "ext-fleet"
	return fleet.Run(cfg)
}

// ExtFleet runs the demo fleet for the registry.
func ExtFleet() (*fleet.Report, error) { return extFleet(Observe{}) }
