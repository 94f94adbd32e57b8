package fleet

import (
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/population"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

// Process-wide counters on the shared default registry: hemserved's
// Prometheus scrape surfaces fleet activity (runs started, epoch barriers
// crossed) without the fleet package knowing about HTTP.
var (
	fleetRuns = metrics.Default().Counter("fleet_runs_total",
		"Fleet runs started by any caller in the process.")
	fleetEpochs = metrics.Default().Counter("fleet_epochs_total",
		"Fleet epoch barriers crossed across all runs.")
)

// schedule builds the fleet on the population runner and advances it to
// the horizon in shared-clock epochs, returning the report and the node
// lanes in node-ID order.
//
// The runner owns the determinism of the schedule (internal/population);
// the fleet adds the epoch barrier, where the active nodes' Progress is
// accumulated in node-ID order on top of the frozen totals of the nodes
// that have already finished. Floating-point accumulation order is
// therefore fixed — retirement order (itself a deterministic function of
// the spec) then node-ID order, never worker interleaving — which keeps
// reports byte-identical across -j, while each barrier scans only the
// still-running population.
func schedule(cfg Config) (*Report, []*circuit.Simulator, error) {
	rep := &Report{Spec: cfg.Spec(), Hist: newHistogram(cfg.Horizon)}
	fleetRuns.Inc()

	if trace.On(cfg.Tracer) {
		trace.Begin(cfg.Tracer, "fleet.run", 0, "fleet", trace.Args{
			"n": cfg.Nodes, "seed": cfg.Seed, "horizon_s": cfg.Horizon, "epoch_s": cfg.Epoch,
		})
	}

	edge := func(epoch int) float64 { return min(float64(epoch)*cfg.Epoch, cfg.Horizon) }
	// Every lane shares cfg.Step, so each epoch's step target is memoized
	// once instead of converted per lane. When Horizon/Epoch lands just
	// below an integer the snapped count is one short, and the runner's
	// unlisted final epoch takes the stragglers to the horizon.
	epochs := circuit.StepsFor(cfg.Horizon, cfg.Epoch)
	targets := make([]int, epochs)
	for e := 1; e <= epochs; e++ {
		targets[e-1] = circuit.StepsFor(edge(e), cfg.Step)
	}
	rep.Snapshots = make([]Snapshot, 0, epochs)

	// retired holds the frozen totals of the finished nodes: a finished
	// Simulator takes no further steps, so it is folded in once.
	var retired Snapshot
	barrier := func(epoch int, active []*circuit.Simulator) {
		snap := retired
		snap.Time = edge(epoch)
		for _, sim := range active {
			p := sim.Progress()
			accumulate(&snap, p)
			if p.Done {
				accumulate(&retired, p)
			} else {
				snap.Active++
			}
		}
		snap.MeanVcap /= float64(cfg.Nodes)
		rep.Snapshots = append(rep.Snapshots, snap)
		fleetEpochs.Inc()

		if trace.On(cfg.Tracer) {
			trace.Counter(cfg.Tracer, "fleet.epoch", snap.Time, "fleet", trace.Args{
				"active": snap.Active, "completed": snap.Completed,
				"browned_out": snap.BrownedOut, "harvest_j": snap.Harvested,
			})
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(snap)
		}
	}

	// Every node models the same chip, so the run builds the immutable
	// models once and every lane shares them; a node's diversity lives in
	// its sky and trims (DESIGN §11).
	cell, proc, sc := pv.NewCell(), cpu.NewProcessor(), reg.NewSC()
	lanes, err := population.Run(population.Config{
		Name:  "fleet",
		Nodes: cfg.Nodes,
		Build: func(id int) (circuit.Config, error) {
			return buildNodeConfig(cfg, id, cell, proc, sc)
		},
		Targets:      targets,
		Barrier:      barrier,
		Workers:      cfg.Workers,
		Ctx:          cfg.Ctx,
		Profile:      cfg.Profile,
		ProfileScope: cfg.ProfileScope,
		Label:        nodeStream,
	})
	if err != nil {
		return nil, nil, err
	}

	// Final reduction, again in node-ID order.
	for _, sim := range lanes {
		out := sim.Outcome()
		rep.EnergyHarvested += out.EnergyHarvested
		rep.EnergyDelivered += out.EnergyDelivered
		rep.EnergyAux += out.EnergyAux
		rep.MeanFinalVcap += out.FinalCapVoltage
		if out.Completed {
			rep.Completed++
			rep.Hist.add(out.CompletionTime)
		}
		if out.BrownedOut {
			rep.BrownedOut++
		}
	}
	rep.MeanFinalVcap /= float64(cfg.Nodes)
	rep.Unfinished = cfg.Nodes - rep.Completed

	if trace.On(cfg.Tracer) {
		trace.End(cfg.Tracer, "fleet.run", cfg.Horizon, "fleet", trace.Args{
			"completed": rep.Completed, "browned_out": rep.BrownedOut,
			"harvest_j": rep.EnergyHarvested,
		})
	}
	return rep, lanes, nil
}

// accumulate adds one node's progress to a snapshot's running sums
// (MeanVcap holds the voltage sum until the barrier divides it).
func accumulate(s *Snapshot, p circuit.Progress) {
	s.Harvested += p.EnergyHarvested
	s.Aux += p.EnergyAux
	s.MeanVcap += p.CapVoltage
	if p.Completed {
		s.Completed++
	}
	if p.BrownedOut {
		s.BrownedOut++
	}
}
