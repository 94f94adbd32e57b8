package scenario

// The scenario engine: render the source once, then run the nodes as a
// one-epoch population (internal/population) and aggregate in node-ID
// order. Unlike the fleet there are no epoch barriers — scenario
// populations share one environment, so one pass per lane group to the
// horizon is both the fastest and the simplest deterministic schedule.

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/population"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/radio"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/weather"
)

// Per-node population trims. Initial charge always varies per node; the
// site light scale (shading, wearer orientation) only spreads populations
// of more than one node, so a single-node scenario sees the source exactly
// as rendered — the property record/replay regression pinning relies on.
const (
	nodeCapacitance = 100e-6 // storage capacitance (F), the repo default
	nodeCapMax      = 2.0    // storage voltage rail (V)
	nodeV0Lo        = 0.9    // initial charge range (V)
	nodeV0Hi        = 1.7
	nodeSiteLo      = 0.35 // site light scale range for multi-node runs
	nodeSiteHi      = 1.0
)

// Config assembles a scenario run. Everything beyond Spec is an execution
// detail outside the determinism contract: the report bytes depend only on
// the Spec.
type Config struct {
	Spec Spec
	// Workers bounds the goroutines advancing nodes; < 1 means 1. They
	// claim the population in contiguous lane chunks from one counter, so
	// none idles while lanes are left (population.Config).
	Workers int
	// Tracer, when non-nil, receives the scenario.run span plus every
	// node's circuit events (tracks scn/NNNN), merged in node-ID order.
	Tracer trace.Tracer
	// Ctx, when non-nil, cancels the run between lanes.
	Ctx context.Context
	// Profile, when non-nil, collects an exact energy-and-time ledger per
	// node, folded in node-ID order under ProfileScope.
	Profile      *prof.Profile
	ProfileScope string
}

// nodeLabel is the per-node stream/track/profile label, the bytes of
// fmt.Sprintf("scn/%04d", id).
func nodeLabel(id int) string { return population.Label("scn/", 4, id) }

// Run executes the scenario and returns its report.
func Run(cfg Config) (*Report, error) {
	rep, _, err := run(cfg)
	return rep, err
}

// run is Run, also returning the node lanes in node-ID order.
func run(cfg Config) (*Report, []*circuit.Simulator, error) {
	spec := cfg.Spec
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	n := spec.Geometry.Nodes

	src, err := spec.SourceTrace()
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{Spec: spec, Nodes: make([]NodeResult, n)}
	rep.src = src
	rep.Source.Samples = len(src.Samples)
	rep.Source.StepS = src.Step
	rep.Source.DurationS = src.Duration()
	rep.Source.Min, rep.Source.Mean, rep.Source.Max = src.Stats()

	// Node id's lane. Everything here is a deterministic function of (spec,
	// id): trims, arrivals and the shared source are all stream-seeded, and
	// the build writes only node id's slots, so build order cannot matter.
	tx := radio.New()
	// Every node models the same chip, so the run builds the immutable
	// models once and every lane shares them; a node's diversity lives in
	// its site, charge and arrivals (DESIGN §11).
	cell, proc, sc := pv.NewCell(), cpu.NewProcessor(), reg.NewSC()
	var recs []*trace.Recorder
	if cfg.Tracer != nil {
		recs = make([]*trace.Recorder, n)
	}
	horizon, step := spec.Geometry.HorizonS, spec.Geometry.StepS
	build := func(id int) (circuit.Config, error) {
		label := nodeLabel(id)
		rng := rand.New(fault.NewSource(fault.StreamSeed(spec.Seed, label, "trim")))
		v0, site := nodeV0Lo+(nodeV0Hi-nodeV0Lo)*rng.Float64(), 1.0
		if n > 1 {
			site = nodeSiteLo + (nodeSiteHi-nodeSiteLo)*rng.Float64()
		}
		storage, err := cap.New(nodeCapacitance, v0, nodeCapMax)
		if err != nil {
			return circuit.Config{}, fmt.Errorf("storage: %w", err)
		}
		rng.Seed(fault.StreamSeed(spec.Seed, label, "arrivals"))
		times := arrivalTimes(rng, spec.Workload.Arrivals, horizon)
		packets := make([]radio.Packet, len(times))
		for k, t := range times {
			packets[k] = radio.Packet{Time: t, PayloadBytes: spec.Workload.Arrivals.PayloadBytes}
		}
		schedTx, err := tx.NewSchedule(packets)
		if err != nil {
			return circuit.Config{}, fmt.Errorf("radio: %w", err)
		}
		c := circuit.Config{
			Cell: cell,
			Proc: proc,
			Reg:  sc,
			Cap:  storage,
			// The shared trace is the light input and its event source, so
			// nodes fast-forward through exactly-zero spans — kinetic dead
			// time, indoor lights-out — instead of stepping them.
			IrradianceSource: siteSource(src, site),
			Controller: &sched.DeadlineController{
				Cycles:      spec.Workload.JobCycles,
				Deadline:    spec.Workload.DeadlineFrac * horizon,
				Sprint:      spec.Workload.Sprint,
				AllowBypass: true,
			},
			AuxLoad:   auxLoad(spec.Workload.AuxW, schedTx),
			Step:      step,
			MaxTime:   horizon,
			JobCycles: spec.Workload.JobCycles,
		}
		if recs != nil {
			recs[id] = trace.NewRecorder()
			c.Tracer = recs[id]
			c.TraceTrack = label
		}
		rep.Nodes[id] = NodeResult{
			ID: id, V0: v0, Site: site,
			Events: len(times), RadioEnergyJ: schedTx.TotalEnergy(),
		}
		return c, nil
	}

	// A scenario is a one-epoch population: every lane runs to its own
	// horizon.
	lanes, err := population.Run(population.Config{
		Name:         "scenario",
		Nodes:        n,
		Build:        build,
		Workers:      cfg.Workers,
		Ctx:          cfg.Ctx,
		Profile:      cfg.Profile,
		ProfileScope: cfg.ProfileScope,
		Label:        nodeLabel,
	})
	if err != nil {
		return nil, nil, err
	}

	// Aggregate in node-ID order.
	for i, sim := range lanes {
		out := sim.Outcome()
		nr := &rep.Nodes[i]
		nr.Completed = out.Completed
		nr.CompletionTimeS = out.CompletionTime
		nr.BrownedOut = out.BrownedOut
		nr.EnergyHarvestedJ = out.EnergyHarvested
		nr.EnergyAuxJ = out.EnergyAux
		nr.FinalVcapV = out.FinalCapVoltage
		rep.EnergyHarvested += out.EnergyHarvested
		rep.EnergyDelivered += out.EnergyDelivered
		rep.EnergyAux += out.EnergyAux
		rep.MeanFinalVcap += out.FinalCapVoltage
		rep.Events += nr.Events
		if out.Completed {
			rep.Completed++
		}
		if out.BrownedOut {
			rep.BrownedOut++
		}
	}
	rep.MeanFinalVcap /= float64(n)

	// Trace: the run span wraps every node's events, merged in node order,
	// so the stream is independent of the worker count.
	if cfg.Tracer != nil {
		trace.Begin(cfg.Tracer, "scenario.run", 0, "scenario", trace.Args{
			"nodes": n, "seed": spec.Seed, "horizon_s": horizon,
		})
		batches := make([][]trace.Event, len(recs))
		for i, rec := range recs {
			batches[i] = rec.Events()
		}
		for _, ev := range trace.Merge(batches...) {
			cfg.Tracer.Emit(ev)
		}
		trace.End(cfg.Tracer, "scenario.run", horizon, "scenario", trace.Args{
			"completed": rep.Completed, "browned_out": rep.BrownedOut,
			"harvest_j": rep.EnergyHarvested,
		})
	}
	return rep, lanes, nil
}

// siteSource scales the shared source by the node's site exposure without
// mutating the shared trace, as a circuit.EventSource: At is bitwise the
// scaling the engine always applied (site == 1 hands out the trace
// itself), and NextChange delegates to the trace — scaling by a positive
// site maps exact-zero samples to exact zero, so the trace's constancy
// claims hold for the scaled signal.
func siteSource(src *weather.Trace, site float64) circuit.EventSource {
	if site == 1 {
		return src
	}
	return scaledSource{src: src, site: site}
}

// scaledSource is siteSource's non-unit-site case.
type scaledSource struct {
	src  *weather.Trace
	site float64
}

// At returns site * src.At(t), the arithmetic of the pre-EventSource
// per-node closure.
func (s scaledSource) At(t float64) float64 { return s.site * s.src.At(t) }

// NextChange delegates to the underlying trace: a span on which the trace
// is constant is a span on which any fixed multiple of it is constant.
func (s scaledSource) NextChange(t float64) float64 { return s.src.NextChange(t) }

// auxLoad composes the constant peripheral draw with the radio schedule.
func auxLoad(base float64, schedTx *radio.Schedule) func(float64) float64 {
	if schedTx.TotalEnergy() == 0 {
		return func(float64) float64 { return base }
	}
	return func(t float64) float64 { return base + schedTx.Load(t) }
}
