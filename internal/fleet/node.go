package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/population"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/weather"
)

// Per-node population parameters. Each node draws its trims uniformly from
// these ranges, so a fleet spans starved-through-comfortable energy
// budgets and the aggregate histograms have real spread.
const (
	nodeCapacitance = 100e-6 // storage capacitance (F), the repo default
	nodeCapMax      = 2.0    // capacitor voltage rail (V)
	nodeV0Lo        = 0.9    // initial node voltage range (V)
	nodeV0Hi        = 1.7
	nodeCyclesLo    = 2.0e6 // job budget range (cycles): frames of recognition
	nodeCyclesHi    = 8.0e6
	nodeAuxLo       = 0.1e-3 // always-on peripheral draw range (W)
	nodeAuxHi       = 0.5e-3
	nodeSiteLo      = 0.12 // site light scale range (shading/orientation)
	nodeSiteHi      = 1.0
	nodeSprint      = 0.20 // the paper's 20% sprint factor
	deadlineFrac    = 0.8  // job deadline as a fraction of the horizon
)

// nodeStream is the fault.StreamSeed stream label for node id ≥ 0, the
// bytes of fmt.Sprintf("node/%07d", id).
func nodeStream(id int) string { return population.Label("node/", 7, id) }

// buildNodeConfig constructs the circuit configuration of node id on the
// run's shared cell, processor and SC converter. All randomness is drawn
// from streams seeded via fault.StreamSeed(seed, "node/<id>", domain) —
// one domain per concern — so every node's environment and trims are
// independent of every other node's and of the build order. Each domain
// seeds a fresh fault.Source, which costs no more than reducing the seed
// and holds no register for the few draws a build makes.
func buildNodeConfig(cfg Config, id int, cell *pv.Cell, proc *cpu.Processor, sc *reg.SC) (circuit.Config, error) {
	label := nodeStream(id)

	// Trims: initial charge, job size, peripheral draw and site exposure.
	rng := rand.New(fault.NewSource(fault.StreamSeed(cfg.Seed, label, "trim")))
	v0 := nodeV0Lo + (nodeV0Hi-nodeV0Lo)*rng.Float64()
	cycles := nodeCyclesLo + (nodeCyclesHi-nodeCyclesLo)*rng.Float64()
	aux := nodeAuxLo + (nodeAuxHi-nodeAuxLo)*rng.Float64()

	// Site exposure: a fixed per-node light scale modelling shading and
	// panel orientation, the per-node harvest diversity population studies
	// care about.
	site := nodeSiteLo + (nodeSiteHi-nodeSiteLo)*rng.Float64()

	// Lights-out tail: with Dark set, samples in the trailing Dark
	// fraction of the horizon are exactly zero — the cloud model alone
	// never reaches zero (its attenuation floor is positive), so this is
	// what puts nodes into the provably-dark fixed point the stepper's
	// fast-forward needs.
	cut := math.Inf(1)
	if cfg.Dark > 0 {
		cut = (1 - cfg.Dark) * cfg.Horizon
	}

	// Weather: the node's private sky, 257 samples scaled by the site and
	// cut dark, streamed as the stepper reads them instead of rendered up
	// front. Dwell times and the OU relaxation scale with the horizon so
	// short fleet runs still see cloud bursts.
	sky, err := weather.NewSky(fault.StreamSeed(cfg.Seed, label, "weather"),
		cfg.Horizon, cfg.Horizon/256, site, cut,
		weather.WithDwellTimes(cfg.Horizon/6, cfg.Horizon/10),
		weather.WithRelaxationTime(cfg.Horizon/25),
	)
	if err != nil {
		return circuit.Config{}, fmt.Errorf("weather: %w", err)
	}

	storage, err := cap.New(nodeCapacitance, v0, nodeCapMax)
	if err != nil {
		return circuit.Config{}, fmt.Errorf("storage: %w", err)
	}
	return circuit.Config{
		Cell: cell,
		Proc: proc,
		Reg:  sc,
		Cap:  storage,
		// The sky is the light input and its event source, so dead nodes
		// fast-forward through its dark tail instead of stepping it.
		IrradianceSource: sky,
		NoFastForward:    cfg.NoFastForward,
		Controller: &sched.DeadlineController{
			Cycles:      cycles,
			Deadline:    deadlineFrac * cfg.Horizon,
			Sprint:      nodeSprint,
			AllowBypass: true,
		},
		AuxLoad:   func(float64) float64 { return aux },
		Step:      cfg.Step,
		MaxTime:   cfg.Horizon,
		JobCycles: cycles,
	}, nil
}
