// Package fleet is the shared-clock multi-node engine: N battery-less
// nodes, each a full transient circuit simulation with its own
// domain-separated weather stream, advanced together in epochs on one
// simulated clock. It is ROADMAP item 1 — the population-scale view the
// paper's single test chip cannot give: distributions of completion time,
// brownout exposure and harvest across per-node light diversity.
//
// Determinism contract (the repo's signature invariant, extended to
// fleets): a fleet run is a pure function of its Spec. Per-node randomness
// is derived with the same FNV-1a (seed, stream, domain) scheme as
// internal/fault, so node k's weather is independent of every other node's
// and of the worker count; nodes advance in parallel within an epoch but
// all aggregation happens after the epoch barrier, in node-ID order.
// Reports are therefore byte-identical across -j and across repeated
// same-seed runs.
//
// The epoch structure is what makes fleets affordable: a node that has
// finished (job complete or horizon reached) leaves the active set and
// costs nothing in later epochs, so tails of long-running nodes do not pay
// for the whole population.
package fleet

import (
	"context"

	"repro/internal/prof"
	"repro/internal/trace"
)

// Defaults for unset Config fields. The default geometry (50 ms horizon,
// 2.5 ms epochs, 20 µs steps) keeps a 1000-node fleet around a second of
// wall time while leaving room for per-node divergence: jobs deadline at
// 80% of the horizon, and per-node site/light diversity spreads the
// population across completion, brownout-and-recovery and starvation.
const (
	DefaultNodes   = 100
	DefaultHorizon = 0.05   // s
	DefaultEpoch   = 2.5e-3 // s
	DefaultStep    = 2e-5   // s
)

// Config assembles a fleet run. The zero value of every field selects a
// default; the only knobs most callers touch are Nodes and Seed.
type Config struct {
	// Nodes is the fleet size N. Defaults to DefaultNodes.
	Nodes int
	// Seed is the master seed every per-node stream is derived from.
	Seed int64
	// Horizon is the shared simulation end time (s).
	Horizon float64
	// Epoch is the shared-clock advance per scheduler round (s). Nodes
	// run independently inside an epoch and synchronise at its end.
	Epoch float64
	// Step is the per-node integration timestep (s).
	Step float64
	// Dark is the lights-out fraction of the horizon (see Spec.Dark):
	// every node's sky trace is zeroed for t >= (1-Dark)*Horizon. Part
	// of the Spec — it changes the physics, not just the execution.
	Dark float64
	// NoFastForward forces verbatim stepping in every node simulator,
	// disabling event-horizon fast-forward. An execution detail like
	// Workers: the report bytes are identical either way (the differential
	// tests enforce it).
	NoFastForward bool
	// Workers bounds the goroutines advancing nodes within an epoch;
	// < 1 means 1. Each epoch they claim the active nodes in contiguous
	// chunks from one counter, so none idles while nodes are left
	// (population.Config). It must not affect the report bytes — that is
	// the point of the epoch barrier.
	Workers int
	// Tracer, when non-nil, receives fleet.* events (run span, per-epoch
	// counters) on the sim clock. Events are emitted by the scheduler
	// goroutine only, between barriers, so traces are deterministic too.
	Tracer trace.Tracer
	// Ctx, when non-nil, cancels the run: the scheduler checks it at every
	// epoch barrier and returns its error instead of simulating on. Like
	// Workers and Tracer it is an execution detail, not part of the Spec.
	Ctx context.Context
	// OnEpoch, when non-nil, receives each epoch-barrier Snapshot as it is
	// taken, before the next epoch starts. It is called from the scheduler
	// goroutine only (never concurrently) and feeds live progress consumers
	// — the SSE endpoint and the CLI ticker. It must not block for long:
	// the fleet does not advance while it runs.
	OnEpoch func(Snapshot)
	// Profile, when non-nil, collects an exact energy-and-time ledger per
	// node. Each node's step loop accumulates into a private ledger (one
	// comparison per step when off), and the scheduler folds the ledgers
	// into Profile in node-ID order after the run, so the profile bytes are
	// independent of Workers like everything else.
	Profile *prof.Profile
	// ProfileScope is the experiment label under which node ledgers are
	// filed in Profile (Scope.Experiment); nodes are labelled node/NNNNNNN.
	ProfileScope string
}

// withDefaults returns cfg with zero fields resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = DefaultNodes
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	if cfg.Step <= 0 {
		cfg.Step = DefaultStep
	}
	return cfg
}

// Spec returns the canonical spec describing this config (defaults
// resolved), the key under which runs are cached and reported.
func (cfg Config) Spec() Spec {
	cfg = cfg.withDefaults()
	return Spec{N: cfg.Nodes, Seed: cfg.Seed, Horizon: cfg.Horizon, Epoch: cfg.Epoch, Step: cfg.Step, Dark: cfg.Dark}
}

// Run executes the fleet and returns its report.
func Run(cfg Config) (*Report, error) {
	rep, _, err := schedule(cfg.withDefaults())
	return rep, err
}
