// Package population runs N circuit simulations — one lane per node — on
// the worker pool under one deterministic schedule: the single
// build–step–fold path of the fleet and scenario engines.
//
// Determinism contract: Build writes only its own node's slots, each lane
// is stepped by exactly one goroutine per epoch and handed off between
// epochs at the pool's wait, and everything that reads across nodes — the
// barrier, the error report, the profile fold — runs on the calling
// goroutine after the pool drains, in node-ID order. Which goroutine steps
// which lane is left to runner.ForEachSpan, so outputs are independent of
// Workers.
package population

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/prof"
	"repro/internal/runner"
)

// Config describes one population run.
type Config struct {
	// Name prefixes every error ("fleet", "scenario").
	Name string
	// Nodes is the population size; node IDs are 0..Nodes-1.
	Nodes int
	// Build returns node id's circuit configuration. It runs on the worker
	// pool, so it may write only node id's slots of shared state. Its
	// errors name the failed stage ("weather: …"); the runner adds the node.
	Build func(id int) (circuit.Config, error)
	// Targets lists each epoch's step target (circuit.StepsFor of its
	// edge). Epochs past the list advance every lane to its own horizon.
	Targets []int
	// Barrier, when non-nil, receives after every epoch (numbered from 1)
	// the lanes that were active during it, in node-ID order; the finished
	// ones are dropped only after it returns.
	Barrier func(epoch int, active []*circuit.Simulator)
	// Workers bounds the goroutines building and advancing nodes; < 1
	// means 1. Each epoch the workers claim the active lanes from one
	// counter in circuit.Group chunks of max(8, active/(64·Workers)) lanes
	// (runner.ForEachSpan).
	Workers int
	// Ctx, when non-nil, is checked at every epoch barrier and before every
	// lane, but never during the build: a cancelled run returns once the
	// population is built.
	Ctx context.Context
	// Profile, when non-nil, gets each node's ledger (one contiguous slab)
	// under Scope{ProfileScope, Label(id)}, folded in node-ID order.
	Profile      *prof.Profile
	ProfileScope string
	Label        func(id int) string
}

// Run builds the population, advances it epoch by epoch until every lane
// has finished, and returns the lanes in node-ID order.
func Run(cfg Config) ([]*circuit.Simulator, error) {
	n := cfg.Nodes
	cfgs := make([]circuit.Config, n)
	errs := make([]error, n)
	var leds []prof.Ledger
	if cfg.Profile != nil {
		leds = make([]prof.Ledger, n)
	}
	runner.ForEach(n, cfg.Workers, func(id int) {
		cfgs[id], errs[id] = cfg.Build(id)
		if leds != nil {
			cfgs[id].Ledger = &leds[id]
		}
	})
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: node %d %w", cfg.Name, id, err)
		}
	}
	batch, err := circuit.NewBatch(cfgs)
	if err != nil {
		var le *circuit.LaneError
		if errors.As(err, &le) {
			return nil, fmt.Errorf("%s: node %d circuit: %w", cfg.Name, le.Lane, le.Err)
		}
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}

	// lanes[:active] and ids[:active] are the still-running nodes in
	// node-ID order; groupErrs[lo] is the error of the span starting at lo.
	all := make([]*circuit.Simulator, n)
	lanes := make([]*circuit.Simulator, n)
	ids := make([]int, n)
	for i := range all {
		all[i], lanes[i], ids[i] = batch.Lane(i), batch.Lane(i), i
	}
	groupErrs := make([]error, n)
	for epoch, active := 1, n; active > 0; epoch++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("%s: run cancelled: %w", cfg.Name, err)
			}
		}
		target := math.MaxInt
		if epoch <= len(cfg.Targets) {
			target = cfg.Targets[epoch-1]
		}
		runner.ForEachSpan(active, cfg.Workers, func(lo, hi int) {
			grp := circuit.Group(lanes[lo:hi])
			_, groupErrs[lo] = grp.StepToCountContext(cfg.Ctx, target)
		})
		for lo, err := range groupErrs[:active] {
			if err == nil {
				continue
			}
			var le *circuit.LaneError
			if errors.As(err, &le) {
				return nil, fmt.Errorf("%s: node %d: %w", cfg.Name, ids[lo+le.Lane], le.Err)
			}
			return nil, fmt.Errorf("%s: run cancelled: %w", cfg.Name, err)
		}

		if cfg.Barrier != nil {
			cfg.Barrier(epoch, lanes[:active])
		}
		live := 0
		for i, sim := range lanes[:active] {
			if !sim.Done() {
				lanes[live], ids[live] = sim, ids[i]
				live++
			}
		}
		active = live
	}

	for id := range leds {
		if !leds[id].Empty() {
			cfg.Profile.Ledger(prof.Scope{Experiment: cfg.ProfileScope, Node: cfg.Label(id)}).Merge(&leds[id])
		}
	}
	return all, nil
}
