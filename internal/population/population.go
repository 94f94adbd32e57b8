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
	"strconv"

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
	// pool, so it may write only node id's slots of shared state, and the
	// same worker then sets node id's lane up from the config in place.
	// Its errors name the failed stage ("weather: …"); the runner adds the
	// node, and names a config the lane rejects "circuit: …".
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
	// The worker that builds node id's config sets its lane up in place in
	// the slab, so no node's config outlives its build.
	slab := make([]circuit.Simulator, n)
	errs := make([]error, n)
	var leds []prof.Ledger
	if cfg.Profile != nil {
		leds = make([]prof.Ledger, n)
	}
	runner.ForEach(n, cfg.Workers, func(id int) {
		c, err := cfg.Build(id)
		if err != nil {
			errs[id] = err
			return
		}
		if leds != nil {
			c.Ledger = &leds[id]
		}
		if err := slab[id].Configure(c); err != nil {
			errs[id] = fmt.Errorf("circuit: %w", err)
		}
	})
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: node %d %w", cfg.Name, id, err)
		}
	}

	// lanes[:active] and ids[:active] are the still-running nodes in
	// node-ID order; groupErrs[lo] is the error of the span starting at lo.
	all := make([]*circuit.Simulator, n)
	lanes := make([]*circuit.Simulator, n)
	ids := make([]int, n)
	for i := range all {
		all[i], lanes[i], ids[i] = &slab[i], &slab[i], i
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

// Label returns prefix followed by id zero-padded to width digits: for
// id >= 0 the bytes of fmt.Sprintf("%s%0*d", prefix, width, id), built
// without fmt in one allocation, the string itself. Padding keeps the
// labels of up to 10^width nodes one width, so they sort by ID and grep
// cleanly in traces; a larger ID prints wider, so labels never collide.
func Label(prefix string, width, id int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(id), 10)
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}
