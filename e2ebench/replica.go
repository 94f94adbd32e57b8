package main

// The kernel replica: per-layer step costs measured from outside each
// layer. Timing every call in place is hopeless — a time.Now pair costs
// more than a whole regulator or capacitor call — so the replica works in
// bulk instead:
//
//  1. build a slice of workload nodes from public parts only, and check
//     that they reproduce the engine bitwise (the fidelity check);
//  2. plain pass: step them single-threaded to the engine's barriers —
//     this is the whole;
//  3. recording pass: the same lanes behind recording-only decorators for
//     the regulator, storage, irradiance source and controller, which must
//     reproduce the plain pass's outcomes and skip counts bitwise;
//  4. replay: each tape is fed back in a tight loop into the public
//     function it was recorded at, and the measured ns/call is scaled by
//     the exact call count. What the layers do not explain is the
//     stepper's own share (stepping, controller, CPU model), which must
//     not be negative.
//
// Two more plain passes — profiled, and unprofiled but verbatim — give the
// profiler's cost against the fast-forward path it switches off; both must
// reproduce the plain pass's physics too.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/weather"
)

// tapeCap bounds the calls one tape keeps. Past it calls are still counted
// but not kept, so every lane's kept sequence stays a prefix of its real
// one and warm-started replays remain faithful.
const tapeCap = 1 << 20

// tape records one call kind's arguments per lane.
type tape[T any] struct {
	lanes [][]T
	calls int // every call, kept or not
	kept  int
}

func newTape[T any](lanes int) *tape[T] { return &tape[T]{lanes: make([][]T, lanes)} }

func (t *tape[T]) add(lane int, x T) {
	t.calls++
	if t.kept < tapeCap {
		t.lanes[lane] = append(t.lanes[lane], x)
		t.kept++
	}
}

type pvCall struct{ v, irr float64 }
type effCall struct{ vin, vout, pout float64 }
type capCall struct{ current, dt float64 }

// tapes is everything one recording pass captures.
type tapes struct {
	pv      *tape[pvCall]
	outRng  *tape[float64]
	eff     *tape[effCall]
	storage *tape[capCall]
	at      *tape[float64]
	next    *tape[float64]
	onStep  int
}

func newTapes(lanes int) *tapes {
	return &tapes{
		pv: newTape[pvCall](lanes), outRng: newTape[float64](lanes), eff: newTape[effCall](lanes),
		storage: newTape[capCall](lanes), at: newTape[float64](lanes), next: newTape[float64](lanes),
	}
}

// recSource records At and NextChange and remembers the last level, which
// recStorage pairs with the step's voltage for the PV tape.
type recSource struct {
	src  circuit.EventSource
	lane int
	tp   *tapes
	last float64
}

func (r *recSource) At(t float64) float64 {
	r.tp.at.add(r.lane, t)
	r.last = r.src.At(t)
	return r.last
}

func (r *recSource) NextChange(t float64) float64 {
	r.tp.next.add(r.lane, t)
	return r.src.NextChange(t)
}

// recStorage records ApplyCurrent. The stepper calls it once per executed
// step, right after the PV solve at the same node voltage and irradiance,
// so it also writes the PV tape: *pv.Cell is concrete and cannot be
// wrapped. Embedding *cap.Capacitor keeps Leakage visible to the
// fast-forward probe.
type recStorage struct {
	*cap.Capacitor
	src  *recSource
	lane int
	tp   *tapes
}

func (r *recStorage) ApplyCurrent(current, dt float64) float64 {
	r.tp.pv.add(r.lane, pvCall{v: r.Voltage(), irr: r.src.last})
	r.tp.storage.add(r.lane, capCall{current: current, dt: dt})
	return r.Capacitor.ApplyCurrent(current, dt)
}

// recRegulator records OutputRange and Efficiency.
type recRegulator struct {
	reg.Regulator
	lane int
	tp   *tapes
}

func (r *recRegulator) OutputRange(vin float64) (lo, hi float64) {
	r.tp.outRng.add(r.lane, vin)
	return r.Regulator.OutputRange(vin)
}

func (r *recRegulator) Efficiency(vin, vout, pout float64) float64 {
	r.tp.eff.add(r.lane, effCall{vin: vin, vout: vout, pout: pout})
	return r.Regulator.Efficiency(vin, vout, pout)
}

// quiescentController is a controller fast-forward may skip.
type quiescentController interface {
	circuit.Controller
	circuit.Quiescent
}

// recController counts OnStep calls; embedding forwards QuiescentUntil, so
// the decorated lane fast-forwards exactly as the plain one does.
type recController struct {
	quiescentController
	tp *tapes
}

func (r *recController) OnStep(s *circuit.State) {
	r.tp.onStep++
	r.quiescentController.OnStep(s)
}

// decorate wraps every lane's components in recorders writing to tp.
func decorate(cfgs []circuit.Config, tp *tapes) error {
	for i := range cfgs {
		c := &cfgs[i]
		storage, ok := c.Cap.(*cap.Capacitor)
		if !ok {
			return fmt.Errorf("lane %d: storage %T is not a *cap.Capacitor", i, c.Cap)
		}
		ctrl, ok := c.Controller.(quiescentController)
		if !ok {
			return fmt.Errorf("lane %d: controller %T cannot fast-forward", i, c.Controller)
		}
		if c.IrradianceSource == nil || c.Irradiance != nil {
			return fmt.Errorf("lane %d: replica lanes take their light from IrradianceSource only", i)
		}
		src := &recSource{src: c.IrradianceSource, lane: i, tp: tp}
		c.IrradianceSource = src
		c.Cap = &recStorage{Capacitor: storage, src: src, lane: i, tp: tp}
		c.Reg = &recRegulator{Regulator: c.Reg, lane: i, tp: tp}
		c.Controller = &recController{quiescentController: ctrl, tp: tp}
	}
	return nil
}

// replica is one workload's kernel: fresh lanes on demand, the barriers
// the engine steps them to, and the engine's own numbers to match.
type replica struct {
	name    string
	build   func() ([]circuit.Config, error)
	targets []int
	oracle  func(outs []*circuit.Outcome) error
}

// passResult is one plain pass.
type passResult struct {
	outs     []*circuit.Outcome
	skipped  []int
	executed int
	elapsed  time.Duration
}

// plainPass steps cfgs single-threaded through the replica's barriers.
// Only the stepping is timed.
func (r *replica) plainPass(cfgs []circuit.Config) (passResult, error) {
	b, err := circuit.NewBatch(cfgs)
	if err != nil {
		return passResult{}, err
	}
	runtime.GC() // so earlier passes' garbage is not collected on this one's clock
	start := time.Now()
	for _, t := range r.targets {
		if _, err := b.StepToCountContext(nil, t); err != nil {
			return passResult{}, err
		}
	}
	res := passResult{elapsed: time.Since(start), skipped: make([]int, b.Len())}
	for i := 0; i < b.Len(); i++ {
		p := b.Lane(i).Progress()
		res.skipped[i] = p.StepsSkipped
		res.executed += p.Steps - p.StepsSkipped
	}
	res.outs = b.Outcomes()
	return res, nil
}

// timedPasses runs fresh plain passes, each configured by tweak, and
// returns the last one with the median elapsed time (see repeatTimed).
func (r *replica) timedPasses(tweak func(i int, c *circuit.Config)) (passResult, error) {
	var last passResult
	ns, err := repeatTimed(func() (float64, error) {
		cfgs, err := r.build()
		if err != nil {
			return 0, err
		}
		if tweak != nil {
			for i := range cfgs {
				tweak(i, &cfgs[i])
			}
		}
		if last, err = r.plainPass(cfgs); err != nil {
			return 0, err
		}
		return float64(last.elapsed), nil
	})
	last.elapsed = time.Duration(ns)
	return last, err
}

// repeatTimed calls fn, which returns one measured time, at least
// minRepeats times and until repeatBudget has passed (at most maxRepeats
// times), and returns the median: small replicas repeat more.
func repeatTimed(fn func() (float64, error)) (float64, error) {
	const (
		minRepeats   = 3
		maxRepeats   = 25
		repeatBudget = 250 * time.Millisecond
	)
	var xs []float64
	start := time.Now()
	for len(xs) < minRepeats || (len(xs) < maxRepeats && time.Since(start) < repeatBudget) {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// layerCost is one layer's replayed cost.
type layerCost struct {
	calls int
	est   float64 // ns: measured ns/call × exact calls
}

// replicaReport is everything the replica measures.
type replicaReport struct {
	lanes             int
	executed, skipped int
	wholeNs           float64
	layers            map[string]layerCost // pv, reg, cap, weather
	onStep            int
	profiledNs        float64
	verbatimNs        float64
	exportS           float64
}

// sink keeps replay loops from being optimised away.
var sink float64

// run performs every replica pass and check.
func (r *replica) run() (*replicaReport, error) {
	plain, err := r.timedPasses(nil)
	if err != nil {
		return nil, err
	}
	if err := r.oracle(plain.outs); err != nil {
		return nil, fmt.Errorf("replica %s fidelity: %w", r.name, err)
	}
	rep := &replicaReport{lanes: len(plain.outs), executed: plain.executed, wholeNs: float64(plain.elapsed)}
	for _, s := range plain.skipped {
		rep.skipped += s
	}

	// Recording pass: must reproduce the plain pass bit for bit.
	cfgs, err := r.build()
	if err != nil {
		return nil, err
	}
	tp := newTapes(len(cfgs))
	if err := decorate(cfgs, tp); err != nil {
		return nil, err
	}
	recorded, err := r.plainPass(cfgs)
	if err != nil {
		return nil, err
	}
	if err := sameOutcomes(plain, recorded); err != nil {
		return nil, fmt.Errorf("replica %s recording pass: %w", r.name, err)
	}
	rep.onStep = tp.onStep
	if rep.layers, err = r.replay(tp); err != nil {
		return nil, err
	}

	// Profiler cost: ledger attached (which turns fast-forward off) versus
	// verbatim stepping without it.
	leds := make([]prof.Ledger, len(cfgs))
	profiled, err := r.timedPasses(func(i int, c *circuit.Config) {
		leds[i] = prof.Ledger{}
		c.Ledger = &leds[i]
	})
	if err != nil {
		return nil, err
	}
	verbatim, err := r.timedPasses(func(_ int, c *circuit.Config) { c.NoFastForward = true })
	if err != nil {
		return nil, err
	}
	for name, pass := range map[string]passResult{"profiled": profiled, "verbatim": verbatim} {
		if err := sameOutcomes(plain, withoutSkips(pass)); err != nil {
			return nil, fmt.Errorf("replica %s %s pass: %w", r.name, name, err)
		}
	}
	rep.profiledNs, rep.verbatimNs = float64(profiled.elapsed), float64(verbatim.elapsed)

	p := prof.New()
	for i := range leds {
		p.Ledger(prof.Scope{Experiment: r.name, Node: fmt.Sprintf("lane/%04d", i)}).Merge(&leds[i])
	}
	rep.exportS, err = repeatTimed(func() (float64, error) {
		var buf bytes.Buffer
		start := time.Now()
		err := prof.WritePprof(&buf, p)
		return time.Since(start).Seconds(), err
	})
	return rep, err
}

// withoutSkips drops a pass's skip counts, for passes that step verbatim:
// only their physics must match.
func withoutSkips(p passResult) passResult {
	p.skipped = nil
	return p
}

// sameOutcomes reports whether two passes agree bitwise.
func sameOutcomes(a, b passResult) error {
	if len(a.outs) != len(b.outs) {
		return fmt.Errorf("%d lanes vs %d", len(a.outs), len(b.outs))
	}
	for i := range a.outs {
		if !reflect.DeepEqual(*a.outs[i], *b.outs[i]) {
			return fmt.Errorf("lane %d outcome differs", i)
		}
	}
	if b.skipped != nil && !reflect.DeepEqual(a.skipped, b.skipped) {
		return errors.New("fast-forward skip counts differ")
	}
	return nil
}

// replay feeds every tape back into its layer on fresh components and
// returns each layer's estimated cost over the pass.
func (r *replica) replay(tp *tapes) (map[string]layerCost, error) {
	cfgs, err := r.build()
	if err != nil {
		return nil, err
	}
	// nsPerCall times replay, which feeds the kept calls of one tape to
	// lane i's component, after prepare (untimed) has run.
	nsPerCall := func(kept int, prepare func() error, replay func(i int) float64) (float64, error) {
		if kept == 0 {
			return 0, nil
		}
		return repeatTimed(func() (float64, error) {
			if prepare != nil {
				if err := prepare(); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			acc := 0.0
			for i := range cfgs {
				acc += replay(i)
			}
			elapsed := time.Since(start)
			sink = acc
			return float64(elapsed) / float64(kept), nil
		})
	}

	pvNs, err := nsPerCall(tp.pv.kept, nil, func(i int) (acc float64) {
		var st pv.SolverState // each lane warm-starts from cold, as in the pass
		for _, c := range tp.pv.lanes[i] {
			acc += cfgs[i].Cell.CurrentWarm(c.v, c.irr, &st)
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	rngNs, err := nsPerCall(tp.outRng.kept, nil, func(i int) (acc float64) {
		for _, vin := range tp.outRng.lanes[i] {
			_, hi := cfgs[i].Reg.OutputRange(vin)
			acc += hi
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	effNs, err := nsPerCall(tp.eff.kept, nil, func(i int) (acc float64) {
		for _, c := range tp.eff.lanes[i] {
			acc += cfgs[i].Reg.Efficiency(c.vin, c.vout, c.pout)
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	// Storage is stateful: every replay starts from fresh lanes at their
	// initial charge.
	var stores []circuit.Config
	capNs, err := nsPerCall(tp.storage.kept, func() (err error) {
		stores, err = r.build()
		return err
	}, func(i int) (acc float64) {
		for _, c := range tp.storage.lanes[i] {
			acc += stores[i].Cap.ApplyCurrent(c.current, c.dt)
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	atNs, err := nsPerCall(tp.at.kept, nil, func(i int) (acc float64) {
		for _, t := range tp.at.lanes[i] {
			acc += cfgs[i].IrradianceSource.At(t)
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	nextNs, err := nsPerCall(tp.next.kept, nil, func(i int) (acc float64) {
		for _, t := range tp.next.lanes[i] {
			acc += cfgs[i].IrradianceSource.NextChange(t)
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	cost := func(ns float64, calls int) float64 { return ns * float64(calls) }
	return map[string]layerCost{
		"pv":      {calls: tp.pv.calls, est: cost(pvNs, tp.pv.calls)},
		"reg":     {calls: tp.outRng.calls + tp.eff.calls, est: cost(rngNs, tp.outRng.calls) + cost(effNs, tp.eff.calls)},
		"cap":     {calls: tp.storage.calls, est: cost(capNs, tp.storage.calls)},
		"weather": {calls: tp.at.calls + tp.next.calls, est: cost(atNs, tp.at.calls) + cost(nextNs, tp.next.calls)},
	}, nil
}

// Fleet node trims, mirroring the fleet engine's population (the fidelity
// check fails if the two drift apart).
const (
	fleetCapacitance = 100e-6
	fleetCapMax      = 2.0
	fleetV0Lo        = 0.9
	fleetV0Hi        = 1.7
	fleetCyclesLo    = 2.0e6
	fleetCyclesHi    = 8.0e6
	fleetAuxLo       = 0.1e-3
	fleetAuxHi       = 0.5e-3
	fleetSiteLo      = 0.12
	fleetSiteHi      = 1.0
	fleetSprint      = 0.20
	fleetDeadline    = 0.8
)

// fleetNode builds fleet node id of spec from public parts.
func fleetNode(spec fleet.Spec, id int) (circuit.Config, error) {
	label := fmt.Sprintf("node/%07d", id)
	gen := weather.NewSeededGenerator(
		fault.StreamSeed(spec.Seed, label, "weather"),
		weather.WithDwellTimes(spec.Horizon/6, spec.Horizon/10),
		weather.WithRelaxationTime(spec.Horizon/25),
	)
	sky, err := gen.Trace(spec.Horizon, spec.Horizon/256, nil)
	if err != nil {
		return circuit.Config{}, err
	}
	trim := rand.New(rand.NewSource(fault.StreamSeed(spec.Seed, label, "trim")))
	v0 := fleetV0Lo + (fleetV0Hi-fleetV0Lo)*trim.Float64()
	cycles := fleetCyclesLo + (fleetCyclesHi-fleetCyclesLo)*trim.Float64()
	aux := fleetAuxLo + (fleetAuxHi-fleetAuxLo)*trim.Float64()
	site := fleetSiteLo + (fleetSiteHi-fleetSiteLo)*trim.Float64()
	for i := range sky.Samples {
		sky.Samples[i] *= site
	}
	if spec.Dark > 0 {
		cut := (1 - spec.Dark) * spec.Horizon
		for i := range sky.Samples {
			if float64(i)*sky.Step >= cut {
				sky.Samples[i] = 0
			}
		}
	}
	storage, err := cap.New(fleetCapacitance, v0, fleetCapMax)
	if err != nil {
		return circuit.Config{}, err
	}
	return circuit.Config{
		Cell: pv.NewCell(), Proc: cpu.NewProcessor(), Reg: reg.NewSC(), Cap: storage,
		IrradianceSource: sky,
		Controller: &sched.DeadlineController{
			Cycles: cycles, Deadline: fleetDeadline * spec.Horizon, Sprint: fleetSprint, AllowBypass: true,
		},
		AuxLoad:   func(float64) float64 { return aux },
		Step:      spec.Step,
		MaxTime:   spec.Horizon,
		JobCycles: cycles,
	}, nil
}

// fleetReplica replicates the first lanes nodes of spec. Node k does not
// depend on the fleet size, so the oracle is the engine's own run of a
// lanes-node fleet with the same geometry: its harvest, summed in node-ID
// order, must match bitwise.
func fleetReplica(name string, spec fleet.Spec, lanes int) *replica {
	spec.N = lanes
	epochs := circuit.StepsFor(spec.Horizon, spec.Epoch)
	var targets []int
	for e := 1; e <= epochs; e++ {
		edge := float64(e) * spec.Epoch
		if edge > spec.Horizon {
			edge = spec.Horizon
		}
		targets = append(targets, circuit.StepsFor(edge, spec.Step))
	}
	// The scheduler's straggler edge, when Horizon/Epoch snapped short.
	targets = append(targets, circuit.StepsFor(spec.Horizon, spec.Step))
	return &replica{
		name: name,
		build: func() ([]circuit.Config, error) {
			cfgs := make([]circuit.Config, lanes)
			for i := range cfgs {
				var err error
				if cfgs[i], err = fleetNode(spec, i); err != nil {
					return nil, fmt.Errorf("replica node %d: %w", i, err)
				}
			}
			return cfgs, nil
		},
		targets: targets,
		oracle: func(outs []*circuit.Outcome) error {
			rep, err := fleet.Run(spec.Config())
			if err != nil {
				return err
			}
			sum := 0.0
			for _, o := range outs {
				sum += o.EnergyHarvested
			}
			if sum != rep.EnergyHarvested {
				return fmt.Errorf("harvest %.17g J, engine %.17g J", sum, rep.EnergyHarvested)
			}
			return nil
		},
	}
}

// Scenario node trims, mirroring the scenario engine's population.
const (
	scnCapacitance = 100e-6
	scnCapMax      = 2.0
	scnV0Lo        = 0.9
	scnV0Hi        = 1.7
	scnSiteLo      = 0.35
	scnSiteHi      = 1.0
)

// scaledSource is a node's site-scaled view of the shared scenario source.
type scaledSource struct {
	src  *weather.Trace
	site float64
}

func (s scaledSource) At(t float64) float64         { return s.site * s.src.At(t) }
func (s scaledSource) NextChange(t float64) float64 { return s.src.NextChange(t) }

// scenarioReplica replicates lanes nodes of spec with the radio switched
// off: the arrival draws are private to the scenario engine, so the
// replica runs the same source, trims, controller and geometry with a
// constant peripheral draw, and the oracle is the engine's run of exactly
// that spec, node by node.
func scenarioReplica(name string, spec scenario.Spec, lanes int) (*replica, error) {
	spec.Geometry.Nodes = lanes
	spec.Workload.Arrivals = scenario.Arrivals{Process: scenario.ArrivalsNone}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if spec, err = scenario.ParseScenario(raw); err != nil {
		return nil, err
	}
	src, err := spec.SourceTrace()
	if err != nil {
		return nil, err
	}
	horizon, step := spec.Geometry.HorizonS, spec.Geometry.StepS
	return &replica{
		name: name,
		build: func() ([]circuit.Config, error) {
			cfgs := make([]circuit.Config, lanes)
			for i := range cfgs {
				rng := rand.New(rand.NewSource(fault.StreamSeed(spec.Seed, fmt.Sprintf("scn/%04d", i), "trim")))
				v0 := scnV0Lo + (scnV0Hi-scnV0Lo)*rng.Float64()
				var light circuit.EventSource = src
				if lanes > 1 {
					light = scaledSource{src: src, site: scnSiteLo + (scnSiteHi-scnSiteLo)*rng.Float64()}
				}
				storage, err := cap.New(scnCapacitance, v0, scnCapMax)
				if err != nil {
					return nil, err
				}
				aux := spec.Workload.AuxW
				cfgs[i] = circuit.Config{
					Cell: pv.NewCell(), Proc: cpu.NewProcessor(), Reg: reg.NewSC(), Cap: storage,
					IrradianceSource: light,
					Controller: &sched.DeadlineController{
						Cycles: spec.Workload.JobCycles, Deadline: spec.Workload.DeadlineFrac * horizon,
						Sprint: spec.Workload.Sprint, AllowBypass: true,
					},
					AuxLoad:   func(float64) float64 { return aux },
					Step:      step,
					MaxTime:   horizon,
					JobCycles: spec.Workload.JobCycles,
				}
			}
			return cfgs, nil
		},
		targets: []int{circuit.StepsFor(horizon, step)},
		oracle: func(outs []*circuit.Outcome) error {
			rep, err := scenario.Run(scenario.Config{Spec: spec, Workers: 1})
			if err != nil {
				return err
			}
			for i, o := range outs {
				if got, want := o.EnergyHarvested, rep.Nodes[i].EnergyHarvestedJ; got != want {
					return fmt.Errorf("node %d harvest %.17g J, engine %.17g J", i, got, want)
				}
			}
			return nil
		},
	}, nil
}
