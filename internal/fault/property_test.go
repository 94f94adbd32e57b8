package fault_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/intermittent"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

// TestPropertyNeverResumesTornState: for any seeded fault plan — random
// brownouts on top of blinking light, probabilistic torn writes and
// restore bit-rot — the executor only ever holds committed state that a
// completed commit produced. Every traced committed value outside a
// checkpoint event must be one the trace already committed (or zero, the
// clean restart). A violation means a torn or corrupt image leaked into
// the committed buffer.
func TestPropertyNeverResumesTornState(t *testing.T) {
	f := func(seed uint16, tornRaw, bitrotRaw, pulseRaw uint8) bool {
		plan := fault.Plan{
			Seed: int64(seed),
			Random: &fault.RandomPulses{
				Count:         int(pulseRaw % 4),
				MeanDurationS: 1.5e-3,
			},
			NVM: &fault.NVMPlan{
				TornWriteProb:     float64(tornRaw) / 512,   // up to ~0.5
				RestoreBitrotProb: float64(bitrotRaw) / 512, // up to ~0.5
				FailEveryN:        int(seed % 5),
			},
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("generated plan invalid: %v", err)
			return false
		}
		const horizon = 120e-3
		in := fault.New(plan, "prop")
		blink := func(tt float64) float64 {
			if math.Mod(tt, 6e-3) < 3e-3 {
				return 1.0
			}
			return 0
		}
		b, err := in.Brownouts(horizon)
		if err != nil {
			t.Errorf("generated plan rejected: %v", err)
			return false
		}
		irr := b.Wrap(blink)

		rec := trace.NewRecorder()
		e := &intermittent.Executor{
			Task:   intermittent.Task{TotalCycles: 4e6, StateBytes: 1024},
			Policy: intermittent.PeriodicPolicy{Interval: 0.4e6},
			Supply: 0.55,
			Faults: in.NVM(),
		}
		storage, err := cap.New(47e-6, 1.0, 2.0)
		if err != nil {
			t.Error(err)
			return false
		}
		sim, err := circuit.New(circuit.Config{
			Cell:       pv.NewCell(),
			Proc:       cpu.NewProcessor(),
			Reg:        reg.NewSC(),
			Cap:        storage,
			Irradiance: irr,
			Controller: e,
			Step:       2e-6,
			MaxTime:    horizon,
			Tracer:     rec,
			TraceTrack: "prop",
		})
		if err != nil {
			t.Error(err)
			return false
		}
		if _, err := sim.Run(); err != nil {
			t.Error(err)
			return false
		}

		// Replay the trace: committed state may only take values produced
		// by a committed checkpoint (or zero after a clean restart).
		committed := map[float64]bool{0: true}
		const eps = 1e-6
		ok := func(v float64) bool {
			for c := range committed {
				if math.Abs(c-v) <= eps {
					return true
				}
			}
			return false
		}
		for _, ev := range rec.Events() {
			v, has := ev.Args["committed"].(float64)
			if !has {
				continue
			}
			if ev.Kind == "intermittent.checkpoint" {
				committed[v] = true
				continue
			}
			if !ok(v) {
				t.Errorf("seed %d: %s at t=%g resumed torn state committed=%g",
					seed, ev.Kind, ev.Time, v)
				return false
			}
		}
		// The executor's final accounting must agree with the trace.
		if !ok(e.Stats.Committed) {
			t.Errorf("seed %d: final committed %g never committed by any checkpoint",
				seed, e.Stats.Committed)
			return false
		}
		if e.Stats.Completed && e.Stats.Committed < e.Task.TotalCycles {
			t.Errorf("seed %d: completed with %g < %g", seed, e.Stats.Committed, e.Task.TotalCycles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
