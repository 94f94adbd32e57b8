// Daycycle: a battery-less sensor node rides a full (time-compressed)
// daylight cycle, processing recognition frames whenever energy allows.
// The example compares three energy-management policies over the same day:
//
//   - naive: always regulate at a fixed 0.55 V DVFS point;
//   - conventional MEP: regulate at the processor-only minimum energy point;
//   - holistic: the paper's policy — per-light-level planning with MPP
//     tracking and regulator bypass under weak light.
//
// The score is the number of frames recognised over the day.
package main

import (
	"fmt"
	"log"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/imgproc"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/reg"
)

// The "day" is compressed to 2 simulated seconds (dawn at 0.2 s, dusk at
// 1.8 s) so the example finishes quickly; the physics are unchanged.
const (
	dayLength = 2.0
	sunrise   = 0.2
	sunset    = 1.8
	peakSun   = 1.0
	simStep   = 10e-6
)

func main() {
	log.SetFlags(0)

	frameCycles := float64(imgproc.DefaultCostModel().FrameCycles(64, 64, 512, imgproc.NumClasses))
	fmt.Printf("one frame costs %.2f M cycles\n\n", frameCycles/1e6)

	day := circuit.DayIrradiance(sunrise, sunset, peakSun)

	// The three policies share one node: each picks only the controller
	// (the tracker also its V1/V2 estimation comparators).
	cell, proc, sc := pv.NewCell(), cpu.NewProcessor(), reg.NewSC()
	mep, _ := proc.ConventionalMEP()
	mgr := core.NewManager(core.NewSystem(cell, proc), sc)
	policies := []struct {
		name        string
		ctl         circuit.Controller
		comparators []circuit.Comparator
	}{
		{"naive fixed 0.55 V", &circuit.FixedPoint{Supply: 0.55}, nil},
		{"conventional MEP", &circuit.FixedPoint{Supply: mep}, nil},
		{"holistic (tracked)", &mppt.Tracker{
			Table: mgr.BuildTrackingTable([]float64{0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}),
		}, mppt.Comparators(0.95, 0.85)},
	}

	for _, p := range policies {
		storage, err := cap.New(100e-6, 0.9, 2.0)
		if err != nil {
			log.Fatalf("capacitor: %v", err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell:        cell,
			Proc:        proc,
			Reg:         sc,
			Cap:         storage,
			Irradiance:  day,
			Controller:  p.ctl,
			Comparators: p.comparators,
			Step:        simStep,
			MaxTime:     dayLength,
		})
		if err != nil {
			log.Fatalf("assemble %s: %v", p.name, err)
		}
		out, err := sim.Run()
		if err != nil {
			log.Fatalf("run %s: %v", p.name, err)
		}
		if tr, ok := p.ctl.(*mppt.Tracker); ok {
			fmt.Printf("  (tracker made %d estimates, %d retargets)\n", len(tr.Estimates), tr.Retargets)
		}
		fmt.Printf("%-22s %6.0f frames recognised (%.1f G cycles)\n",
			p.name, out.CyclesDone/frameCycles, out.CyclesDone/1e9)
	}
}
