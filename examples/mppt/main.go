// MPPT: demonstrates the paper's time-based maximum-power-point tracking
// (Sec. VI.A). A cloud passes over the panel, stepping the light from full
// sun to overcast and back; the tracker estimates the new input power from
// how quickly the storage capacitor falls between two comparator thresholds
// and retargets the DVFS plan — no current sensor involved.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mppt"
	"repro/internal/plot"
	"repro/internal/pv"
	"repro/internal/reg"
)

func main() {
	log.SetFlags(0)

	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	mgr := core.NewManager(core.NewSystem(cell, proc), sc)

	// A cloud: full sun, then 20 ms of overcast, then full sun again.
	cloud := circuit.PiecewiseIrradiance(
		[]float64{0, 10e-3, 10.1e-3, 30e-3, 30.1e-3, 60e-3},
		[]float64{1.0, 1.0, 0.25, 0.25, 1.0, 1.0},
	)

	vmpp, pmpp := cell.MPP(pv.FullSun)
	_, pOvercast := cell.MPP(0.25)
	fmt.Printf("full sun MPP %.2f mW; overcast MPP %.2f mW\n", pmpp*1e3, pOvercast*1e3)

	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		log.Fatalf("capacitor: %v", err)
	}
	// The tracker retargets from the manager's plan table whenever the
	// V1/V2 comparator pair times a discharge (Eq. 6-7).
	tracker := &mppt.Tracker{Table: mgr.BuildTrackingTable([]float64{0.05, 0.1, 0.25, 0.5, 1.0})}
	sim, err := circuit.New(circuit.Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         sc,
		Cap:         storage,
		Irradiance:  cloud,
		Controller:  tracker,
		Comparators: mppt.Comparators(1.00, 0.90),
		Step:        2e-6,
		MaxTime:     60e-3,
		TraceEvery:  100,
	})
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	out, err := sim.Run()
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Printf("tracker estimates (paper Eq. 7):\n")
	for i, est := range tracker.Estimates {
		fmt.Printf("  #%d: %.2f mW\n", i+1, est*1e3)
	}
	fmt.Printf("plan retargets: %d\n", tracker.Retargets)
	fmt.Printf("energy harvested over the cloud event: %.3f mJ\n", out.EnergyHarvested*1e3)
	fmt.Printf("work done: %.2f M cycles\n\n", out.CyclesDone/1e6)

	if out.Trace != nil {
		node := plot.Series{Name: "Vsolar"}
		for _, s := range out.Trace.Samples {
			node.X = append(node.X, s.Time*1e3)
			node.Y = append(node.Y, s.CapVoltage)
		}
		chart := plot.Chart{Title: "storage node through a passing cloud", XLabel: "t (ms)", YLabel: "V"}
		if err := chart.Render(os.Stdout, node); err != nil {
			log.Fatalf("render: %v", err)
		}
	}
}
