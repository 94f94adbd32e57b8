// Quickstart: assemble the battery-less energy-harvesting system from the
// calibrated components, plan operating points with the holistic optimiser,
// and run a recognition job on the transient simulator.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/imgproc"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)

	// 1. The hardware substrate: solar cell, processor, SC regulator.
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	sys := core.NewSystem(cell, proc)

	// 2. Static analysis: what does holistic planning buy at full sun?
	vmpp, pmpp := cell.MPP(pv.FullSun)
	fmt.Printf("solar MPP: %.3f V / %.2f mW\n", vmpp, pmpp*1e3)

	cmp, err := sys.Compare(sc, pv.FullSun)
	if err != nil {
		log.Fatalf("compare: %v", err)
	}
	fmt.Printf("regulated vs direct: %+.0f%% delivered power, %+.0f%% clock speed\n",
		cmp.DeliveryGain*100, cmp.Speedup*100)

	mep, err := sys.HolisticMEP(sc, vmpp)
	if err != nil {
		log.Fatalf("holistic MEP: %v", err)
	}
	fmt.Printf("minimum energy point: conventional %.2f V -> holistic %.2f V (saves %.0f%%)\n",
		mep.ConventionalVoltage, mep.HolisticVoltage, mep.Savings*100)

	// 3. A real workload: train the recognition pipeline and size a job.
	rng := rand.New(rand.NewSource(1))
	pipe, err := imgproc.TrainDefaultPipeline(rng, 64, 64, 4)
	if err != nil {
		log.Fatalf("train pipeline: %v", err)
	}
	frame := imgproc.Generate(rng, imgproc.ClassChecker, 64, 64)
	res, err := pipe.Process(frame)
	if err != nil {
		log.Fatalf("process: %v", err)
	}
	fmt.Printf("one 64x64 frame: class %v, %.2f M cycles (%.1f ms at 0.5 V)\n",
		res.Class, float64(res.Cycles)/1e6, float64(res.Cycles)/proc.MaxFrequency(0.5)*1e3)

	// 4. Run the job on the transient simulator: the deadline controller
	// (Sec. VI.B) paces it to finish within the deadline.
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		log.Fatalf("capacitor: %v", err)
	}
	const deadline = 20e-3
	sim, err := circuit.New(circuit.Config{
		Cell:       cell,
		Proc:       proc,
		Reg:        sc,
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(pv.FullSun),
		Controller: &sched.DeadlineController{Cycles: float64(res.Cycles), Deadline: deadline},
		Step:       2e-6,
		MaxTime:    2 * deadline,
		JobCycles:  float64(res.Cycles),
	})
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	out, err := sim.Run()
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if out.Completed {
		fmt.Printf("job completed at %.2f ms; harvested %.3f mJ, delivered %.3f mJ\n",
			out.CompletionTime*1e3, out.EnergyHarvested*1e3, out.EnergyDelivered*1e3)
	} else {
		fmt.Printf("job incomplete after %.2f ms (%.1f%% done)\n",
			out.Duration*1e3, 100*out.CyclesDone/float64(res.Cycles))
	}
}
