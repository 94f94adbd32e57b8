// Deadline: a recognition batch must finish before a deadline while the
// light dims mid-run — the paper's Sec. VII scenario. The example compares
// the conventional constant-speed schedule against the proposed sprinting +
// regulator-bypass policy and prints the resulting waveforms.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/imgproc"
	"repro/internal/plot"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)

	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	buck := reg.NewBuck()

	// A 64x64 recognition frame, sized from the real pipeline's cycle
	// model, due in 26 ms.
	rng := rand.New(rand.NewSource(2))
	pipe, err := imgproc.TrainDefaultPipeline(rng, 64, 64, 3)
	if err != nil {
		log.Fatalf("train pipeline: %v", err)
	}
	job := pipe.Cost().BatchJob(1, 64, 64, 512, imgproc.NumClasses)
	const deadline = 26e-3
	fmt.Printf("job: %d frames, %.2f M cycles, deadline %.0f ms\n",
		job.Frames, float64(job.Cycles)/1e6, deadline*1e3)

	// The light fades from hazy sun to near darkness mid-run.
	light := circuit.RampIrradiance(0.5, 0.18, 8e-3, 18e-3)

	type policy struct {
		name   string
		sprint float64
		bypass bool
	}
	policies := []policy{
		{"conventional (constant speed)", 0, false},
		{"proposed (sprint 20% + bypass)", 0.2, true},
	}
	var traces []plot.Series
	for _, p := range policies {
		vmpp, _ := cell.MPP(0.5)
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			log.Fatalf("capacitor: %v", err)
		}
		e0 := storage.Energy()
		ctl := &sched.DeadlineController{
			Cycles:        float64(job.Cycles),
			Deadline:      deadline,
			Sprint:        p.sprint,
			AllowBypass:   p.bypass,
			StopOnDropout: !p.bypass,
		}
		sim, err := circuit.New(circuit.Config{
			Cell:           cell,
			Proc:           proc,
			Reg:            buck,
			Cap:            storage,
			Irradiance:     light,
			Controller:     ctl,
			Step:           2e-6,
			MaxTime:        2 * deadline,
			JobCycles:      float64(job.Cycles),
			TraceEvery:     200,
			StopOnBrownout: true,
		})
		if err != nil {
			log.Fatalf("assemble %s: %v", p.name, err)
		}
		out, err := sim.Run()
		if err != nil {
			log.Fatalf("run %s: %v", p.name, err)
		}
		status := "ran out of light"
		end := out.Duration
		switch {
		case out.Completed:
			status = "completed"
			end = out.CompletionTime
		case out.Stopped:
			status = "failed at regulator dropout"
			end = out.StoppedAt
		case out.BrownedOut:
			status = "browned out"
			end = out.BrownoutTime
		}
		fmt.Printf("%-32s %s at %5.2f ms | %4.1f%% of job done | harvested %.3f mJ | cap used %.3f mJ",
			p.name, status, end*1e3, 100*out.CyclesDone/float64(job.Cycles),
			out.EnergyHarvested*1e3, (e0-storage.Energy())*1e3)
		if ctl.BypassedAt >= 0 {
			fmt.Printf(" | bypassed at %.2f ms", ctl.BypassedAt*1e3)
		}
		fmt.Println()

		if out.Trace != nil {
			s := plot.Series{Name: p.name}
			for _, sm := range out.Trace.Samples {
				s.X = append(s.X, sm.Time*1e3)
				s.Y = append(s.Y, sm.CapVoltage)
			}
			traces = append(traces, s)
		}
	}

	fmt.Println()
	chart := plot.Chart{Title: "storage-node voltage", XLabel: "t (ms)", YLabel: "V"}
	if err := chart.Render(os.Stdout, traces...); err != nil {
		log.Fatalf("render: %v", err)
	}
}
