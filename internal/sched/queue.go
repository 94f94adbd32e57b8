package sched

import (
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/cpu"
)

// QueueJob is one deadline-constrained job in a multi-job workload.
type QueueJob struct {
	// Name identifies the job in the completion/missed lists.
	Name string
	// Cycles is the job's work (clock cycles).
	Cycles float64
	// Release is the earliest start time (s).
	Release float64
	// Deadline is the absolute completion deadline (s).
	Deadline float64
}

// QueueController schedules a set of deadline jobs on the harvesting node
// with earliest-deadline-first dispatch: at every instant the released,
// unfinished job with the nearest deadline runs at the rate its remaining
// work requires, with the same regulator-dropout/bypass handling as the
// single-job controller. A job whose deadline passes unfinished is dropped
// (firm real-time) and recorded in Missed.
type QueueController struct {
	// Jobs is the workload; order is irrelevant (EDF sorts internally).
	Jobs []QueueJob
	// AllowBypass enables direct connection on regulator dropout.
	AllowBypass bool
	// SupplyMargin is headroom (V) above the minimum supply for the target
	// rate. Zero selects 0.01 V.
	SupplyMargin float64

	// Completed and Missed list job names in event order.
	Completed []string
	Missed    []string
	// FinishTimes maps completed job names to completion times (s).
	FinishTimes map[string]float64

	jobs       []QueueJob // sorted by deadline
	done       []float64  // per-job executed cycles
	finished   []bool
	missed     []bool
	lastCycles float64
	current    int // index into jobs; -1 when idle

	// vsolve memoizes the per-step supply-voltage solve (bit-identical
	// results, far fewer alpha-power-law evaluations).
	vsolve cpu.FreqSolverState
}

var _ circuit.Controller = (*QueueController)(nil)

// Init implements circuit.Controller.
func (qc *QueueController) Init(s *circuit.State) {
	if qc.SupplyMargin == 0 {
		qc.SupplyMargin = 0.01
	}
	qc.jobs = append([]QueueJob(nil), qc.Jobs...)
	sort.SliceStable(qc.jobs, func(i, j int) bool {
		return qc.jobs[i].Deadline < qc.jobs[j].Deadline
	})
	qc.done = make([]float64, len(qc.jobs))
	qc.finished = make([]bool, len(qc.jobs))
	qc.missed = make([]bool, len(qc.jobs))
	qc.FinishTimes = make(map[string]float64, len(qc.jobs))
	qc.current = -1
	qc.lastCycles = s.CyclesDone()
	s.SetBypass(false)
	qc.dispatch(s)
}

// OnStep implements circuit.Controller.
func (qc *QueueController) OnStep(s *circuit.State) {
	// Attribute executed cycles to the running job.
	executed := s.CyclesDone() - qc.lastCycles
	qc.lastCycles = s.CyclesDone()
	if qc.current >= 0 && executed > 0 {
		qc.done[qc.current] += executed
		if qc.done[qc.current] >= qc.jobs[qc.current].Cycles {
			qc.finished[qc.current] = true
			qc.Completed = append(qc.Completed, qc.jobs[qc.current].Name)
			qc.FinishTimes[qc.jobs[qc.current].Name] = s.Time()
			qc.current = -1
		}
	}
	// Fire deadline misses.
	now := s.Time()
	for i := range qc.jobs {
		if !qc.finished[i] && !qc.missed[i] && now > qc.jobs[i].Deadline {
			qc.missed[i] = true
			qc.Missed = append(qc.Missed, qc.jobs[i].Name)
			if qc.current == i {
				qc.current = -1
			}
		}
	}
	qc.dispatch(s)
}

// OnThreshold implements circuit.Controller.
func (qc *QueueController) OnThreshold(*circuit.State, circuit.ThresholdEvent) {}

// Remaining returns the number of unfinished, unmissed jobs.
func (qc *QueueController) Remaining() int {
	n := 0
	for i := range qc.jobs {
		if !qc.finished[i] && !qc.missed[i] {
			n++
		}
	}
	return n
}

// dispatch selects the EDF job and commands its rate.
func (qc *QueueController) dispatch(s *circuit.State) {
	now := s.Time()
	qc.current = -1
	for i := range qc.jobs { // sorted by deadline: first eligible wins
		if qc.finished[i] || qc.missed[i] || now < qc.jobs[i].Release {
			continue
		}
		qc.current = i
		break
	}
	if qc.current < 0 {
		// Idle: clock-gate and let the node bank energy for the next job.
		s.SetBypass(false)
		s.SetFrequency(0)
		return
	}
	job := qc.jobs[qc.current]
	remaining := job.Cycles - qc.done[qc.current]
	left := job.Deadline - now
	var rate float64
	if left > 0 {
		rate = remaining / left
	} else {
		rate = math.Inf(1)
	}

	proc := s.Processor()
	if s.Bypassed() {
		s.SetFrequency(rate)
		return
	}
	vdd, err := proc.VoltageForFrequencyWarm(rate, &qc.vsolve)
	if err != nil {
		vdd = proc.MaxVoltage()
		rate = proc.MaxFrequency(vdd)
	}
	vdd += qc.SupplyMargin
	_, hi := s.Regulator().OutputRange(s.CapVoltage())
	if vdd > hi {
		if qc.AllowBypass && s.CapVoltage() > hi {
			s.SetBypass(true)
			s.SetFrequency(rate)
			return
		}
		vdd = hi
	}
	s.SetSupply(vdd)
	s.SetFrequency(rate)
}

// AdmissionCheck estimates, before running, whether the workload is
// feasible under a steady harvest (W, load side after conversion): it
// simulates the EDF order analytically, job by job, assuming each runs at
// its required constant rate and energy accrues at the harvested rate plus
// the given initial reserve (J). It returns the names of jobs the estimate
// expects to miss. The check is conservative about energy, not about
// voltage feasibility.
func AdmissionCheck(jobs []QueueJob, harvestLoadSide, reserve float64, proc interface {
	DynamicEnergyPerCycle(v float64) float64
	VoltageForFrequency(f float64) (float64, error)
	LeakagePower(v float64) float64
}) []string {
	sorted := append([]QueueJob(nil), jobs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Deadline < sorted[j].Deadline })

	var missed []string
	now := 0.0
	energy := reserve
	for _, job := range sorted {
		if job.Release > now {
			// Idle until release: bank the harvest.
			energy += harvestLoadSide * (job.Release - now)
			now = job.Release
		}
		window := job.Deadline - now
		if window <= 0 {
			missed = append(missed, job.Name)
			continue
		}
		rate := job.Cycles / window
		v, err := proc.VoltageForFrequency(rate)
		if err != nil {
			missed = append(missed, job.Name)
			continue
		}
		need := job.Cycles*proc.DynamicEnergyPerCycle(v) + proc.LeakagePower(v)*window
		have := energy + harvestLoadSide*window
		if need > have {
			missed = append(missed, job.Name)
			continue
		}
		// Run the job across its window; account the energy.
		energy = have - need
		now = job.Deadline
	}
	return missed
}
