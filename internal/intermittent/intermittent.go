// Package intermittent implements checkpointed forward progress for
// transiently-powered execution — the system context the paper builds on
// (its refs: Hibernus++-style voltage-triggered hibernation, Alpaca-style
// task checkpointing, federated energy storage). A battery-less node
// browns out whenever harvesting collapses; everything in volatile state is
// lost. This package runs a long job on the transient simulator and
// persists progress to modelled non-volatile memory so the job survives any
// number of power failures.
//
// The executor is a circuit.Controller with a three-mode state machine:
//
//	Restoring ──(restore cycles done)──> Working ──(policy fires)──> Checkpointing
//	    ^                                                                 │
//	    └────────────(power failure: volatile progress lost)──────────────┘
//
// Checkpoints are double-buffered: a checkpoint interrupted by a power
// failure leaves the previous committed image intact (no torn state).
package intermittent

import (
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/trace"
)

// The checkpoint store is FRAM-class non-volatile memory: cheap reads,
// writes a few cycles per byte, a small fixed per-operation overhead
// (erase setup, commit mark). Costs are charged in clock cycles of the
// core that drives the accesses, so they scale with DVFS.
const (
	nvmWriteCyclesPerByte = 4
	nvmReadCyclesPerByte  = 2
	nvmFixedCycles        = 500
)

// checkpointCycles returns the cycle cost of persisting `bytes` of state.
func checkpointCycles(bytes int) float64 {
	return nvmFixedCycles + nvmWriteCyclesPerByte*float64(bytes)
}

// restoreCycles returns the cycle cost of restoring `bytes` of state.
func restoreCycles(bytes int) float64 {
	return nvmFixedCycles + nvmReadCyclesPerByte*float64(bytes)
}

// Task is a long-running job executed intermittently.
type Task struct {
	// TotalCycles is the useful work the job must complete.
	TotalCycles float64
	// StateBytes is the size of the live state a checkpoint must persist.
	StateBytes int
}

// Policy decides when to take a checkpoint.
type Policy interface {
	// ShouldCheckpoint is consulted every step while working.
	// uncommitted is the volatile progress (cycles) since the last commit;
	// nodeVoltage is the storage-node voltage (V).
	ShouldCheckpoint(uncommitted, nodeVoltage float64) bool
	// Name identifies the policy in reports.
	Name() string
}

// PeriodicPolicy checkpoints every Interval cycles of useful work — the
// task-based (Alpaca-style) discipline.
type PeriodicPolicy struct {
	// Interval is the useful work (cycles) between checkpoints.
	Interval float64
}

var _ Policy = PeriodicPolicy{}

// ShouldCheckpoint implements Policy.
func (p PeriodicPolicy) ShouldCheckpoint(uncommitted, _ float64) bool {
	return uncommitted >= p.Interval
}

// Name implements Policy.
func (p PeriodicPolicy) Name() string { return "periodic" }

// Hibernator is an optional Policy extension: after a checkpoint commits,
// the executor asks whether to hibernate (gate the clock and wait) instead
// of resuming work. Voltage-triggered policies hibernate until the supply
// recovers, as Hibernus-class systems do.
type Hibernator interface {
	// ShouldSleep reports whether the node voltage is still too low to
	// resume useful work.
	ShouldSleep(nodeVoltage float64) bool
}

// VoltageTriggeredPolicy checkpoints when the storage node falls below a
// threshold — the Hibernus++-style just-in-time discipline: checkpoint only
// when death is imminent, then hibernate until the supply recovers to 50 mV
// above the threshold.
type VoltageTriggeredPolicy struct {
	// Threshold is the node voltage (V) below which a checkpoint fires.
	Threshold float64
	// MinUncommitted suppresses checkpoints when there is almost nothing
	// to save (avoids re-checkpointing in a brown zone).
	MinUncommitted float64
}

var (
	_ Policy     = VoltageTriggeredPolicy{}
	_ Hibernator = VoltageTriggeredPolicy{}
)

// ShouldCheckpoint implements Policy.
func (p VoltageTriggeredPolicy) ShouldCheckpoint(uncommitted, nodeVoltage float64) bool {
	return nodeVoltage < p.Threshold && uncommitted > p.MinUncommitted
}

// ShouldSleep implements Hibernator.
func (p VoltageTriggeredPolicy) ShouldSleep(nodeVoltage float64) bool {
	return nodeVoltage < p.Threshold+0.05
}

// Name implements Policy.
func (p VoltageTriggeredPolicy) Name() string { return "voltage-triggered" }

// Faults optionally injects checkpoint-store failures into an execution —
// the hostile-NVM half of a chaos run (see internal/fault for the plan-
// driven implementation). Implementations must be deterministic given
// their own seeded state: the executor calls them in simulation order,
// once per commit or restore attempt.
type Faults interface {
	// TornWrite reports whether commit n's mark fails: the write burns its
	// cycles but the image is discarded. The previous commit survives
	// (double buffering) and the volatile work stays in RAM for a retry.
	TornWrite(commit int) bool
	// CorruptRestore reports whether restore r reads a bit-rotted image.
	// The executor falls back to the older buffered image, losing the work
	// between the two commits, and re-reads.
	CorruptRestore(restore int) bool
}

// NeverPolicy never checkpoints — the baseline that shows why intermittent
// execution needs persistence (long jobs restart from zero at every power
// failure and may never finish).
type NeverPolicy struct{}

var _ Policy = NeverPolicy{}

// ShouldCheckpoint implements Policy.
func (NeverPolicy) ShouldCheckpoint(_, _ float64) bool { return false }

// Name implements Policy.
func (NeverPolicy) Name() string { return "never" }

// mode is the executor's state-machine mode.
type mode int

const (
	modeRestoring mode = iota + 1
	modeWorking
	modeCheckpointing
	modeHibernating
)

// profileBin maps the mode to its energy-profile time bin. Hibernation
// maps to cpu/idle, matching the profiler's gated-clock attribution (the
// executor commands frequency 0 while hibernating).
func (m mode) profileBin() prof.Bin {
	switch m {
	case modeRestoring:
		return prof.BinRestore
	case modeCheckpointing:
		return prof.BinCheckpoint
	case modeHibernating:
		return prof.BinCPUIdle
	default:
		return prof.BinCPUActive
	}
}

// String names the mode for trace events.
func (m mode) String() string {
	switch m {
	case modeRestoring:
		return "restoring"
	case modeWorking:
		return "working"
	case modeCheckpointing:
		return "checkpointing"
	case modeHibernating:
		return "hibernating"
	default:
		return "mode?"
	}
}

// Stats aggregates an execution's accounting. All cycle quantities are in
// clock cycles.
type Stats struct {
	Committed        float64 // useful work persisted in NVM
	Volatile         float64 // useful work done since the last commit
	Lost             float64 // useful work destroyed by power failures
	CheckpointCycles float64 // cycles spent writing checkpoints
	RestoreCycles    float64 // cycles spent restoring after failures
	Checkpoints      int     // completed (committed) checkpoints
	TornCheckpoints  int     // checkpoints destroyed mid-write by a failure
	FailedWrites     int     // commit marks torn by injected NVM faults
	CorruptRestores  int     // restores that read a bit-rotted image
	Failures         int     // power failures experienced
	Completed        bool    // the task's final state was committed
	CompletedAt      float64 // simulation time of the final commit (s)
}

// Executor runs a Task across power failures. It implements
// circuit.Controller: configure a DVFS point and a checkpoint policy,
// then hand it to the transient simulator. The simulation's
// JobCycles must be left at zero — completion is defined by the final
// checkpoint commit, which the executor signals by stopping the run.
type Executor struct {
	// Task is the job to run. Required.
	Task Task
	// Policy decides when to checkpoint. Required.
	Policy Policy
	// Supply is the regulated supply (V) the task runs at, clocked at the
	// maximum frequency there; a regulator in dropout delivers the top of
	// its range, and the simulator caps the clock at that supply's maximum.
	Supply float64

	// Faults, when non-nil, injects NVM failures (torn commit marks,
	// restore-time bit-rot). Nil disables injection.
	Faults Faults

	// Stats accumulates the execution accounting.
	Stats Stats

	mode          mode
	phaseCycles   float64 // cycles consumed in the current restore/checkpoint
	phaseNeeded   float64 // cycles the current restore/checkpoint requires
	lastCycles    float64 // s.CyclesDone() at the previous step
	wasHalted     bool
	finalCommit   bool // the in-flight checkpoint is the task's last
	everCommitted bool
	commitPending bool    // write done; the mark latches next live step
	pendingLeft   float64 // cycles banked while the commit mark settles
	prevCommitted float64 // committed work in the older buffered image
	restores      int     // restore attempts, indexing Faults.CorruptRestore

	supplyMemo cpu.SupplyMemo // the CPU model at Supply, which never changes
}

var _ circuit.Controller = (*Executor)(nil)

// Init implements circuit.Controller.
func (e *Executor) Init(s *circuit.State) {
	// A fresh boot has nothing to restore.
	e.mode = modeWorking
	e.lastCycles = s.CyclesDone()
	s.SetProfilePhase(e.mode.profileBin())
	if s.Tracing() {
		s.TraceInstant("intermittent.mode", trace.Args{
			"mode": e.mode.String(), "policy": e.Policy.Name(),
			"task_cycles": e.Task.TotalCycles, "state_bytes": float64(e.Task.StateBytes),
		})
	}
	s.SetBypass(false)
	e.command(s)
}

// setMode transitions the state machine, emitting the mode event that
// feeds the time-in-mode table when tracing is on.
func (e *Executor) setMode(s *circuit.State, m mode) {
	if e.mode == m {
		return
	}
	e.mode = m
	s.SetProfilePhase(m.profileBin())
	if s.Tracing() {
		s.TraceInstant("intermittent.mode", trace.Args{
			"mode": m.String(), "committed": e.Stats.Committed, "volatile": e.Stats.Volatile,
		})
	}
}

// command applies the configured DVFS point, handling dropout.
func (e *Executor) command(s *circuit.State) {
	if e.mode == modeHibernating {
		s.SetFrequency(0) // clock-gate and wait for the supply to recover
		return
	}
	supply := e.Supply
	if _, hi := s.Regulator().OutputRange(s.CapVoltage()); supply > hi {
		supply = hi
	}
	s.SetSupply(supply)
	s.SetFrequency(e.supplyMemo.MaxFrequency(s.Processor(), e.Supply))
}

// OnStep implements circuit.Controller: attribute the cycles executed since
// the last step to the current mode, run the state machine, and watch for
// power failures.
func (e *Executor) OnStep(s *circuit.State) {
	executed := s.CyclesDone() - e.lastCycles
	e.lastCycles = s.CyclesDone()

	halted := s.Halted()
	if halted && !e.wasHalted {
		e.powerFailure(s)
	}
	e.wasHalted = halted

	if !halted && e.commitPending {
		// The supply survived the step that wrote the commit mark: latch
		// the commit, then release the banked cycles to whatever mode the
		// commit leaves the executor in.
		e.applyCommit(s)
		if e.Stats.Completed {
			e.pendingLeft = 0
			executed = 0 // the final commit stopped the run; nothing left to attribute
		} else {
			executed += e.pendingLeft
			e.pendingLeft = 0
		}
	}
	if e.mode == modeHibernating {
		if h, ok := e.Policy.(Hibernator); !ok || !h.ShouldSleep(s.CapVoltage()) {
			e.setMode(s, modeWorking)
		}
	}
	if !halted && executed > 0 {
		e.consume(s, executed)
	}
	e.command(s)
}

// powerFailure destroys volatile state and schedules a restore.
func (e *Executor) powerFailure(s *circuit.State) {
	e.Stats.Failures++
	if s.Tracing() {
		s.TraceInstant("intermittent.failure", trace.Args{
			"lost_cycles": e.Stats.Volatile, "committed": e.Stats.Committed,
			"torn": e.mode == modeCheckpointing,
		})
	}
	e.Stats.Lost += e.Stats.Volatile
	e.Stats.Volatile = 0
	if e.mode == modeCheckpointing {
		// Double buffering: the in-flight image is discarded, the previous
		// commit survives. A pending commit mark is torn too — the failure
		// landed on the very step that was writing it.
		e.Stats.TornCheckpoints++
		e.finalCommit = false
		e.commitPending = false
		e.pendingLeft = 0
	}
	e.phaseCycles = 0
	if e.everCommitted {
		e.phaseNeeded = restoreCycles(e.Task.StateBytes)
		e.setMode(s, modeRestoring)
	} else {
		// Nothing in NVM yet: reboot straight into work from zero.
		e.phaseNeeded = 0
		e.setMode(s, modeWorking)
	}
}

// consume attributes executed cycles to the state machine.
func (e *Executor) consume(s *circuit.State, executed float64) {
	for executed > 0 {
		switch e.mode {
		case modeRestoring:
			used := minF(executed, e.phaseNeeded-e.phaseCycles)
			e.phaseCycles += used
			e.Stats.RestoreCycles += used
			executed -= used
			if e.phaseCycles >= e.phaseNeeded {
				e.restores++
				if e.Faults != nil && e.Faults.CorruptRestore(e.restores-1) {
					e.corruptRestore(s)
					continue
				}
				e.setMode(s, modeWorking)
			}

		case modeWorking:
			remaining := e.Task.TotalCycles - e.Stats.Committed - e.Stats.Volatile
			used := minF(executed, remaining)
			e.Stats.Volatile += used
			executed -= used
			workDone := e.Stats.Committed+e.Stats.Volatile >= e.Task.TotalCycles
			if workDone || e.Policy.ShouldCheckpoint(e.Stats.Volatile, s.CapVoltage()) {
				e.setMode(s, modeCheckpointing)
				e.phaseCycles = 0
				e.phaseNeeded = checkpointCycles(e.Task.StateBytes)
				e.finalCommit = workDone
			} else if used == 0 && executed > 0 {
				// Work exhausted without a pending final commit: should not
				// happen, but avoid spinning.
				executed = 0
			}

		case modeCheckpointing:
			used := minF(executed, e.phaseNeeded-e.phaseCycles)
			e.phaseCycles += used
			e.Stats.CheckpointCycles += used
			executed -= used
			if e.phaseCycles >= e.phaseNeeded {
				// The image is written, but the commit mark only latches if
				// the supply survives the step that wrote it. A mid-step
				// collapse is discovered one step late (the simulator reports
				// the halt at the next step), so committing here would
				// resurrect work the failure destroyed: defer the commit to
				// the next live step and bank the rest of this one's cycles
				// until the mark settles.
				e.commitPending = true
				e.pendingLeft += executed
				executed = 0
			}

		case modeHibernating:
			// The clock gates at the next command; cycles that slip in here
			// (the tail of a mark step whose commit led straight into
			// hibernation) are idle spin, not work.
			executed = 0
		}
	}
}

// applyCommit latches a checkpoint whose commit mark survived a full
// simulation step. Injected NVM faults can still tear the mark here: the
// cycles are spent but the image is discarded, the previous commit
// survives (double buffering), and the volatile work stays in RAM for a
// retry.
func (e *Executor) applyCommit(s *circuit.State) {
	e.commitPending = false
	if e.Faults != nil && e.Faults.TornWrite(e.Stats.Checkpoints+e.Stats.FailedWrites) {
		e.Stats.FailedWrites++
		e.finalCommit = false
		if s.Tracing() {
			s.TraceInstant("fault.nvm-torn", trace.Args{
				"committed": e.Stats.Committed, "volatile": e.Stats.Volatile,
				"n": float64(e.Stats.FailedWrites),
			})
		}
		e.setMode(s, modeWorking)
		return
	}
	e.prevCommitted = e.Stats.Committed
	e.Stats.Committed += e.Stats.Volatile
	e.Stats.Volatile = 0
	e.Stats.Checkpoints++
	e.everCommitted = true
	if s.Tracing() {
		s.TraceInstant("intermittent.checkpoint", trace.Args{
			"committed": e.Stats.Committed, "cost_cycles": e.phaseNeeded,
			"final": e.finalCommit, "n": float64(e.Stats.Checkpoints),
		})
	}
	e.setMode(s, modeWorking)
	if e.finalCommit {
		e.Stats.Completed = true
		e.Stats.CompletedAt = s.Time()
		if s.Tracing() {
			s.TraceInstant("intermittent.complete", trace.Args{
				"committed": e.Stats.Committed, "failures": float64(e.Stats.Failures),
			})
		}
		s.Stop("task committed")
		return
	}
	// A just-in-time checkpoint means the supply is dying: hibernate until
	// it recovers rather than burning the last charge on work that the next
	// failure will destroy.
	if h, ok := e.Policy.(Hibernator); ok && h.ShouldSleep(s.CapVoltage()) {
		e.setMode(s, modeHibernating)
	}
}

// corruptRestore handles a restore that read a bit-rotted image: the
// newest checkpoint fails its integrity check, so the executor falls back
// to the older buffered image (losing the work between the two commits)
// and re-reads. When the older image is the initial empty one, the task
// restarts cleanly from zero — corruption never yields torn state.
func (e *Executor) corruptRestore(s *circuit.State) {
	e.Stats.CorruptRestores++
	if lost := e.Stats.Committed - e.prevCommitted; lost > 0 {
		e.Stats.Lost += lost
		e.Stats.Committed = e.prevCommitted
	}
	if s.Tracing() {
		s.TraceInstant("fault.nvm-bitrot", trace.Args{
			"committed": e.Stats.Committed, "n": float64(e.Stats.CorruptRestores),
		})
	}
	if e.Stats.Committed <= 0 {
		// Both buffers gone: reboot straight into work from zero.
		e.Stats.Committed = 0
		e.everCommitted = false
		e.phaseCycles = 0
		e.phaseNeeded = 0
		e.setMode(s, modeWorking)
		return
	}
	// Re-read the fallback image.
	e.phaseCycles = 0
}

// OnThreshold implements circuit.Controller.
func (e *Executor) OnThreshold(*circuit.State, circuit.ThresholdEvent) {}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
