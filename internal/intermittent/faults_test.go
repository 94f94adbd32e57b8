package intermittent

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

// scriptedFaults tears exactly the listed commits and corrupts exactly the
// listed restores.
type scriptedFaults struct {
	torn    map[int]bool
	corrupt map[int]bool
}

func (f scriptedFaults) TornWrite(commit int) bool       { return f.torn[commit] }
func (f scriptedFaults) CorruptRestore(restore int) bool { return f.corrupt[restore] }

// stateGrabber exposes the simulator's state handle so white-box tests can
// drive executor transitions at exact boundaries the physics only hits by
// coincidence.
type stateGrabber struct {
	*Executor
	s *circuit.State
}

func (g *stateGrabber) Init(s *circuit.State) {
	g.s = s
	g.Executor.Init(s)
}

// liveState runs a short stable-light simulation and returns its state
// handle, still live (not halted) at the end of the run.
func liveState(t *testing.T, e *Executor) *circuit.State {
	t.Helper()
	g := &stateGrabber{Executor: e}
	storage, err := cap.New(47e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := circuit.New(circuit.Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(1.0),
		Controller: g,
		Step:       2e-6,
		MaxTime:    40e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if g.s == nil || g.s.Halted() {
		t.Fatal("no live state handle")
	}
	return g.s
}

// TestFailureOnCommitMarkDoesNotCommit is the commit-mark boundary test: a
// power failure landing on the very cycle that writes the commit mark must
// tear the checkpoint, not advance the committed buffer. The simulator
// reports a mid-step supply collapse one step late, so an executor that
// commits in the same step that finishes the write resurrects work the
// failure destroyed.
func TestFailureOnCommitMarkDoesNotCommit(t *testing.T) {
	e := &Executor{
		Task:   Task{TotalCycles: 1e6, StateBytes: 256},
		Policy: PeriodicPolicy{Interval: 1e5},
		Supply: 0.55,
	}
	s := liveState(t, e)

	// First checkpoint's mark just finished writing; nothing committed yet.
	e.Stats = Stats{Volatile: 1.2e5}
	e.mode = modeCheckpointing
	e.everCommitted = false
	e.commitPending = true
	e.pendingLeft = 321

	e.powerFailure(s)

	if e.Stats.Committed != 0 {
		t.Fatalf("failure on the commit mark advanced the committed buffer to %g", e.Stats.Committed)
	}
	if e.commitPending || e.pendingLeft != 0 {
		t.Error("pending commit survived the failure")
	}
	if e.Stats.TornCheckpoints != 1 {
		t.Errorf("TornCheckpoints = %d, want 1", e.Stats.TornCheckpoints)
	}
	if e.Stats.Volatile != 0 || e.Stats.Lost != 1.2e5 {
		t.Errorf("volatile work not destroyed: %+v", e.Stats)
	}
	if e.mode != modeWorking {
		t.Errorf("nothing ever committed, want clean reboot into working, got %v", e.mode)
	}
}

// TestFailureOnCommitMarkKeepsPreviousCommit: same boundary, but with an
// earlier commit in the other buffer — the failure must fall back to it.
func TestFailureOnCommitMarkKeepsPreviousCommit(t *testing.T) {
	e := &Executor{
		Task:   Task{TotalCycles: 1e6, StateBytes: 256},
		Policy: PeriodicPolicy{Interval: 1e5},
		Supply: 0.55,
	}
	s := liveState(t, e)

	e.Stats = Stats{Committed: 2e5, Volatile: 1e5, Checkpoints: 2}
	e.prevCommitted = 1e5
	e.everCommitted = true
	e.mode = modeCheckpointing
	e.commitPending = true

	e.powerFailure(s)

	if e.Stats.Committed != 2e5 {
		t.Fatalf("committed buffer moved across a torn mark: %g", e.Stats.Committed)
	}
	if e.mode != modeRestoring {
		t.Errorf("want restore of the surviving commit, got %v", e.mode)
	}
}

// TestCommitLatchesOnLiveStep is the positive half of the boundary: when
// the supply survives the mark step, the next OnStep latches the commit.
func TestCommitLatchesOnLiveStep(t *testing.T) {
	e := &Executor{
		Task:   Task{TotalCycles: 1e6, StateBytes: 256},
		Policy: PeriodicPolicy{Interval: 1e5},
		Supply: 0.55,
	}
	s := liveState(t, e)

	e.Stats = Stats{Volatile: 1.1e5}
	e.mode = modeCheckpointing
	e.commitPending = true
	e.lastCycles = s.CyclesDone()
	e.wasHalted = false

	e.OnStep(s)

	if e.Stats.Checkpoints != 1 || e.Stats.Committed != 1.1e5 || e.Stats.Volatile != 0 {
		t.Fatalf("pending commit did not latch on a live step: %+v", e.Stats)
	}
	if e.commitPending {
		t.Error("commitPending stuck after latch")
	}
	if !e.everCommitted {
		t.Error("everCommitted not set")
	}
}

func TestTornWriteFaultRetries(t *testing.T) {
	// Stable light; the injected fault tears the first commit mark. The
	// volatile work stays in RAM, the policy refires, and the task still
	// completes — with one extra write's worth of overhead.
	task := Task{TotalCycles: 2e6, StateBytes: 2048}
	e := &Executor{
		Task:   task,
		Policy: PeriodicPolicy{Interval: 0.5e6},
		Supply: 0.55,
		Faults: scriptedFaults{torn: map[int]bool{0: true}},
	}
	runExecutor(t, e, circuit.ConstantIrradiance(1.0), 100e-3)
	if !e.Stats.Completed {
		t.Fatalf("task did not complete: %+v", e.Stats)
	}
	if e.Stats.FailedWrites != 1 {
		t.Fatalf("FailedWrites = %d, want 1", e.Stats.FailedWrites)
	}
	if e.Stats.Checkpoints != 4 {
		t.Errorf("checkpoints = %d, want 4 (torn write retried)", e.Stats.Checkpoints)
	}
	wantOverhead := 5 * checkpointCycles(task.StateBytes) // 4 commits + 1 torn
	if got := e.Stats.CheckpointCycles; got < wantOverhead-1 || got > wantOverhead+1 {
		t.Errorf("checkpoint overhead %g, want ~%g", got, wantOverhead)
	}
	if e.Stats.Lost != 0 {
		t.Errorf("torn write lost volatile work (%g cycles); it must stay in RAM", e.Stats.Lost)
	}
}

func TestCorruptRestoreFallsBack(t *testing.T) {
	e := &Executor{
		Task:   Task{TotalCycles: 1e6, StateBytes: 256},
		Policy: PeriodicPolicy{Interval: 1e5},
		Supply: 0.55,
	}
	s := liveState(t, e)

	// Two commits live in the double buffer; the newest is bit-rotted.
	e.Stats = Stats{Committed: 2e5, Checkpoints: 2}
	e.prevCommitted = 1e5
	e.everCommitted = true
	e.mode = modeRestoring
	e.phaseNeeded = 100
	e.phaseCycles = 100

	e.corruptRestore(s)

	if e.Stats.Committed != 1e5 {
		t.Fatalf("corrupt restore did not fall back: committed %g", e.Stats.Committed)
	}
	if e.Stats.Lost != 1e5 {
		t.Errorf("inter-commit delta not accounted as lost: %+v", e.Stats)
	}
	if e.Stats.CorruptRestores != 1 {
		t.Errorf("CorruptRestores = %d, want 1", e.Stats.CorruptRestores)
	}
	if e.mode != modeRestoring || e.phaseCycles != 0 {
		t.Errorf("fallback image not re-read: mode %v phase %g", e.mode, e.phaseCycles)
	}

	// A second corruption of the same (now oldest) image cannot lose more.
	e.phaseCycles = e.phaseNeeded
	e.corruptRestore(s)
	if e.Stats.Committed != 1e5 || e.Stats.Lost != 1e5 {
		t.Errorf("re-corruption moved committed state: %+v", e.Stats)
	}
}

func TestCorruptRestoreBothBuffersGone(t *testing.T) {
	e := &Executor{
		Task:   Task{TotalCycles: 1e6, StateBytes: 256},
		Policy: PeriodicPolicy{Interval: 1e5},
		Supply: 0.55,
	}
	s := liveState(t, e)

	// Only one commit exists; its image rots. The older buffer is the
	// initial empty one: restart cleanly from zero.
	e.Stats = Stats{Committed: 1e5, Checkpoints: 1}
	e.prevCommitted = 0
	e.everCommitted = true
	e.mode = modeRestoring

	e.corruptRestore(s)

	if e.Stats.Committed != 0 || e.Stats.Lost != 1e5 {
		t.Fatalf("want clean restart from zero: %+v", e.Stats)
	}
	if e.mode != modeWorking || e.everCommitted {
		t.Errorf("want reboot into working with empty NVM, got mode %v everCommitted %v",
			e.mode, e.everCommitted)
	}
}

func TestCorruptRestoreEndToEnd(t *testing.T) {
	// Blinking light forces real failures and restores; every restore reads
	// a corrupt newest image. The run must still make monotonic committed
	// progress via the fallback buffer and complete.
	task := Task{TotalCycles: 6e6, StateBytes: 1024}
	e := &Executor{
		Task:   task,
		Policy: PeriodicPolicy{Interval: 0.4e6},
		Supply: 0.55,
		Faults: scriptedFaults{corrupt: map[int]bool{0: true, 2: true}},
	}
	runExecutor(t, e, blink(3e-3), 400e-3)
	if e.Stats.Failures == 0 || e.Stats.CorruptRestores == 0 {
		t.Fatalf("scenario injected nothing: %+v", e.Stats)
	}
	if !e.Stats.Completed {
		t.Fatalf("task did not survive corrupt restores: %+v", e.Stats)
	}
	if e.Stats.Committed < task.TotalCycles {
		t.Errorf("committed %g < task %g", e.Stats.Committed, task.TotalCycles)
	}
}

// TestTornMarkBoundarySweep sweeps a darkness onset across the first
// checkpoint write so some run in the sweep lands the collapse exactly on
// the commit-mark step. Whatever the timing, torn bookkeeping must stay
// consistent: no commit, no committed work.
func TestTornMarkBoundarySweep(t *testing.T) {
	var sawTear bool
	for i := 0; i < 60; i++ {
		onset := 0.2e-3 + float64(i)*40e-6 // spans several checkpoint windows
		irr := func(t float64) float64 {
			if t < onset {
				return 1.0
			}
			return 0
		}
		e := &Executor{
			Task:   Task{TotalCycles: 6e6, StateBytes: 2048},
			Policy: PeriodicPolicy{Interval: 0.3e6},
			Supply: 0.55,
		}
		runExecutor(t, e, irr, 20e-3)
		if e.Stats.Checkpoints == 0 && e.Stats.Committed != 0 {
			t.Fatalf("onset %g: committed %g with zero completed checkpoints",
				onset, e.Stats.Committed)
		}
		if e.Stats.TornCheckpoints > 0 {
			sawTear = true
		}
	}
	if !sawTear {
		t.Error("sweep never tore a checkpoint; boundary not exercised")
	}
}
