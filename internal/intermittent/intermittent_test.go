package intermittent

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

// blink produces k seconds of light followed by k seconds of darkness,
// repeating — the canonical intermittent-power profile.
func blink(period float64) func(float64) float64 {
	return func(t float64) float64 {
		if math.Mod(t, 2*period) < period {
			return 1.0
		}
		return 0
	}
}

// runExecutor wires an executor into the transient simulator.
func runExecutor(t testing.TB, e *Executor, irr func(float64) float64, maxTime float64) *circuit.Outcome {
	t.Helper()
	return runExecutorTraced(t, e, irr, maxTime, nil)
}

// runExecutorTraced is runExecutor with the simulator's events sent to tr.
func runExecutorTraced(t testing.TB, e *Executor, irr func(float64) float64, maxTime float64, tr trace.Tracer) *circuit.Outcome {
	t.Helper()
	storage, err := cap.New(47e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := circuit.New(circuit.Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: irr,
		Controller: e,
		Step:       2e-6,
		MaxTime:    maxTime,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNVMCosts(t *testing.T) {
	if got := checkpointCycles(1000); got != 500+4000 {
		t.Errorf("checkpoint cycles = %g", got)
	}
	if got := restoreCycles(1000); got != 500+2000 {
		t.Errorf("restore cycles = %g", got)
	}
}

func TestPolicies(t *testing.T) {
	p := PeriodicPolicy{Interval: 1000}
	if p.ShouldCheckpoint(999, 1.0) || !p.ShouldCheckpoint(1000, 1.0) {
		t.Error("periodic policy wrong")
	}
	v := VoltageTriggeredPolicy{Threshold: 0.6, MinUncommitted: 100}
	if v.ShouldCheckpoint(1000, 0.7) {
		t.Error("voltage policy fired above threshold")
	}
	if !v.ShouldCheckpoint(1000, 0.5) {
		t.Error("voltage policy did not fire below threshold")
	}
	if v.ShouldCheckpoint(50, 0.5) {
		t.Error("voltage policy fired with nothing to save")
	}
	if (NeverPolicy{}).ShouldCheckpoint(1e12, 0) {
		t.Error("never policy fired")
	}
	for _, pol := range []Policy{p, v, NeverPolicy{}} {
		if pol.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestStableLightCompletesWithExpectedOverhead(t *testing.T) {
	task := Task{TotalCycles: 2e6, StateBytes: 2048}
	e := &Executor{
		Task:   task,
		Policy: PeriodicPolicy{Interval: 0.5e6},
		Supply: 0.55,
	}
	out := runExecutor(t, e, circuit.ConstantIrradiance(1.0), 100e-3)
	if !e.Stats.Completed {
		t.Fatalf("task did not complete: %+v", e.Stats)
	}
	if !out.Stopped || out.StopReason != "task committed" {
		t.Error("executor did not stop the run on completion")
	}
	if e.Stats.Failures != 0 || e.Stats.Lost != 0 {
		t.Errorf("unexpected failures under stable light: %+v", e.Stats)
	}
	// 2e6 work at 0.5e6 intervals: 4 checkpoints (the last doubles as the
	// final commit).
	if e.Stats.Checkpoints != 4 {
		t.Errorf("checkpoints = %d, want 4", e.Stats.Checkpoints)
	}
	wantOverhead := 4 * checkpointCycles(task.StateBytes)
	if math.Abs(e.Stats.CheckpointCycles-wantOverhead) > 1 {
		t.Errorf("checkpoint overhead %g, want %g", e.Stats.CheckpointCycles, wantOverhead)
	}
	if e.Stats.Committed < task.TotalCycles {
		t.Errorf("committed %g < task %g", e.Stats.Committed, task.TotalCycles)
	}
}

func TestSurvivesPowerFailures(t *testing.T) {
	// 3 ms light / 3 ms darkness on a small cap: repeated brownouts. The
	// periodic-checkpointed task must still finish.
	task := Task{TotalCycles: 6e6, StateBytes: 1024}
	e := &Executor{
		Task:   task,
		Policy: PeriodicPolicy{Interval: 0.4e6},
		Supply: 0.55,
	}
	runExecutor(t, e, blink(3e-3), 400e-3)
	if e.Stats.Failures == 0 {
		t.Fatal("scenario produced no power failures; test is vacuous")
	}
	if !e.Stats.Completed {
		t.Fatalf("task did not survive %d failures: committed %.3g of %.3g",
			e.Stats.Failures, e.Stats.Committed, task.TotalCycles)
	}
	if e.Stats.RestoreCycles == 0 {
		t.Error("no restore work despite failures")
	}
	if e.Stats.Committed < task.TotalCycles {
		t.Errorf("completed with committed %g < total %g", e.Stats.Committed, task.TotalCycles)
	}
}

func TestNeverPolicyCannotFinishLongTask(t *testing.T) {
	// The task needs more cycles than one light window provides, so without
	// checkpoints it restarts from zero forever (the Sisyphus effect).
	task := Task{TotalCycles: 6e6, StateBytes: 1024}
	e := &Executor{
		Task:   task,
		Policy: NeverPolicy{},
		Supply: 0.55,
	}
	runExecutor(t, e, blink(3e-3), 200e-3)
	if e.Stats.Completed {
		t.Fatal("uncheckpointed long task completed across power failures")
	}
	if e.Stats.Failures == 0 {
		t.Fatal("no failures; test is vacuous")
	}
	if e.Stats.Lost == 0 {
		t.Error("no work lost despite failures")
	}
	if e.Stats.Committed != 0 {
		t.Errorf("never-policy committed %g cycles", e.Stats.Committed)
	}
}

func TestVoltageTriggeredBeatsPeriodicOnOverhead(t *testing.T) {
	// Under the same intermittent supply, the just-in-time policy writes
	// far fewer checkpoints than a tight periodic policy.
	// A modest operating point that full light sustains indefinitely, so
	// the voltage trigger only fires when the light actually goes out.
	mk := func(p Policy) *Executor {
		return &Executor{
			Task:   Task{TotalCycles: 4e6, StateBytes: 4096},
			Policy: p,
			Supply: 0.45,
		}
	}
	periodic := mk(PeriodicPolicy{Interval: 0.2e6})
	runExecutor(t, periodic, blink(4e-3), 600e-3)
	jit := mk(VoltageTriggeredPolicy{Threshold: 0.70, MinUncommitted: 1e4})
	runExecutor(t, jit, blink(4e-3), 600e-3)

	if !periodic.Stats.Completed || !jit.Stats.Completed {
		t.Fatalf("both should complete: periodic=%v jit=%v", periodic.Stats.Completed, jit.Stats.Completed)
	}
	if jit.Stats.CheckpointCycles >= periodic.Stats.CheckpointCycles {
		t.Errorf("JIT overhead %g >= periodic %g", jit.Stats.CheckpointCycles, periodic.Stats.CheckpointCycles)
	}
	if jit.Stats.Checkpoints >= periodic.Stats.Checkpoints {
		t.Errorf("JIT wrote %d checkpoints, periodic %d; JIT should write fewer",
			jit.Stats.Checkpoints, periodic.Stats.Checkpoints)
	}
}

func TestTornCheckpointAtomicity(t *testing.T) {
	// A huge state makes checkpoints slow enough to be interrupted; the
	// committed count must only ever reflect fully committed checkpoints.
	task := Task{TotalCycles: 5e6, StateBytes: 200_000} // 800k cycles/ckpt
	e := &Executor{
		Task:   task,
		Policy: PeriodicPolicy{Interval: 0.3e6},
		Supply: 0.55,
	}
	rec := trace.NewRecorder()
	runExecutorTraced(t, e, blink(5e-3), 500e-3, rec)
	if e.Stats.TornCheckpoints == 0 {
		t.Fatalf("no checkpoint was interrupted (%d failures): the scenario no longer exercises torn images", e.Stats.Failures)
	}
	// Committed work moves only at a checkpoint: it ends at the last
	// checkpoint's value, and never rises between a torn failure and the
	// next checkpoint — a torn image's volatile work is lost, not kept.
	lastCheckpoint := 0.0
	torn, tornAt := false, 0.0
	for _, ev := range rec.Events() {
		committed, ok := ev.Args["committed"].(float64)
		if !ok {
			continue
		}
		if ev.Kind == "intermittent.checkpoint" {
			lastCheckpoint, torn = committed, false
			continue
		}
		if torn && committed > tornAt {
			t.Fatalf("%s at t=%g: committed %g rose from %g after a torn checkpoint", ev.Kind, ev.Time, committed, tornAt)
		}
		if ev.Kind == "intermittent.failure" && ev.Args["torn"] == true && !torn {
			torn, tornAt = true, committed
		}
	}
	if e.Stats.Committed != lastCheckpoint {
		t.Errorf("final committed %g, want the last checkpoint's %g", e.Stats.Committed, lastCheckpoint)
	}
	if e.Stats.Committed < 0 || e.Stats.Committed > task.TotalCycles {
		t.Errorf("committed %g outside [0, %g]", e.Stats.Committed, task.TotalCycles)
	}
}

// Property: across random blink periods, accounting is always consistent:
// committed+volatile <= total work; lost/overhead non-negative; committed
// monotone implies committed <= total.
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(periodRaw uint8, intervalRaw uint8) bool {
		period := 1e-3 + float64(periodRaw)/255*6e-3
		interval := 1e5 + float64(intervalRaw)/255*9e5
		task := Task{TotalCycles: 3e6, StateBytes: 512}
		e := &Executor{
			Task:   task,
			Policy: PeriodicPolicy{Interval: interval},
			Supply: 0.55,
		}
		storage, err := cap.New(47e-6, 1.0, 2.0)
		if err != nil {
			return false
		}
		sim, err := circuit.New(circuit.Config{
			Cell:       pv.NewCell(),
			Proc:       cpu.NewProcessor(),
			Reg:        reg.NewSC(),
			Cap:        storage,
			Irradiance: blink(period),
			Controller: e,
			Step:       5e-6,
			MaxTime:    120e-3,
		})
		if err != nil {
			return false
		}
		if _, err := sim.Run(); err != nil {
			return false
		}
		s := e.Stats
		switch {
		case s.Committed < 0 || s.Volatile < 0 || s.Lost < 0:
			return false
		case s.Committed+s.Volatile > task.TotalCycles+1:
			return false
		case s.Completed && s.Committed < task.TotalCycles:
			return false
		case s.CheckpointCycles < 0 || s.RestoreCycles < 0:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntermittentExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := &Executor{
			Task:   Task{TotalCycles: 2e6, StateBytes: 1024},
			Policy: PeriodicPolicy{Interval: 0.5e6},
			Supply: 0.55,
		}
		runExecutor(b, e, blink(3e-3), 100e-3)
	}
}
