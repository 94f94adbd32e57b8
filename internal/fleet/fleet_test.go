package fleet

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pv"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpec is small enough to run in milliseconds while still producing a
// mixed population (completions, brownouts, stragglers).
const testSpec = "n=24,seed=11,horizon=0.02,epoch=1e-3,step=2e-5"

// renderFleet runs the spec with the given worker count and returns the
// report bytes.
func renderFleet(t *testing.T, specText string, workers int) []byte {
	t.Helper()
	spec, err := ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Workers = workers
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetWorkerParity is the fleet half of the repo's signature
// invariant: report bytes must not depend on the worker count, nor on the
// contiguous lane windows it cuts the 24 nodes into — from one window of
// 24 (workers=1) through windows of 12, 8, 5 and 3 to 24 single lanes.
func TestFleetWorkerParity(t *testing.T) {
	ref := renderFleet(t, testSpec, 1)
	for _, workers := range []int{2, 3, 5, 8, 24} {
		if got := renderFleet(t, testSpec, workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\n-- vs --\n%s", workers, got, ref)
		}
	}
}

// TestFleetRunParity: two same-seed runs are byte-identical; a different
// seed changes the bytes (the streams are actually seeded).
func TestFleetRunParity(t *testing.T) {
	a := renderFleet(t, testSpec, 4)
	b := renderFleet(t, testSpec, 4)
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs differ")
	}
	other := renderFleet(t, "n=24,seed=12,horizon=0.02,epoch=1e-3,step=2e-5", 4)
	if bytes.Equal(a, other) {
		t.Error("different seeds produced identical reports")
	}
}

// TestFleetMixedPopulation guards the engine against a degenerate default
// population (everything completing, or nothing): the diversity knobs must
// keep producing a mix, or the histograms mean nothing.
func TestFleetMixedPopulation(t *testing.T) {
	rep, err := Run(Config{Nodes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.Completed == 64 {
		t.Errorf("degenerate completion count %d/64", rep.Completed)
	}
	if rep.BrownedOut == 0 {
		t.Error("no node ever browned out; population too comfortable")
	}
	if rep.EnergyHarvested <= 0 || rep.EnergyAux <= 0 {
		t.Errorf("non-positive energy totals: harvest %g, aux %g", rep.EnergyHarvested, rep.EnergyAux)
	}
	var histTotal int
	for _, c := range rep.Hist.Counts {
		histTotal += c
	}
	if histTotal != rep.Completed {
		t.Errorf("histogram holds %d completions, report says %d", histTotal, rep.Completed)
	}
	if rep.Completed+rep.Unfinished != 64 {
		t.Errorf("completed %d + unfinished %d != 64", rep.Completed, rep.Unfinished)
	}
}

// TestFleetTraceDeterminism checks the fleet.* trace stream: valid events,
// the expected kinds, and byte-level independence from the worker count.
func TestFleetTraceDeterminism(t *testing.T) {
	record := func(workers int) []trace.Event {
		spec, err := ParseSpec(testSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Config()
		cfg.Workers = workers
		rec := trace.NewRecorder()
		cfg.Tracer = rec
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	ref := record(1)
	if err := trace.ValidateAll(ref); err != nil {
		t.Fatal(err)
	}
	kinds := trace.Kinds(ref)
	if want := []string{"fleet.epoch", "fleet.run"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("trace kinds = %v, want %v", kinds, want)
	}
	if got := record(8); !reflect.DeepEqual(got, ref) {
		t.Error("trace events differ between workers=1 and workers=8")
	}
}

// TestGoldenFleetReport pins a small-N fleet report byte-for-byte.
// Regenerate with: go test ./internal/fleet/ -run Golden -update
func TestGoldenFleetReport(t *testing.T) {
	got := renderFleet(t, "n=16,seed=5,horizon=0.02,epoch=2e-3,step=2e-5", 2)
	path := filepath.Join("testdata", "golden_fleet.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFleetCancellation: a cancelled context stops the run at an epoch
// barrier with the context's error instead of simulating to the horizon —
// the property that lets a server free its gate slot when the client hangs
// up.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{Nodes: 4, Seed: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestFleetBuildBytesPerNode pins what building a node allocates. A
// cancelled run returns once the population is built, and 2,000 lit nodes
// may allocate at most 1,300 B in 8 allocations each; they measure 1,220 B
// in 8.0 with or without the race detector, since the build no longer goes
// through fmt and its sync.Pool. A node's sky streams from a lazily seeded
// source in about 250 B, so a per-node sample slice (257 samples, 2,336 B
// with its header) cannot come back unnoticed, and neither can fmt-built
// stream labels and seeds (1,848 B), a per-lane alias of the light
// source's At, a Simulator that carries a copy of the cell's parameters
// again (1,759 B), per-node cell, processor and SC models, or an n-long
// slice of configs beside the lane slab (1,733 B in 12.0 allocations).
func TestFleetBuildBytesPerNode(t *testing.T) {
	const nodes, bound, allocBound = 2000, 1300, 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(Config{Nodes: nodes, Seed: 1, Workers: 2, Ctx: ctx})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	allocs := float64(after.Mallocs-before.Mallocs) / nodes
	t.Logf("build: %.0f B and %.2f allocations per node", per, allocs)
	// The run's own few dozen allocations add about 0.02 per node.
	if per > bound || int(allocs) > allocBound {
		t.Errorf("building a node allocates %.0f B in %.2f allocations, bound %d B in %d",
			per, allocs, bound, allocBound)
	}
}

// TestFleetLanesShareModels: every node models the same chip, so every
// lane of a run holds the run's one cell, processor and SC converter, and
// a second run builds its own (no package-level models).
func TestFleetLanesShareModels(t *testing.T) {
	var first *pv.Cell
	for k := 0; k < 2; k++ {
		_, lanes, err := schedule(Config{Nodes: 16, Seed: 1, Workers: 2}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		cell, proc, sc := lanes[0].Models()
		for id, sim := range lanes {
			if c, p, r := sim.Models(); c != cell || p != proc || r != sc {
				t.Fatalf("run %d: node %d holds models %p %p %p, node 0 %p %p %p", k, id, c, p, r, cell, proc, sc)
			}
		}
		if cell == first {
			t.Fatal("two runs share a cell")
		}
		first = cell
	}
}

// TestNodeStreamMatchesFmt: a node's stream label has the bytes of
// fmt.Sprintf("node/%07d", id), so every node keeps its seeds.
func TestNodeStreamMatchesFmt(t *testing.T) {
	ids := []int{math.MaxInt}
	for id := 0; id < 20000; id++ {
		ids = append(ids, id)
	}
	for p := 100; p <= math.MaxInt/10; p *= 10 {
		ids = append(ids, p-1, p, p+1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ids = append(ids, rng.Intn(math.MaxInt))
	}
	for _, id := range ids {
		if got, want := nodeStream(id), fmt.Sprintf("node/%07d", id); got != want {
			t.Fatalf("nodeStream(%d) = %q, want %q", id, got, want)
		}
	}
}

// countingCtx fires context.Canceled after a fixed number of Err checks.
// With Workers=1 the stepping is single-threaded, so the cancellation lands
// deterministically inside an epoch's lane loop — mid-batch, between two
// lanes, not at the epoch barrier.
type countingCtx struct {
	context.Context
	remaining int
}

func (c *countingCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestFleetMidBatchCancellation: a context that fires between two lanes of
// a batch still aborts the run with the context's error. The barrier check
// consumes one Err call and each lane one more, so a budget of 5 on the
// one 16-lane window of a single worker cancels after lane 4 — squarely
// mid-batch. (That an interrupted batch leaves every lane's warm state
// valid and resumable is pinned bit-exactly by
// circuit.TestBatchCancelResumeParity.)
func TestFleetMidBatchCancellation(t *testing.T) {
	ctx := &countingCtx{Context: context.Background(), remaining: 5}
	_, err := Run(Config{Nodes: 16, Seed: 1, Workers: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-batch cancelled run returned %v, want context.Canceled", err)
	}
}

// TestParseSpec covers the accepted forms and the rejects.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil || spec.N != DefaultNodes {
		t.Errorf("empty spec: %+v, %v", spec, err)
	}
	spec, err = ParseSpec("1000")
	if err != nil || spec.N != 1000 {
		t.Errorf("bare int: %+v, %v", spec, err)
	}
	spec, err = ParseSpec(" n=50, seed=9 ,horizon=0.5")
	if err != nil || spec.N != 50 || spec.Seed != 9 || spec.Horizon != 0.5 || spec.Epoch != DefaultEpoch {
		t.Errorf("keyed spec: %+v, %v", spec, err)
	}
	// Round trip: String -> ParseSpec is the identity.
	back, err := ParseSpec(spec.String())
	if err != nil || back != spec {
		t.Errorf("round trip: %+v != %+v (%v)", back, spec, err)
	}
	for _, bad := range []string{
		"n=0", "n=-3", "bogus=1", "n", "horizon=0", "n=x",
		// NaN/Inf regression: `NaN <= 0` is false in Go, so these used to
		// validate and produce NaN-geometry runs and "horizon=NaN" cache
		// keys (also reachable via the hemserved /api/v1/fleet/{spec} path).
		"horizon=NaN", "epoch=nan", "step=NaN",
		"horizon=Inf", "epoch=+Inf", "step=Infinity", "horizon=-Inf",
		"n=3,step=1,horizon=0.05", // a step longer than the horizon
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
