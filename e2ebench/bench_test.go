package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/fleet"
)

// The decorators must stay substitutable for what they wrap, including
// the optional capabilities fast-forward probes for.
var (
	_ circuit.EventSource            = (*recSource)(nil)
	_ circuit.Storage                = (*recStorage)(nil)
	_ interface{ Leakage() float64 } = (*recStorage)(nil)
	_ circuit.Controller             = (*recController)(nil)
	_ circuit.Quiescent              = (*recController)(nil)
	_ circuit.EventSource            = scaledSource{}
)

func TestRequestMixIsSeeded(t *testing.T) {
	a, err := requestMix(1, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := requestMix(1, 0, 100)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two different mixes")
	}
	other, _ := requestMix(2, 0, 100)
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 gave the same mix")
	}
	next, _ := requestMix(1, 1, 100)
	counts := map[int]int{}
	cold := map[int64]bool{}
	for _, r := range append(a, next...) {
		counts[r.class]++
		if r.class == reqFleet || r.class == reqScenario {
			if cold[r.seed] {
				t.Errorf("cold seed %d repeats", r.seed)
			}
			cold[r.seed] = true
		}
	}
	if want := map[int]int{reqExperiment: 150, reqPV: 20, reqFleet: 20, reqScenario: 10}; !reflect.DeepEqual(counts, want) {
		t.Errorf("two passes hold %v, want %v", counts, want)
	}
}

func TestDecoratedStorageForwardsLeakage(t *testing.T) {
	c, err := cap.New(1e-4, 1, 2, cap.WithLeakage(5e6))
	if err != nil {
		t.Fatal(err)
	}
	var s circuit.Storage = &recStorage{Capacitor: c}
	if lf, ok := s.(interface{ Leakage() float64 }); !ok || lf.Leakage() != 5e6 {
		t.Error("the storage decorator hides Leakage from fast-forward")
	}
}

// run performs the fidelity check, the recording-pass identity and the
// replay; any mismatch is an error.
func TestReplicaRecordingMatchesPlainPass(t *testing.T) {
	lit, err := fleet.ParseSpec("n=8,seed=3,horizon=0.01")
	if err != nil {
		t.Fatal(err)
	}
	dark, err := fleet.ParseSpec("n=8,seed=3,horizon=1,epoch=0.1,step=2e-4,dark=0.9")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenarioSpec(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	scnReplica, err := scenarioReplica("scenario", scn, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*replica{fleetReplica("lit", lit, 8), fleetReplica("dark", dark, 8), scnReplica} {
		rep, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if rep.executed == 0 || rep.layers["pv"].calls != rep.executed || rep.onStep != rep.executed {
			t.Errorf("%s: %d steps, %d PV calls, %d controller steps", r.name, rep.executed, rep.layers["pv"].calls, rep.onStep)
		}
		if r.name != "lit" && rep.skipped == 0 {
			t.Errorf("%s: nothing fast-forwarded", r.name)
		}
	}
}

func TestReplicaFidelityCatchesDrift(t *testing.T) {
	spec, err := fleet.ParseSpec("n=4,seed=3,horizon=0.01")
	if err != nil {
		t.Fatal(err)
	}
	r := fleetReplica("drift", spec, 4)
	build := r.build
	r.build = func() ([]circuit.Config, error) {
		cfgs, err := build()
		if err == nil {
			cfgs[0].Step *= 1.5
		}
		return cfgs, err
	}
	if _, err := r.run(); err == nil {
		t.Error("a replica that differs from the engine passed the fidelity check")
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program measures.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		f := b.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != better(m.higher) || f.Bound != m.bound {
			t.Errorf("end-to-end metric %d: file %+v, program %+v", i, f, m)
		}
	}
	for i, m := range perLayer {
		f := b.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != better(m.higher) {
			t.Errorf("per-layer metric %d: file %+v, program %+v", i, f, m)
		}
	}
}

// toySizes shrinks every workload to run in seconds.
var toySizes = sizes{
	fleetLit: 16, fleetDark: 16, scenarioNodes: 8,
	litReplica: 8, darkReplica: 8, scenarioReplica: 8,
	passRequests: 50, setups: 1,
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hemsim and hemserved")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			rc, err := newRunCtx(root, build, 5, 1, &out, toySizes)
			if err != nil {
				t.Fatal(err)
			}
			run, specs := w.e2e, endToEnd
			if traced {
				run, specs = w.traced, perLayer
			}
			err = run(rc)
			rc.close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res, err := rc.result(specs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !res.Correct || len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d/%d checks failed, %d metrics", w.name, traced, res.Failed, res.Attempted, len(res.Metrics))
			}
		}
	}
}
