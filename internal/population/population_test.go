package population

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

const testStep = 5e-6

// nodeConfig is node id's lane: constant light, a fixed supply, and a
// horizon of 10·(id+1) steps, so the nodes finish at different epochs.
func nodeConfig(id int) (circuit.Config, error) {
	storage, err := cap.New(100e-6, 1.2, 2.0)
	if err != nil {
		return circuit.Config{}, err
	}
	return circuit.Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(0.5),
		Controller: &circuit.FixedPoint{Supply: 0.5},
		Step:       testStep,
		MaxTime:    float64(10*(id+1)) * testStep,
	}, nil
}

// skewedConfig is node id's lane in a population whose lanes mostly
// retire in the first epoch: every node runs 4 steps except every 13th,
// which runs 20 to 60, so from the second epoch on 40 of 512 lanes stay
// live — fewer than one worker's share at up to eight workers, but still
// several chunks.
func skewedConfig(id int) (circuit.Config, error) {
	c, err := nodeConfig(id)
	steps := 4
	if id%13 == 3 {
		steps = 20 + id*7%41
	}
	c.MaxTime = float64(steps) * testStep
	return c, err
}

// epochLog is what a run's barriers saw: each epoch's active node IDs and
// their step counts, and every node's final progress.
type epochLog struct {
	ids, steps [][]int
	final      []circuit.Progress
}

func runLogged(t *testing.T, nodes, workers int, build func(int) (circuit.Config, error), targets []int) epochLog {
	t.Helper()
	var log epochLog
	var active [][]*circuit.Simulator
	lanes, err := Run(Config{
		Name: "test", Nodes: nodes, Workers: workers,
		Build:   build,
		Targets: targets,
		Barrier: func(epoch int, lanes []*circuit.Simulator) {
			if epoch != len(active)+1 {
				t.Errorf("barrier epoch %d, want %d", epoch, len(active)+1)
			}
			active = append(active, append([]*circuit.Simulator(nil), lanes...))
			var s []int
			for _, sim := range lanes {
				s = append(s, sim.Progress().Steps)
			}
			log.steps = append(log.steps, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := make(map[*circuit.Simulator]int, nodes)
	for i, sim := range lanes {
		id[sim] = i
		log.final = append(log.final, sim.Progress())
	}
	for _, epoch := range active {
		var ids []int
		for _, sim := range epoch {
			ids = append(ids, id[sim])
		}
		log.ids = append(log.ids, ids)
	}
	return log
}

// TestEpochsAndBarrier pins the schedule: listed epochs stop at their
// targets, the epoch past the list takes every lane to its own horizon,
// and the barrier sees the epoch's active lanes in node-ID order —
// finished ones included — before they are dropped, at every worker count
// up to one more worker than lanes. On the skewed population the live
// lanes fall below one worker's share after the first epoch, and every
// worker count must see the same barriers and end with the same lanes as
// one worker.
func TestEpochsAndBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		got := runLogged(t, 3, workers, nodeConfig, []int{5, 15})
		wantIDs := [][]int{{0, 1, 2}, {0, 1, 2}, {1, 2}}
		wantSteps := [][]int{{5, 5, 5}, {10, 15, 15}, {20, 30}}
		if !reflect.DeepEqual(got.ids, wantIDs) || !reflect.DeepEqual(got.steps, wantSteps) {
			t.Errorf("workers=%d: barriers saw nodes %v with steps %v, want %v with %v",
				workers, got.ids, got.steps, wantIDs, wantSteps)
		}
	}

	const nodes = 512
	targets := []int{4, 10, 22, 45}
	want := runLogged(t, nodes, 1, skewedConfig, targets)
	if len(want.ids) != 5 || len(want.ids[0]) != nodes || len(want.ids[1]) != 40 {
		t.Fatalf("skewed population: barriers saw %v, want all %d nodes then 40 live ones", want.ids, nodes)
	}
	for _, workers := range []int{2, 3, 8} {
		got := runLogged(t, nodes, workers, skewedConfig, targets)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("skewed workers=%d: barriers saw nodes %v with steps %v, want %v with %v (final lanes equal: %v)",
				workers, got.ids, got.steps, want.ids, want.steps, reflect.DeepEqual(got.final, want.final))
		}
	}
}

// TestNodeErrorsNameTheNode: a Build error and an invalid circuit config
// both report the lowest failing node under the engine's prefix, at every
// worker count.
func TestNodeErrorsNameTheNode(t *testing.T) {
	errBoom := errors.New("boom")
	failing := func(id int) bool { return id == 3 || id == 5 }
	cases := []struct {
		name  string
		build func(id int) (circuit.Config, error)
		want  string
		is    error
	}{
		{"build", func(id int) (circuit.Config, error) {
			if failing(id) {
				return circuit.Config{}, fmt.Errorf("weather: %w", errBoom)
			}
			return nodeConfig(id)
		}, "node 3 weather: boom", errBoom},
		{"config", func(id int) (circuit.Config, error) {
			c, err := nodeConfig(id)
			if failing(id) {
				c.Cell = nil
			}
			return c, err
		}, "node 3 circuit: ", circuit.ErrMissingComponent},
	}
	for _, engine := range []string{"fleet", "scenario"} {
		for _, tc := range cases {
			for _, workers := range []int{1, 4} {
				_, err := Run(Config{Name: engine, Nodes: 8, Workers: workers, Build: tc.build})
				want := engine + ": " + tc.want
				if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, tc.is) {
					t.Errorf("%s %s workers=%d: error %v, want prefix %q wrapping %v",
						engine, tc.name, workers, err, want, tc.is)
				}
			}
		}
	}
}

// TestCancelledRunBuildsFirst: a cancelled Ctx fails the run only after
// every node is built and before any lane steps — the build never checks
// the context, so a cancelled run times the build alone.
func TestCancelledRunBuildsFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const nodes = 16
	for _, workers := range []int{1, 4} {
		var built atomic.Int64
		_, err := Run(Config{
			Name: "scenario", Nodes: nodes, Workers: workers, Ctx: ctx,
			Build: func(id int) (circuit.Config, error) {
				built.Add(1)
				return nodeConfig(id)
			},
			Barrier: func(int, []*circuit.Simulator) { t.Error("barrier reached in a cancelled run") },
		})
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "scenario: run cancelled: ") {
			t.Errorf("workers=%d: cancelled run returned %v", workers, err)
		}
		if got := built.Load(); got != nodes {
			t.Errorf("workers=%d: %d of %d nodes built before the cancellation returned", workers, got, nodes)
		}
	}
}

// TestLabelMatchesFmt: a label has the bytes of fmt's zero-padded form at
// the fleet's and the scenario's widths, so every node keeps its seeds.
func TestLabelMatchesFmt(t *testing.T) {
	ids := []int{math.MaxInt}
	for id := 0; id < 20000; id++ {
		ids = append(ids, id)
	}
	for p := 100; p <= math.MaxInt/10; p *= 10 {
		ids = append(ids, p-1, p, p+1)
	}
	for _, f := range []struct {
		prefix string
		width  int
	}{{"node/", 7}, {"scn/", 4}} {
		for _, id := range ids {
			if got, want := Label(f.prefix, f.width, id), fmt.Sprintf("%s%0*d", f.prefix, f.width, id); got != want {
				t.Fatalf("Label(%q, %d, %d) = %q, want %q", f.prefix, f.width, id, got, want)
			}
		}
	}
}
