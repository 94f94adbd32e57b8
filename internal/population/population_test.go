package population

import (
	"context"
	"errors"
	"fmt"
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

// TestEpochsAndBarrier pins the schedule: listed epochs stop at their
// targets, the epoch past the list takes every lane to its own horizon,
// and the barrier sees the epoch's active lanes in node-ID order —
// finished ones included — before they are dropped. The worker counts
// give windows of three, two and one lanes, and one more worker than
// lanes.
func TestEpochsAndBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		var seen [][]*circuit.Simulator
		var steps [][]int
		lanes, err := Run(Config{
			Name: "test", Nodes: 3, Workers: workers,
			Build:   nodeConfig,
			Targets: []int{5, 15},
			Barrier: func(epoch int, active []*circuit.Simulator) {
				if epoch != len(seen)+1 {
					t.Errorf("barrier epoch %d, want %d", epoch, len(seen)+1)
				}
				seen = append(seen, append([]*circuit.Simulator(nil), active...))
				var s []int
				for _, sim := range active {
					s = append(s, sim.Progress().Steps)
				}
				steps = append(steps, s)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantLanes := [][]*circuit.Simulator{lanes, lanes, lanes[1:]}
		wantSteps := [][]int{{5, 5, 5}, {10, 15, 15}, {20, 30}}
		if !reflect.DeepEqual(seen, wantLanes) || !reflect.DeepEqual(steps, wantSteps) {
			t.Errorf("workers=%d: barriers saw steps %v, want %v (lanes in node-ID order)",
				workers, steps, wantSteps)
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
