package fault_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/intermittent"
	"repro/internal/trace"
)

// The NVM injector must satisfy the executor's fault hook without the
// intermittent package importing fault.
var _ intermittent.Faults = (*fault.NVMInjector)(nil)

func TestParsePlan(t *testing.T) {
	plan, err := fault.ParsePlan([]byte(`{
		"seed": 7,
		"brownouts": [{"at_s": 0.1, "duration_s": 0.02, "every_s": 0.25}],
		"random_brownouts": {"count": 3, "mean_duration_s": 0.01, "depth": 0.2},
		"nvm": {"torn_write_prob": 0.1, "restore_bitrot_prob": 0.05, "fail_every_n": 4},
		"serve": {"latency_ms": 5, "error_prob": 0.1, "error_status": 503}
	}`))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if plan.Seed != 7 || len(plan.Brownouts) != 1 || plan.Random.Count != 3 ||
		plan.NVM.FailEveryN != 4 || plan.Serve.ErrorStatus != 503 {
		t.Fatalf("plan decoded wrong: %+v", plan)
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"seed": 1, "brownout": []}`,
		"bad json":           `{`,
		"negative at":        `{"brownouts": [{"at_s": -1, "duration_s": 1}]}`,
		"zero duration":      `{"brownouts": [{"at_s": 0, "duration_s": 0}]}`,
		"self-overlap":       `{"brownouts": [{"at_s": 0, "duration_s": 2, "every_s": 1}]}`,
		"depth 1":            `{"brownouts": [{"at_s": 0, "duration_s": 1, "depth": 1}]}`,
		"random no duration": `{"random_brownouts": {"count": 2}}`,
		"nvm prob":           `{"nvm": {"torn_write_prob": 1.5}}`,
		"nvm every":          `{"nvm": {"fail_every_n": -1}}`,
		"serve prob":         `{"serve": {"error_prob": -0.1}}`,
		"serve status":       `{"serve": {"error_status": 200}}`,
		"serve hold":         `{"serve": {"gate_hold_ms": -1}}`,
		"trailing garbage":   `{"seed":1} trailing garbage`,
		"second document":    `{"seed":1}{"seed":2}`,
		"closing brace":      `{"seed":1}}`,
		"random count bound": `{"random_brownouts": {"count": 2000000000, "mean_duration_s": 0.01}}`,
	}
	for name, body := range cases {
		if _, err := fault.ParsePlan([]byte(body)); !errors.Is(err, fault.ErrBadPlan) {
			t.Errorf("%s: got %v, want ErrBadPlan", name, err)
		}
	}
}

// TestBrownoutsBounded: plans that would resolve to more windows than
// MaxWindows over the horizon fail with ErrBadPlan, fast, instead of
// looping or allocating without end. (A random count past the bound is
// rejected at parse; see TestParsePlanRejects.)
func TestBrownoutsBounded(t *testing.T) {
	for name, body := range map[string]string{
		// 0.01+1e-20 == 0.01: the repetition never advances.
		"stuck period": `{"brownouts":[{"at_s":0.01,"duration_s":1e-20,"every_s":1e-20}]}`,
		// Advances, but would resolve to 5e17 windows.
		"tiny period": `{"brownouts":[{"at_s":0,"duration_s":1e-19,"every_s":1e-19}]}`,
		// Each pulse fits, but not together.
		"sum of pulses": `{"brownouts":[{"at_s":0,"duration_s":1e-6,"every_s":2e-5},` +
			`{"at_s":0,"duration_s":1e-6,"every_s":2e-5}]}`,
	} {
		plan, err := fault.ParsePlan([]byte(body))
		if err != nil {
			t.Fatalf("%s: plan rejected at parse (the bound needs the horizon): %v", name, err)
		}
		start := time.Now()
		b, err := fault.New(plan, "x").Brownouts(1.0)
		if !errors.Is(err, fault.ErrBadPlan) || b != nil {
			t.Errorf("%s: Brownouts = %v, %v; want ErrBadPlan", name, b, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejection took %v", name, d)
		}
	}
}

// TestBrownoutsAtBound pins the bound itself: a 2^-16 s period (exact in
// binary) resolves exactly MaxWindows starts in [0, 1), and one more
// start past it is rejected.
func TestBrownoutsAtBound(t *testing.T) {
	plan := fault.Plan{Brownouts: []fault.Pulse{{DurationS: 1e-6, EveryS: 1.0 / fault.MaxWindows}}}
	if got := len(brownouts(t, plan, "x").Windows()); got != fault.MaxWindows {
		t.Errorf("resolved %d windows, want %d", got, fault.MaxWindows)
	}
	if _, err := fault.New(plan, "x").Brownouts(1.0 + 1e-9); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("MaxWindows+1 windows: err = %v, want ErrBadPlan", err)
	}
	plan.Random = &fault.RandomPulses{Count: 1, MeanDurationS: 1e-3}
	if _, err := fault.New(plan, "x").Brownouts(1.0); !errors.Is(err, fault.ErrBadPlan) {
		t.Errorf("MaxWindows explicit + 1 random: err = %v, want ErrBadPlan", err)
	}
}

func TestLoadPlanMissing(t *testing.T) {
	if _, err := fault.LoadPlan("testdata/definitely-missing.json"); err == nil {
		t.Fatal("missing plan file loaded")
	}
}

func TestStreamSeedDomains(t *testing.T) {
	a := fault.StreamSeed(1, "fig8", "brownout")
	if a != fault.StreamSeed(1, "fig8", "brownout") {
		t.Fatal("stream seed not stable")
	}
	for name, b := range map[string]int64{
		"domain": fault.StreamSeed(1, "fig8", "nvm"),
		"stream": fault.StreamSeed(1, "fig9b", "brownout"),
		"seed":   fault.StreamSeed(2, "fig8", "brownout"),
	} {
		if a == b {
			t.Errorf("changing %s did not change the stream seed", name)
		}
	}
}

// streamSeedFmt is StreamSeed as first written: fmt formatting the key
// into a hash/fnv hasher.
func streamSeedFmt(seed int64, stream, domain string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s", seed, stream, domain)
	return int64(h.Sum64())
}

// TestStreamSeedMatchesFmt: StreamSeed hashes the same bytes as the fmt
// version, so every seed derived from it is unchanged, and it allocates
// nothing.
func TestStreamSeedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	label := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	seeds := []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(rng.Uint64()), rng.Int63n(1000)-500)
	}
	for i, seed := range seeds {
		stream, domain := label(), label()
		if i%7 == 0 {
			stream = ""
		}
		if i%5 == 0 {
			domain = ""
		}
		if got, want := fault.StreamSeed(seed, stream, domain), streamSeedFmt(seed, stream, domain); got != want {
			t.Fatalf("StreamSeed(%d, %q, %q) = %d, want %d", seed, stream, domain, got, want)
		}
	}
	for _, c := range []struct{ stream, domain string }{
		{"node/0000042", "weather"}, {"scn/0003", "arrivals"}, {"", ""}, {"serve", "http"},
	} {
		if got, want := fault.StreamSeed(math.MinInt64, c.stream, c.domain), streamSeedFmt(math.MinInt64, c.stream, c.domain); got != want {
			t.Errorf("StreamSeed(MinInt64, %q, %q) = %d, want %d", c.stream, c.domain, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fault.StreamSeed(math.MinInt64, "node/0000042", "weather") }); n != 0 {
		t.Errorf("StreamSeed allocates %.0f times, want 0", n)
	}
}

// brownouts resolves plan's windows on stream over a 1 s horizon, failing
// the test if the fault layer rejects the plan.
func brownouts(t *testing.T, plan fault.Plan, stream string) *fault.Brownouts {
	t.Helper()
	b, err := fault.New(plan, stream).Brownouts(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrownoutsResolveDeterministic(t *testing.T) {
	plan := fault.Plan{
		Seed:      42,
		Brownouts: []fault.Pulse{{AtS: 0.1, DurationS: 0.05, EveryS: 0.3}},
		Random:    &fault.RandomPulses{Count: 4, MeanDurationS: 0.02, Depth: 0.1},
	}
	w1 := brownouts(t, plan, "fig8").Windows()
	w2 := brownouts(t, plan, "fig8").Windows()
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same (plan, stream) resolved different windows")
	}
	w3 := brownouts(t, plan, "fig9b").Windows()
	if reflect.DeepEqual(w1, w3) {
		t.Fatal("different streams resolved identical random windows")
	}
	for i, w := range w1 {
		if w.End <= w.Start {
			t.Errorf("window %d empty: %+v", i, w)
		}
		if i > 0 && w.Start <= w1[i-1].End {
			t.Errorf("windows %d/%d not merged: %+v %+v", i-1, i, w1[i-1], w)
		}
	}
}

func TestBrownoutsMergeDepth(t *testing.T) {
	plan := fault.Plan{Brownouts: []fault.Pulse{
		{AtS: 0.1, DurationS: 0.1, Depth: 0.5},
		{AtS: 0.15, DurationS: 0.1, Depth: 0.2}, // overlaps; darker wins
		{AtS: 0.5, DurationS: 0.05},
	}}
	ws := brownouts(t, plan, "x").Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(ws), ws)
	}
	if ws[0].Start != 0.1 || ws[0].End != 0.25 || ws[0].Depth != 0.2 {
		t.Errorf("merged window wrong: %+v", ws[0])
	}
}

func TestBrownoutsWrap(t *testing.T) {
	plan := fault.Plan{Brownouts: []fault.Pulse{{AtS: 0.2, DurationS: 0.1, Depth: 0.25}}}
	irr := brownouts(t, plan, "x").Wrap(func(float64) float64 { return 2.0 })
	for _, tc := range []struct{ t, want float64 }{
		{0.0, 2.0}, {0.19, 2.0}, {0.2, 0.5}, {0.29, 0.5}, {0.31, 2.0}, {0.9, 2.0},
	} {
		if got := irr(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("irr(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	// No windows: the base function comes back untouched.
	none := brownouts(t, fault.Plan{}, "x")
	if got := none.Wrap(func(float64) float64 { return 3 })(0.5); got != 3 {
		t.Errorf("empty wrap altered irradiance: %g", got)
	}
}

func TestBrownoutsEmit(t *testing.T) {
	plan := fault.Plan{Seed: 9, Brownouts: []fault.Pulse{{AtS: 0.1, DurationS: 0.05}}}
	rec := trace.NewRecorder()
	brownouts(t, plan, "fig8").Emit(rec, "fig8", plan.Seed)
	events := rec.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want plan + begin/end: %+v", len(events), events)
	}
	if events[0].Kind != "fault.plan" || events[1].Kind != "fault.brownout" {
		t.Errorf("unexpected kinds: %s %s", events[0].Kind, events[1].Kind)
	}
	if err := trace.ValidateAll(events); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}
	// A nil tracer must be a no-op, not a panic.
	brownouts(t, plan, "fig8").Emit(nil, "fig8", plan.Seed)
}

func TestNVMInjectorDeterministic(t *testing.T) {
	plan := fault.Plan{Seed: 3, NVM: &fault.NVMPlan{TornWriteProb: 0.4, RestoreBitrotProb: 0.3}}
	draw := func() (torn, corrupt []bool) {
		n := fault.New(plan, "s").NVM()
		for i := 0; i < 32; i++ {
			torn = append(torn, n.TornWrite(i))
			corrupt = append(corrupt, n.CorruptRestore(i))
		}
		return
	}
	t1, c1 := draw()
	t2, c2 := draw()
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("NVM injector draws not deterministic")
	}
	var any bool
	for i := range t1 {
		any = any || t1[i] || c1[i]
	}
	if !any {
		t.Fatal("no faults drawn at high probabilities; injector inert")
	}
}

func TestNVMInjectorFailEveryN(t *testing.T) {
	plan := fault.Plan{NVM: &fault.NVMPlan{FailEveryN: 3}}
	n := fault.New(plan, "s").NVM()
	var torn []int
	for i := 0; i < 9; i++ {
		if n.TornWrite(i) {
			torn = append(torn, i)
		}
	}
	if !reflect.DeepEqual(torn, []int{2, 5, 8}) {
		t.Fatalf("FailEveryN=3 tore commits %v, want [2 5 8]", torn)
	}
}

func TestNVMInjectorNil(t *testing.T) {
	var n *fault.NVMInjector
	if n.TornWrite(0) || n.CorruptRestore(0) {
		t.Fatal("nil injector injected")
	}
	if in := fault.New(fault.Plan{}, "s").NVM(); in != nil {
		t.Fatal("plan without NVM section produced an injector")
	}
}

func TestServeInjectorDecide(t *testing.T) {
	plan := fault.ServePlan{LatencyMS: 2, LatencyJitterMS: 1, ErrorProb: 1, RenderErrorProb: 1, GateHoldMS: 3}
	s := fault.NewServe(1)
	d := s.Decide(plan)
	if d.Delay < 2e6 || d.Delay > 3e6 { // 2–3 ms in ns
		t.Errorf("delay %v outside jitter band", d.Delay)
	}
	if !d.Fail || d.Status != 500 {
		t.Errorf("ErrorProb=1 did not fail with default 500: %+v", d)
	}
	if !d.RenderFault || d.GateHold != 3e6 {
		t.Errorf("render/gate injection wrong: %+v", d)
	}
	if d := s.Decide(fault.ServePlan{ErrorProb: 1, ErrorStatus: 429}); d.Status != 429 {
		t.Errorf("explicit status ignored: %+v", d)
	}
	if d := s.Decide(fault.ServePlan{}); d != (fault.Decision{}) {
		t.Errorf("zero plan injected: %+v", d)
	}
	var nilInj *fault.ServeInjector
	if d := nilInj.Decide(plan); d != (fault.Decision{}) {
		t.Errorf("nil injector injected: %+v", d)
	}
}

func TestErrInjectedWrapping(t *testing.T) {
	err := fault.Injectedf("render %s", "fig8")
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal("Injectedf lost ErrInjected identity")
	}
	if !strings.Contains(err.Error(), "fig8") {
		t.Fatalf("Injectedf lost detail: %v", err)
	}
}
