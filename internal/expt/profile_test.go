package expt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/prof"
)

// profileTotal folds every ledger of p into one.
func profileTotal(p *prof.Profile) prof.Ledger {
	var t prof.Ledger
	for _, e := range p.Entries() {
		t.Merge(&e.Ledger)
	}
	return t
}

// decodedTotal sums the decoded samples' i-th value.
func decodedTotal(d *prof.Decoded, i int) int64 {
	var t int64
	for _, s := range d.Samples {
		if i < len(s.Values) {
			t += s.Values[i]
		}
	}
	return t
}

func TestProfiledIDs(t *testing.T) {
	want := []string{"ext-fleet", "ext-intermittent", "ext-scenario", "fig11b", "fig8", "fig9b"}
	if got := idsWith(SurfaceProfile, true); !reflect.DeepEqual(got, want) {
		t.Errorf("profiled IDs = %v, want %v", got, want)
	}
}

func TestEnergyProfileErrors(t *testing.T) {
	if _, err := EnergyProfile("fig2"); !errors.Is(err, ErrNoProfile) {
		t.Errorf("fig2 profile error = %v, want ErrNoProfile", err)
	}
	if _, err := EnergyProfile("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown profile error = %v, want ErrUnknown", err)
	}
}

// TestRenderProfileDeterministic: profiled re-runs are pure functions of
// the experiment ID, so the exported pprof bytes are too.
func TestRenderProfileDeterministic(t *testing.T) {
	a, err := RenderProfile("fig11b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderProfile("fig11b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two renders of the same profile differ")
	}
}

// TestProfileReconciliation is the acceptance contract: decoded
// sim_seconds totals match the simulated horizon and energy_joules totals
// reconcile with the run's own energy accounting.
func TestProfileReconciliation(t *testing.T) {
	// fig8 runs its tracked simulation to a fixed 60 ms horizon; the
	// decoded sim_seconds total must land there within the ns quantisation.
	body, err := RenderProfile("fig8")
	if err != nil {
		t.Fatal(err)
	}
	d, err := prof.ReadPprof(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if d.SampleTypes[0].Type != "sim_seconds" || d.SampleTypes[1].Type != "energy_joules" {
		t.Fatalf("sample types = %+v", d.SampleTypes)
	}
	const horizon = 60e-3
	if sec := float64(decodedTotal(d, 0)) * 1e-9; math.Abs(sec-horizon) > 5e-9 {
		t.Errorf("decoded sim_seconds = %.12f, want %g", sec, horizon)
	}

	// fig11b: the profile's flow bins must reconcile with the variant
	// outcomes the report is built from — harvest bitwise (same per-step
	// terms, same order), delivered within regrouping tolerance.
	p := prof.New()
	res, err := fig11b(Observe{Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	total := profileTotal(p)
	wantHarvest := res.Proposed.EnergyHarvested + res.Baseline.EnergyHarvested
	if got := total.Joules[prof.BinPVHarvest]; got != wantHarvest {
		t.Errorf("profile harvest %g != outcomes %g", got, wantHarvest)
	}
	var delivered float64
	for b := prof.Bin(0); b < prof.BinPVHarvest; b++ {
		delivered += total.Joules[b]
	}
	wantDelivered := res.Baseline.EnergyDelivered + res.Proposed.EnergyDelivered
	if math.Abs(delivered-wantDelivered) > 1e-9*wantDelivered {
		t.Errorf("profile delivered %g != outcomes %g", delivered, wantDelivered)
	}

	// The encoded form round-trips those totals within quantisation.
	var buf bytes.Buffer
	if err := prof.WritePprof(&buf, p); err != nil {
		t.Fatal(err)
	}
	d11, err := prof.ReadPprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var joules float64
	for _, j := range total.Joules {
		joules += j
	}
	if got := float64(decodedTotal(d11, 1)) * 1e-15; math.Abs(got-joules) > 1e-9*joules {
		t.Errorf("decoded energy %g != ledger total %g", got, joules)
	}
}

// TestGoldenExtFleetProfile pins the ext-fleet energy profile bytes.
// Regenerate with: go test ./internal/expt -run TestGoldenExtFleetProfile -update
func TestGoldenExtFleetProfile(t *testing.T) {
	got, err := RenderProfile("ext-fleet")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_ext-fleet.pb.gz")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (refresh with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ext-fleet profile drifted from golden (%d vs %d bytes)", len(got), len(want))
	}
	// The golden must stay a decodable pprof profile with per-node scopes.
	d, err := prof.ReadPprof(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) == 0 {
		t.Fatal("golden profile decodes to no samples")
	}
	nodes := map[string]bool{}
	for _, s := range d.Samples {
		if s.Labels["experiment"] != "ext-fleet" {
			t.Fatalf("sample labels = %v", s.Labels)
		}
		nodes[s.Labels["node"]] = true
	}
	if len(nodes) != 32 {
		t.Errorf("golden profile covers %d nodes, want 32", len(nodes))
	}
}
