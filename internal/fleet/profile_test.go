package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/prof"
)

// profiledFleet runs the spec with profiling on and an explicit
// fast-forward setting, and returns the encoded profile bytes plus the
// report bytes.
func profiledFleet(t *testing.T, specText string, workers int, noFF bool) ([]byte, []byte) {
	t.Helper()
	spec, err := ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Workers = workers
	cfg.NoFastForward = noFF
	cfg.Profile = prof.New()
	cfg.ProfileScope = "fleet"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pb, rb bytes.Buffer
	if err := prof.WritePprof(&pb, cfg.Profile); err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(&rb); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), rb.Bytes()
}

// TestFleetProfileParity extends the signature invariant to profiles: the
// exported bytes must be identical across worker counts — lane windows of
// 24, 12, 8, 3 and 1 nodes — and profiling must not perturb the report
// itself.
func TestFleetProfileParity(t *testing.T) {
	refProf, refRep := profiledFleet(t, testSpec, 1, false)
	if plain := renderFleet(t, testSpec, 1); !bytes.Equal(refRep, plain) {
		t.Error("profiling changed the report bytes")
	}
	for _, workers := range []int{2, 3, 8, 24} {
		p, r := profiledFleet(t, testSpec, workers, false)
		if !bytes.Equal(p, refProf) {
			t.Errorf("workers=%d: profile bytes differ", workers)
		}
		if !bytes.Equal(r, refRep) {
			t.Errorf("workers=%d: report bytes differ", workers)
		}
	}
}

// TestFleetProfileReconciles ties the profile's flow bins to the report's
// energy totals. Both are node-ID-ordered sums of bitwise-identical
// per-step terms, so harvest and aux match exactly.
func TestFleetProfileReconciles(t *testing.T) {
	spec, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Profile = prof.New()
	cfg.ProfileScope = "fleet"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.Len() == 0 {
		t.Fatal("profile is empty")
	}
	var total prof.Ledger
	for _, e := range cfg.Profile.Entries() {
		total.Merge(&e.Ledger)
	}
	if got := total.Joules[prof.BinPVHarvest]; got != rep.EnergyHarvested {
		t.Errorf("profile harvest %g != report %g", got, rep.EnergyHarvested)
	}
	if got := total.Joules[prof.BinRadioTx]; got != rep.EnergyAux {
		t.Errorf("profile aux %g != report %g", got, rep.EnergyAux)
	}
	relErr := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		if b < 0 {
			b = -b
		}
		return d / b
	}
	var delivered float64
	for b := prof.Bin(0); b < prof.BinPVHarvest; b++ {
		delivered += total.Joules[b]
	}
	if relErr(delivered, rep.EnergyDelivered) > 1e-9 {
		t.Errorf("profile delivered %g != report %g", delivered, rep.EnergyDelivered)
	}
	for _, e := range cfg.Profile.Entries() {
		if e.Scope.Experiment != "fleet" {
			t.Fatalf("unexpected scope %+v", e.Scope)
		}
	}
}

// TestFleetOnEpoch: the hook sees every epoch snapshot, in order, matching
// the report's own series.
func TestFleetOnEpoch(t *testing.T) {
	spec, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	var seen []Snapshot
	cfg.OnEpoch = func(s Snapshot) { seen = append(seen, s) }
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, rep.Snapshots) {
		t.Errorf("OnEpoch saw %d snapshots %+v, report has %d %+v",
			len(seen), seen, len(rep.Snapshots), rep.Snapshots)
	}
}
