package expt

// Differential parity between the scalar and batched kernels at the
// experiment level. The committed goldens (and traces) predate the batched
// path — pv.Curve now sweeps with one walking solver state and the fleet
// scheduler steps circuit.BatchStepper groups — so matching them byte for
// byte, with no -update, is the end-to-end proof that batching changed the
// schedule of the computation and nothing else. The lower layers pin the
// same contract microscopically (pv's TestCurveMatchesScalar,
// circuit/batch_test.go); this suite pins it at the report/CSV/trace
// surface every consumer actually reads.

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestBatchScalarParity runs every registry experiment through the batched
// kernel and compares each of its export surfaces against a scalar
// reference: the report against the committed golden, the CSV and the
// trace against an immediate re-render (two runs through the batched path
// must agree with each other exactly, or determinism — the property the
// scalar comparison rests on — is already gone).
func TestBatchScalarParity(t *testing.T) {
	for _, id := range Names() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got, err := Render(id)
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing scalar-reference golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("batched report differs from scalar golden:\n%s", firstDiff(want, got))
			}

			csvA, err := RenderCSV(id)
			switch {
			case errors.Is(err, ErrNoSeries):
				// summary-only experiment; nothing to export
			case err != nil:
				t.Fatalf("csv: %v", err)
			default:
				csvB, err := RenderCSV(id)
				if err != nil {
					t.Fatalf("csv re-render: %v", err)
				}
				if !bytes.Equal(csvA, csvB) {
					t.Errorf("two CSV renders differ:\n%s", firstDiff(csvA, csvB))
				}
			}

			evA, err := TraceEvents(id)
			switch {
			case errors.Is(err, ErrNoTrace):
				return
			case err != nil:
				t.Fatalf("trace: %v", err)
			}
			if err := trace.ValidateAll(evA); err != nil {
				t.Fatalf("trace validation: %v", err)
			}
			evB, err := TraceEvents(id)
			if err != nil {
				t.Fatalf("trace re-record: %v", err)
			}
			if !reflect.DeepEqual(evA, evB) {
				t.Error("two trace recordings differ")
			}
		})
	}
}

// TestBatchFleetReportParity sweeps the registry fleet's lane windows
// through the worker count: the report bytes must be identical whether
// the 32 nodes advance one lane per window (32 workers), in windows of
// seven, or as a single group (one worker).
func TestBatchFleetReportParity(t *testing.T) {
	render := func(workers int) []byte {
		t.Helper()
		spec, err := fleet.ParseSpec(fleetDemoSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Config()
		cfg.Workers = workers
		rep, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Report(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := render(32)
	for _, workers := range []int{1, 2, 5} {
		if got := render(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: fleet report differs from workers=32:\n%s", workers, firstDiff(ref, got))
		}
	}
}
