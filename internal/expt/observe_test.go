package expt

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/prof"
	"repro/internal/trace"
)

// TestObservedRunMatchesSurfaces is the single-run contract: one run of an
// experiment with every watching observer it declares (tracer, profile)
// attached yields the golden report, the plain run's series, a
// tracer-only run's events and a profile-only run's pprof bytes.
// Observing never changes what is observed, so each hemsim job can take
// every surface from one run.
func TestObservedRunMatchesSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiments")
	}
	registry := Registry()
	for _, id := range Names() {
		e := registry[id]
		if !e.Has(SurfaceTrace) && !e.Has(SurfaceProfile) {
			continue
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var obs Observe
			rec := trace.NewRecorder()
			if e.Has(SurfaceTrace) {
				obs.Tracer = rec
			}
			if e.Has(SurfaceProfile) {
				obs.Profile = prof.New()
			}
			r, series, err := e.Run(obs)
			if err != nil {
				t.Fatal(err)
			}

			var report bytes.Buffer
			if err := r.Report(&report); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report.Bytes(), want) {
				t.Errorf("observed report drifted from %s:\n%s", goldenPath(id), firstDiff(want, report.Bytes()))
			}

			_, plain, err := e.Run(Observe{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(series, plain) {
				t.Error("observed run's series differ from the plain run's")
			}

			if e.Has(SurfaceTrace) {
				events, err := TraceEvents(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(events) == 0 || !reflect.DeepEqual(rec.Events(), events) {
					t.Errorf("observed run recorded %d events, tracer-only run %d (or they differ)",
						len(rec.Events()), len(events))
				}
			}

			if e.Has(SurfaceProfile) {
				var got bytes.Buffer
				if err := prof.WritePprof(&got, obs.Profile); err != nil {
					t.Fatal(err)
				}
				want, err := RenderProfile(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("observed run's profile (%d bytes) differs from the profile-only run's (%d bytes)",
						got.Len(), len(want))
				}
			}
		})
	}
}
