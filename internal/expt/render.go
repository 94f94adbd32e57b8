package expt

// The export surfaces of the registry: reports, CSV series, trace events
// and energy profiles. Each is one observed run of the experiment's
// driver, so every surface is a deterministic function of the experiment
// ID: equal inputs render equal bytes, regardless of which worker — or how
// many — runs them.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Errors returned by the registry surfaces.
var (
	// ErrUnknown indicates an experiment ID absent from the registry.
	ErrUnknown = errors.New("expt: unknown experiment")

	// ErrNoSeries indicates an experiment that produces summary numbers
	// only: its entry does not declare SurfaceSeries.
	ErrNoSeries = errors.New("expt: experiment has no plottable series")

	// ErrNoTrace indicates an experiment that emits no trace events: it
	// either has no transient simulation at all (the analytic figures) or
	// nothing worth event-tracing. See TracedIDs.
	ErrNoTrace = errors.New("expt: experiment emits no trace events")

	// ErrNoChaos indicates an experiment without a chaos surface: it has
	// no transient simulation for the fault layer to attack.
	ErrNoChaos = errors.New("expt: experiment has no chaos runner")

	// ErrNoProfile indicates an experiment with no energy profile: the
	// analytic figures have no step loop to account.
	ErrNoProfile = errors.New("expt: experiment emits no energy profile")
)

// errMissing maps each surface to the error an entry without it returns.
var errMissing = map[Surface]error{
	SurfaceSeries:  ErrNoSeries,
	SurfaceTrace:   ErrNoTrace,
	SurfaceChaos:   ErrNoChaos,
	SurfaceProfile: ErrNoProfile,
}

// observe runs experiment id once with obs attached. need is the surface
// the caller reads (0 for just the report): unknown IDs wrap ErrUnknown,
// and an entry that does not declare need returns that surface's error.
func observe(id string, need Surface, obs Observe) (Reporter, []plot.Series, error) {
	e, ok := Registry()[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	if !e.Has(need) {
		return nil, nil, errMissing[need]
	}
	return e.Run(obs)
}

// Render runs the experiment with the given ID and returns its report
// bytes. It is the reusable core behind the hemsim CLI path, the golden
// snapshot tests and hemserved's report cache.
func Render(id string) ([]byte, error) {
	r, _, err := observe(id, 0, Observe{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := r.Report(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SeriesFor runs the experiment with the given ID and returns its data
// series for CSV export. Summary-only experiments return ErrNoSeries.
func SeriesFor(id string) ([]plot.Series, error) {
	_, series, err := observe(id, SurfaceSeries, Observe{})
	return series, err
}

// WriteCSV runs the experiment and streams its series in long-format CSV.
func WriteCSV(id string, w io.Writer) error {
	series, err := SeriesFor(id)
	if err != nil {
		return err
	}
	return plot.WriteCSV(w, series...)
}

// RenderCSV runs the experiment and returns its series as long-format CSV
// bytes.
func RenderCSV(id string) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteCSV(id, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TraceEvents runs the experiment with a recorder attached and returns its
// events. The events carry simulated time and sequence numbers only.
// Untraced experiments return ErrNoTrace.
func TraceEvents(id string) ([]trace.Event, error) {
	rec := trace.NewRecorder()
	if _, _, err := observe(id, SurfaceTrace, Observe{Tracer: rec}); err != nil {
		return nil, err
	}
	return rec.Events(), nil
}

// RenderTrace runs the experiment and returns its events rendered in the
// given trace export format (trace.FormatJSONL or trace.FormatChrome).
func RenderTrace(id, format string) ([]byte, error) {
	events, err := TraceEvents(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, format, events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EnergyProfile runs the experiment with profiling on and returns the
// populated profile. Profiles are exact, not sampled: every integration
// step's time and energy lands in a ledger. Unprofiled experiments return
// ErrNoProfile.
func EnergyProfile(id string) (*prof.Profile, error) {
	p := prof.New()
	if _, _, err := observe(id, SurfaceProfile, Observe{Profile: p}); err != nil {
		return nil, err
	}
	return p, nil
}

// RenderProfile runs the experiment and returns its energy profile as
// gzipped pprof protobuf bytes (go tool pprof accepts them directly).
func RenderProfile(id string) ([]byte, error) {
	p, err := EnergyProfile(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := prof.WritePprof(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// profLedger returns the ledger for (experiment, node) in p, or nil when
// profiling is off — the nil that keeps the step loop allocation-free.
func profLedger(p *prof.Profile, experiment, node string) *prof.Ledger {
	if p == nil {
		return nil
	}
	return p.Ledger(prof.Scope{Experiment: experiment, Node: node})
}
