// Package expt contains one driver per figure of the paper's evaluation.
// Each driver regenerates the figure's data series from the calibrated
// models and reports the headline metrics next to the values the paper
// quotes. The drivers are shared by the hemsim command-line tool and the
// benchmark suite, and their result structs are asserted (in bands) by the
// reproduction tests.
package expt

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Default experiment geometry.
const (
	// SweepPoints is the sample count of voltage sweeps.
	SweepPoints = 120

	// ChipSupply is the chip's external supply rail used when reproducing
	// the regulator characterisation figures (the test chip runs "under
	// 1.2 to 1.5 V supply").
	ChipSupply = 1.2

	// DefaultCapacitance is the storage capacitor used by the transient
	// experiments (F).
	DefaultCapacitance = 100e-6

	// DefaultCapMaxVoltage is the storage capacitor's rated voltage (V).
	DefaultCapMaxVoltage = 2.0
)

// Components bundles the default calibrated models used by every
// experiment.
//
// Thread-safety contract: every model in Components is immutable after
// construction (options apply only inside the constructors), so a
// Components value — or the individual models — may be shared freely
// across goroutines. Per-run mutable state (cap.Capacitor, circuit
// controllers, intermittent executors) is NOT shareable and must be
// constructed per worker; every driver in this package already does so by
// building its own storage and simulator per call.
type Components struct {
	Cell *pv.Cell
	Proc *cpu.Processor
	SC   *reg.SC
	Buck *reg.Buck
	LDO  *reg.LDO
}

// DefaultComponents returns the calibrated defaults.
func DefaultComponents() Components {
	return Components{
		Cell: pv.NewCell(),
		Proc: cpu.NewProcessor(),
		SC:   reg.NewSC(),
		Buck: reg.NewBuck(),
		LDO:  reg.NewLDO(),
	}
}

// NewStorageCap returns the default storage capacitor pre-charged to v.
func NewStorageCap(v float64) (*cap.Capacitor, error) {
	return cap.New(DefaultCapacitance, v, DefaultCapMaxVoltage)
}

// Observe names the observers one experiment run carries. A nil field is
// off and costs the driver nothing, so the zero value is the plain run.
// Tracer and Profile only watch: attaching them never changes the report
// or the series. Plan is the one perturbing observer — it injects the
// fault plan's brownouts and NVM faults into the run.
type Observe struct {
	Tracer  trace.Tracer
	Plan    *fault.Plan
	Profile *prof.Profile
}

// Surface is a set of the outputs an experiment can produce beyond its
// report.
type Surface uint8

// The surfaces a registry entry can declare.
const (
	SurfaceSeries  Surface = 1 << iota // plottable data series (CSV export)
	SurfaceTrace                       // honours Observe.Tracer
	SurfaceChaos                       // honours Observe.Plan
	SurfaceProfile                     // honours Observe.Profile
)

// Reporter is anything that can write its report.
type Reporter interface{ Report(w io.Writer) error }

// Experiment is one registry entry: one run closure and the surfaces it
// declares. The declared Surfaces are the single source of truth for
// every per-surface ID list and lookup error, so the export paths can
// never drift from the driver table.
type Experiment struct {
	ID       string
	Surfaces Surface
	// Run executes the driver once with obs attached and returns its
	// report and plottable series (nil unless SurfaceSeries is declared).
	// Observers the entry does not declare are ignored.
	Run func(obs Observe) (Reporter, []plot.Series, error)
}

// Has reports whether the entry declares every surface in s.
func (e Experiment) Has(s Surface) bool { return e.Surfaces&s == s }

// entry builds a registry Experiment from a driver, the observer surfaces
// it honours, and an optional series projection (which adds
// SurfaceSeries).
func entry[T Reporter](id string, surfaces Surface, drive func(Observe) (T, error), series func(T) []plot.Series) Experiment {
	if series != nil {
		surfaces |= SurfaceSeries
	}
	return Experiment{ID: id, Surfaces: surfaces, Run: func(obs Observe) (Reporter, []plot.Series, error) {
		r, err := drive(obs)
		if err != nil {
			return nil, nil, err
		}
		if series == nil {
			return r, nil, nil
		}
		return r, series(r), nil
	}}
}

// unobserved adapts a driver with nothing to observe to the Observe shape.
func unobserved[T Reporter](build func() (T, error)) func(Observe) (T, error) {
	return func(Observe) (T, error) { return build() }
}

// infallible is unobserved for a driver that cannot fail.
func infallible[T Reporter](build func() T) func(Observe) (T, error) {
	return func(Observe) (T, error) { return build(), nil }
}

// registryList returns every experiment in declaration order.
func registryList() []Experiment {
	// The transient simulations accept a tracer and a profile; the ones
	// whose light a brownout can cut also accept a fault plan.
	const (
		watched = SurfaceTrace | SurfaceProfile
		hostile = watched | SurfaceChaos
	)
	return []Experiment{
		entry("fig2", 0, infallible(Fig2), func(r *Fig2Result) []plot.Series { return r.Series }),
		entry("fig3", 0, infallible(Fig3), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		entry("fig4", 0, infallible(Fig4), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		entry("fig5", 0, infallible(Fig5), func(r *EfficiencyFigResult) []plot.Series { return r.Series }),
		entry("fig6a", 0, infallible(Fig6a), func(r *Fig6aResult) []plot.Series { return r.Series }),
		entry("fig6b", 0, unobserved(Fig6b), func(r *Fig6bResult) []plot.Series { return r.Series }),
		entry("fig7a", 0, infallible(Fig7a), func(r *Fig7aResult) []plot.Series { return r.Series }),
		entry("fig7b", 0, unobserved(Fig7b), func(r *Fig7bResult) []plot.Series { return r.Series }),
		entry("fig8", watched, fig8, func(r *Fig8Result) []plot.Series { return r.Series }),
		entry("fig9a", 0, unobserved(Fig9a), func(r *Fig9aResult) []plot.Series { return r.Series }),
		entry("fig9b", hostile, fig9b, func(r *Fig9bResult) []plot.Series { return r.Series }),
		entry("fig11a", 0, infallible(Fig11a), func(r *Fig11aResult) []plot.Series { return r.Series }),
		entry("fig11b", hostile, fig11b, func(r *Fig11bResult) []plot.Series { return r.Series }),
		// Summary-only experiments (no series => ErrNoSeries on export).
		entry[*HeadlineResult]("headline", 0, infallible(Headline), nil),

		// Extensions beyond the paper's evaluation (DESIGN.md Sec. 5).
		// All summary-only but ext-scenario: their results are tables of
		// scalars, not sampled curves.
		entry[*ExtCornersResult]("ext-corners", 0, unobserved(ExtCorners), nil),
		entry[*ExtDomainsResult]("ext-domains", 0, unobserved(ExtDomains), nil),
		entry[*ExtWeatherResult]("ext-weather", 0, unobserved(ExtWeather), nil),
		entry[*ExtIntermittentResult]("ext-intermittent", hostile, extIntermittent, nil),
		entry[*ExtFederationResult]("ext-federation", 0, unobserved(ExtFederation), nil),
		entry[*ExtShadingResult]("ext-shading", 0, unobserved(ExtShading), nil),
		entry[*ExtDutyCycleResult]("ext-dutycycle", 0, unobserved(ExtDutyCycle), nil),
		entry[*ExtTemperatureResult]("ext-temperature", 0, unobserved(ExtTemperature), nil),
		entry("ext-fleet", watched, extFleet, nil),
		entry("ext-scenario", watched, extScenario, func(r *scenario.Report) []plot.Series { return r.Series() }),
	}
}

// longPoles lists, longest first, the experiments whose run time sets the
// makespan of a multi-worker `hemsim all`. On one worker they take about
// 32%, 29%, 9% and 9% of the run, and no other experiment more than 4%.
// In name order ext-weather starts tenth, so without a priority the run
// ends on one worker finishing it.
var longPoles = []string{"ext-weather", "ext-intermittent", "ext-shading", "ext-scenario"}

// Priority returns id's runner.Job priority: the long poles rank above
// every other experiment, longest first, so a worker pool starts them
// before the rest. Every other ID, unknown ones included, ranks 0 and
// starts in submission order.
func Priority(id string) int {
	for i, p := range longPoles {
		if p == id {
			return len(longPoles) - i
		}
	}
	return 0
}

// Registry returns the experiment table keyed by ID (fig2, fig3, ...).
func Registry() map[string]Experiment {
	list := registryList()
	m := make(map[string]Experiment, len(list))
	for _, e := range list {
		m[e.ID] = e
	}
	return m
}

// Names returns the registry keys in a stable order.
func Names() []string {
	table := Registry() // NOT named `reg`: that would shadow repro/internal/reg (see lint_test.go)
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// idsWith returns, in stable order, the IDs whose declared surfaces
// include s (has) or lack it (!has). Every per-surface ID list is derived
// here from the registry, never hand-maintained.
func idsWith(s Surface, has bool) []string {
	var ids []string
	for _, e := range registryList() {
		if e.Has(s) == has {
			ids = append(ids, e.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// TracedIDs returns the experiments whose runs emit trace events.
func TracedIDs() []string { return idsWith(SurfaceTrace, true) }

// renderChart writes an ASCII chart, tolerating empty data.
func renderChart(w io.Writer, c plot.Chart, series ...plot.Series) error {
	if err := c.Render(w, series...); err != nil {
		fmt.Fprintf(w, "(chart unavailable: %v)\n", err)
	}
	return nil
}
