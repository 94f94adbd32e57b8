package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Spec is the canonical, fully-resolved description of a fleet run — the
// pure-function input of the determinism contract. Its String form doubles
// as the CLI argument (`hemsim -fleet n=1000,seed=7`), the hemserved URL
// path element, and the render-cache key.
type Spec struct {
	N       int     `json:"n"`
	Seed    int64   `json:"seed"`
	Horizon float64 `json:"horizon_s"`
	Epoch   float64 `json:"epoch_s"`
	Step    float64 `json:"step_s"`
	// Dark is the lights-out fraction of the horizon: the sky trace is
	// forced to exactly zero for the trailing Dark*Horizon seconds, the
	// idle-heavy regime where event-horizon fast-forward pays off.
	// Zero (the default) leaves the weather untouched.
	Dark float64 `json:"dark,omitempty"`
}

// String renders the spec in canonical key order. Parsing the result
// yields the identical spec, so canonical strings are stable cache keys.
// Dark is printed only when set, keeping pre-existing canonical strings
// (and the cache keys derived from them) byte-stable.
func (s Spec) String() string {
	base := fmt.Sprintf("n=%d,seed=%d,horizon=%g,epoch=%g,step=%g",
		s.N, s.Seed, s.Horizon, s.Epoch, s.Step)
	if s.Dark > 0 {
		base += fmt.Sprintf(",dark=%g", s.Dark)
	}
	return base
}

// Config converts the spec back into a runnable configuration. Workers and
// Tracer are execution details, not part of the spec, and are left unset.
func (s Spec) Config() Config {
	return Config{Nodes: s.N, Seed: s.Seed, Horizon: s.Horizon, Epoch: s.Epoch, Step: s.Step, Dark: s.Dark}
}

// ParseSpec parses a comma-separated key=value spec, e.g.
// "n=1000,seed=7" or "n=50,horizon=0.05,epoch=2e-3,step=5e-6".
// Omitted keys take the package defaults; unknown keys are an error.
// A bare integer is shorthand for "n=<value>".
func ParseSpec(text string) (Spec, error) {
	spec := Spec{N: DefaultNodes, Horizon: DefaultHorizon, Epoch: DefaultEpoch, Step: DefaultStep}
	text = strings.TrimSpace(text)
	if text == "" {
		return spec, nil
	}
	if n, err := strconv.Atoi(text); err == nil {
		spec.N = n
		return spec, spec.validate()
	}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fleet: spec field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		var err error
		switch key {
		case "n":
			spec.N, err = strconv.Atoi(value)
		case "seed":
			spec.Seed, err = strconv.ParseInt(value, 10, 64)
		case "horizon":
			spec.Horizon, err = strconv.ParseFloat(value, 64)
		case "epoch":
			spec.Epoch, err = strconv.ParseFloat(value, 64)
		case "step":
			spec.Step, err = strconv.ParseFloat(value, 64)
		case "dark":
			spec.Dark, err = strconv.ParseFloat(value, 64)
		default:
			return Spec{}, fmt.Errorf("fleet: unknown spec key %q (want n, seed, horizon, epoch, step, dark)", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fleet: spec key %s: %w", key, err)
		}
	}
	return spec, spec.validate()
}

// posFinite reports whether x is a strictly positive, finite float. The
// naive `x <= 0` reject lets NaN through — `NaN <= 0` is false in Go — so a
// spec like "horizon=NaN" used to validate, producing a NaN-geometry run
// and a "horizon=NaN" cache key. `x > 0` is false for NaN, and the explicit
// Inf check closes the other door ParseFloat leaves open ("horizon=Inf").
func posFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// validate rejects specs that cannot run.
func (s Spec) validate() error {
	if s.N <= 0 {
		return fmt.Errorf("fleet: n must be positive, got %d", s.N)
	}
	if !posFinite(s.Horizon) || !posFinite(s.Epoch) || !posFinite(s.Step) {
		return fmt.Errorf("fleet: horizon, epoch and step must be positive and finite (horizon=%g epoch=%g step=%g)",
			s.Horizon, s.Epoch, s.Step)
	}
	if s.Step > s.Horizon {
		return fmt.Errorf("fleet: step %g exceeds horizon %g", s.Step, s.Horizon)
	}
	if !(s.Dark >= 0 && s.Dark <= 1) { // rejects NaN too
		return fmt.Errorf("fleet: dark must be in [0, 1], got %g", s.Dark)
	}
	return nil
}
