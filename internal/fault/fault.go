// Package fault is the deterministic chaos layer of the reproduction: it
// turns a declarative fault plan (JSON) into concrete injections against
// the simulation and serving stacks — irradiance collapses and brownout
// pulses into the transient simulator, torn commit marks and restore-time
// bit-rot into the intermittent executor's modelled NVM, and latency/error
// injection into the HTTP serving layer and its simulation gate.
//
// The paper's whole premise is surviving hostile power conditions; the
// registry experiments only exercise the benign profiles baked into their
// drivers. A fault plan lets the same drivers re-run at the failure
// boundary — where the double-buffered checkpoint and regulator-bypass
// logic actually earn their keep — and every injected fault is recorded as
// a `fault.*` event through internal/trace, so a chaos run is replayable
// and diffable like any other trace.
//
// Determinism contract: all randomness flows through *rand.Rand streams
// derived from the plan seed and a caller-chosen stream name (typically
// the experiment ID), mirroring internal/weather. Two runs of the same
// plan against the same stream produce byte-identical injections — and,
// because every stream is independent, so do runs that schedule the
// streams onto different worker counts (-j parity).
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
)

// Errors returned by this package.
var (
	// ErrBadPlan indicates a fault plan that fails validation.
	ErrBadPlan = errors.New("fault: invalid plan")

	// ErrInjected marks an artificially injected failure. Resilience layers
	// (the batch-render retry in internal/serve) treat it as transient.
	ErrInjected = errors.New("fault: injected error")
)

// MaxWindows bounds the brownout windows one plan may resolve to on one
// stream: explicit pulses with their repetitions, plus random pulses. It
// sits orders of magnitude above any plan a run can use (the canonical
// chaos plan resolves to three), so it only turns hostile plans — a
// period below the float resolution of its start time, a two-billion
// pulse count — into ErrBadPlan instead of an endless loop or a
// multi-gigabyte allocation.
const MaxWindows = 1 << 16

// Injectedf returns an injected-failure error with detail; errors.Is
// against ErrInjected identifies it.
func Injectedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInjected, fmt.Sprintf(format, args...))
}

// Pulse is one brownout window: between AtS and AtS+DurationS the ambient
// light is multiplied by Depth (0 = total darkness, the default). EveryS,
// when positive, repeats the pulse with that period up to the horizon —
// the software analog of the paper's hand-made dimming events, but
// composable and replayable.
type Pulse struct {
	AtS       float64 `json:"at_s"`
	DurationS float64 `json:"duration_s"`
	EveryS    float64 `json:"every_s,omitempty"`
	Depth     float64 `json:"depth,omitempty"`
}

// validate checks one pulse.
func (p Pulse) validate() error {
	switch {
	case p.AtS < 0:
		return fmt.Errorf("%w: pulse at_s %g < 0", ErrBadPlan, p.AtS)
	case p.DurationS <= 0:
		return fmt.Errorf("%w: pulse duration_s %g <= 0", ErrBadPlan, p.DurationS)
	case p.EveryS < 0:
		return fmt.Errorf("%w: pulse every_s %g < 0", ErrBadPlan, p.EveryS)
	case p.EveryS > 0 && p.EveryS < p.DurationS:
		return fmt.Errorf("%w: pulse every_s %g < duration_s %g (pulses would overlap themselves)",
			ErrBadPlan, p.EveryS, p.DurationS)
	case p.Depth < 0 || p.Depth >= 1:
		return fmt.Errorf("%w: pulse depth %g outside [0, 1)", ErrBadPlan, p.Depth)
	}
	return nil
}

// RandomPulses seeds Count additional brownout pulses from the injector's
// stream: starts uniform over the run horizon, durations exponential with
// the given mean. Depth behaves as in Pulse.
type RandomPulses struct {
	Count         int     `json:"count"`
	MeanDurationS float64 `json:"mean_duration_s"`
	Depth         float64 `json:"depth,omitempty"`
}

// validate checks the random-pulse parameters.
func (r RandomPulses) validate() error {
	switch {
	case r.Count < 0:
		return fmt.Errorf("%w: random_brownouts count %d < 0", ErrBadPlan, r.Count)
	case r.Count > MaxWindows:
		return fmt.Errorf("%w: random_brownouts count %d > %d", ErrBadPlan, r.Count, MaxWindows)
	case r.Count > 0 && r.MeanDurationS <= 0:
		return fmt.Errorf("%w: random_brownouts mean_duration_s %g <= 0", ErrBadPlan, r.MeanDurationS)
	case r.Depth < 0 || r.Depth >= 1:
		return fmt.Errorf("%w: random_brownouts depth %g outside [0, 1)", ErrBadPlan, r.Depth)
	}
	return nil
}

// NVMPlan injects checkpoint-store faults into the intermittent executor:
// TornWriteProb is the per-commit probability that the commit mark fails
// (the write burns its cycles but the image is discarded; the previous
// commit survives — double buffering). RestoreBitrotProb is the
// per-restore probability that the newest image fails its integrity check,
// forcing fallback to the older buffered image. FailEveryN, when positive,
// deterministically tears every Nth commit mark in addition to the
// probabilistic draws (1 = every commit).
type NVMPlan struct {
	TornWriteProb     float64 `json:"torn_write_prob,omitempty"`
	RestoreBitrotProb float64 `json:"restore_bitrot_prob,omitempty"`
	FailEveryN        int     `json:"fail_every_n,omitempty"`
}

// validate checks the NVM fault parameters.
func (n NVMPlan) validate() error {
	switch {
	case n.TornWriteProb < 0 || n.TornWriteProb > 1:
		return fmt.Errorf("%w: nvm torn_write_prob %g outside [0, 1]", ErrBadPlan, n.TornWriteProb)
	case n.RestoreBitrotProb < 0 || n.RestoreBitrotProb > 1:
		return fmt.Errorf("%w: nvm restore_bitrot_prob %g outside [0, 1]", ErrBadPlan, n.RestoreBitrotProb)
	case n.FailEveryN < 0:
		return fmt.Errorf("%w: nvm fail_every_n %d < 0", ErrBadPlan, n.FailEveryN)
	}
	return nil
}

// ServePlan injects faults into the HTTP serving layer. Latency fields add
// a per-request delay (base plus uniform jitter); ErrorProb fails the
// request outright with ErrorStatus (default 500) before the handler runs;
// RenderErrorProb fails individual report renders inside the simulation
// gate (exercising the batch retry path); GateHoldMS holds every acquired
// gate slot for the given time, simulating slow simulations to drive the
// gate into saturation (and the degraded stale-serving path with it).
type ServePlan struct {
	LatencyMS       float64 `json:"latency_ms,omitempty"`
	LatencyJitterMS float64 `json:"latency_jitter_ms,omitempty"`
	ErrorProb       float64 `json:"error_prob,omitempty"`
	ErrorStatus     int     `json:"error_status,omitempty"`
	RenderErrorProb float64 `json:"render_error_prob,omitempty"`
	GateHoldMS      float64 `json:"gate_hold_ms,omitempty"`
}

// validate checks the serve fault parameters.
func (s ServePlan) validate() error {
	switch {
	case s.LatencyMS < 0 || s.LatencyJitterMS < 0:
		return fmt.Errorf("%w: serve latency must be >= 0", ErrBadPlan)
	case s.ErrorProb < 0 || s.ErrorProb > 1:
		return fmt.Errorf("%w: serve error_prob %g outside [0, 1]", ErrBadPlan, s.ErrorProb)
	case s.RenderErrorProb < 0 || s.RenderErrorProb > 1:
		return fmt.Errorf("%w: serve render_error_prob %g outside [0, 1]", ErrBadPlan, s.RenderErrorProb)
	case s.ErrorStatus != 0 && (s.ErrorStatus < 400 || s.ErrorStatus > 599):
		return fmt.Errorf("%w: serve error_status %d outside [400, 599]", ErrBadPlan, s.ErrorStatus)
	case s.GateHoldMS < 0:
		return fmt.Errorf("%w: serve gate_hold_ms %g < 0", ErrBadPlan, s.GateHoldMS)
	}
	return nil
}

// Zero reports whether the plan injects nothing.
func (s ServePlan) Zero() bool { return s == (ServePlan{}) }

// Plan is one declarative chaos scenario. The zero value is a valid plan
// that injects nothing.
type Plan struct {
	// Seed roots every derived random stream. Zero is a valid seed.
	Seed int64 `json:"seed"`
	// Brownouts are explicit irradiance-collapse pulses.
	Brownouts []Pulse `json:"brownouts,omitempty"`
	// Random seeds additional pulses from the per-stream rng.
	Random *RandomPulses `json:"random_brownouts,omitempty"`
	// NVM injects checkpoint-store faults.
	NVM *NVMPlan `json:"nvm,omitempty"`
	// Serve injects HTTP-layer faults.
	Serve *ServePlan `json:"serve,omitempty"`
}

// Validate checks every section of the plan.
func (p Plan) Validate() error {
	for _, b := range p.Brownouts {
		if err := b.validate(); err != nil {
			return err
		}
	}
	if p.Random != nil {
		if err := p.Random.validate(); err != nil {
			return err
		}
	}
	if p.NVM != nil {
		if err := p.NVM.validate(); err != nil {
			return err
		}
	}
	if p.Serve != nil {
		if err := p.Serve.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ParsePlan decodes and validates a plan. Unknown fields are rejected so
// schema typos fail loudly instead of silently injecting nothing, and so
// is anything after the plan document.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrBadPlan, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Plan{}, fmt.Errorf("%w: trailing data after the plan document", ErrBadPlan)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: read plan: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return Plan{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// StreamSeed derives the rng seed for one (plan seed, stream, domain)
// triple: the 64-bit FNV-1a hash of the seed's decimal digits, the stream
// and the domain, NUL-separated (the bytes of
// fmt.Sprintf("%d\x00%s\x00%s", seed, stream, domain), hashed without
// fmt or a heap allocation). Separate domains keep the brownout draws from
// perturbing the NVM draws (and vice versa), so adding faults in one
// domain never shifts another's sequence.
func StreamSeed(seed int64, stream, domain string) int64 {
	var digits [20]byte // len("-9223372036854775808")
	h := fnv1a(fnvOffset64, strconv.AppendInt(digits[:0], seed, 10))
	h = fnv1a(fnv1a(h, "\x00"), stream)
	h = fnv1a(fnv1a(h, "\x00"), domain)
	return int64(h)
}

// The 64-bit FNV-1a parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the bytes of s into the FNV-1a state h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// newRand returns the seeded stream for one injection domain.
func newRand(seed int64, stream, domain string) *rand.Rand {
	return rand.New(NewSource(StreamSeed(seed, stream, domain)))
}
