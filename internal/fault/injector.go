package fault

// The Injector resolves one plan against one named stream (experiment).
// All random draws happen inside domain-separated, per-stream rngs, so an
// injector's behavior depends only on (plan, stream) — never on worker
// scheduling or on how many other streams the same plan feeds.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Injector applies a Plan to one stream (typically one experiment run).
// Construct with New; an Injector is not safe for concurrent use — give
// each worker its own, which is also what determinism requires.
type Injector struct {
	plan   Plan
	stream string
}

// New returns the injector for plan against the named stream.
func New(plan Plan, stream string) *Injector {
	return &Injector{plan: plan, stream: stream}
}

// Window is one resolved brownout interval: light is multiplied by Depth
// for Start <= t < End.
type Window struct {
	Start float64
	End   float64
	Depth float64
}

// Brownouts resolves the plan's explicit and random pulses over [0,
// horizon] into a sorted, non-overlapping window set. The random draws
// come from the stream's "brownout" domain, so resolving twice (or on a
// different worker) yields identical windows. A plan that would resolve
// to more than MaxWindows windows over the horizon returns ErrBadPlan
// before anything is allocated.
func (in *Injector) Brownouts(horizon float64) (*Brownouts, error) {
	n := 0
	if r := in.plan.Random; r != nil && r.Count > 0 && horizon > 0 {
		n = r.Count
	}
	for _, p := range in.plan.Brownouts {
		n += p.starts(horizon, MaxWindows-n)
	}
	if n > MaxWindows {
		return nil, fmt.Errorf("%w: brownouts resolve to more than %d windows over a %g s horizon",
			ErrBadPlan, MaxWindows, horizon)
	}
	ws := make([]Window, 0, n)
	for _, p := range in.plan.Brownouts {
		for at := p.AtS; at < horizon; at += p.EveryS {
			ws = append(ws, Window{Start: at, End: at + p.DurationS, Depth: p.Depth})
			if p.EveryS <= 0 {
				break
			}
		}
	}
	if r := in.plan.Random; r != nil && r.Count > 0 && horizon > 0 {
		rng := newRand(in.plan.Seed, in.stream, "brownout")
		for i := 0; i < r.Count; i++ {
			start := rng.Float64() * horizon
			dur := rng.ExpFloat64() * r.MeanDurationS
			ws = append(ws, Window{Start: start, End: start + dur, Depth: r.Depth})
		}
	}
	return &Brownouts{windows: mergeWindows(ws)}, nil
}

// starts counts the pulse's window starts before horizon, accumulating
// exactly as Brownouts does, and stops counting once it passes limit — a
// period too small to advance the start would otherwise never end.
func (p Pulse) starts(horizon float64, limit int) int {
	n := 0
	for at := p.AtS; at < horizon && n <= limit; at += p.EveryS {
		n++
		if p.EveryS <= 0 {
			break
		}
	}
	return n
}

// NVM returns the plan's checkpoint-store fault stream, or nil when the
// plan has no NVM section — callers can assign it directly to the
// intermittent executor's Faults field (a nil interface disables
// injection).
func (in *Injector) NVM() *NVMInjector {
	if in.plan.NVM == nil {
		return nil
	}
	return &NVMInjector{
		plan: *in.plan.NVM,
		rng:  newRand(in.plan.Seed, in.stream, "nvm"),
	}
}

// mergeWindows sorts windows by start and merges overlaps; where windows
// overlap, the darker (smaller) depth wins.
func mergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Start != ws[j].Start {
			return ws[i].Start < ws[j].Start
		}
		return ws[i].End < ws[j].End
	})
	merged := []Window{ws[0]}
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			if w.Depth < last.Depth {
				last.Depth = w.Depth
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// Brownouts is a resolved set of irradiance-collapse windows.
type Brownouts struct {
	windows []Window
}

// Wrap composes the brownout windows onto an irradiance function: inside a
// window the base light is multiplied by the window's depth. The wrapped
// function is pure, so it is safe anywhere circuit.Config.Irradiance is.
func (b *Brownouts) Wrap(base func(t float64) float64) func(t float64) float64 {
	if len(b.windows) == 0 {
		return base
	}
	windows := b.windows
	return func(t float64) float64 {
		irr := base(t)
		// First window starting after t; the candidate is its predecessor.
		i := sort.Search(len(windows), func(i int) bool { return windows[i].Start > t })
		if i > 0 && t < windows[i-1].End {
			return irr * windows[i-1].Depth
		}
		return irr
	}
}

// Emit records the resolved schedule as fault.brownout spans (plus one
// fault.plan instant carrying the stream's identity) so a chaos trace
// shows exactly when and how hard the light was cut. Emit before the run:
// the spans carry sim-clock times from the schedule itself.
func (b *Brownouts) Emit(tr trace.Tracer, track string, seed int64) {
	if !trace.On(tr) {
		return
	}
	trace.Instant(tr, "fault.plan", 0, track, trace.Args{
		"seed": float64(seed), "brownouts": float64(len(b.windows)),
	})
	for _, w := range b.windows {
		trace.Begin(tr, "fault.brownout", w.Start, track, trace.Args{"depth": w.Depth})
		trace.End(tr, "fault.brownout", w.End, track, nil)
	}
}

// NVMInjector decides, commit by commit and restore by restore, which
// checkpoint-store operations fail. It implements the intermittent
// package's Faults interface. Calls must happen in simulation order (they
// do: one executor runs on one goroutine), which keeps the rng sequence —
// and therefore the whole chaos run — deterministic.
type NVMInjector struct {
	plan NVMPlan
	rng  *rand.Rand
}

// TornWrite implements the executor's fault hook: it reports whether
// commit n's mark fails. FailEveryN tears deterministically; the
// probability draw happens on every call either way so the stream stays
// aligned with the commit index.
func (n *NVMInjector) TornWrite(commit int) bool {
	if n == nil {
		return false
	}
	torn := n.rng.Float64() < n.plan.TornWriteProb
	if n.plan.FailEveryN > 0 && (commit+1)%n.plan.FailEveryN == 0 {
		torn = true
	}
	return torn
}

// CorruptRestore reports whether restore r reads a bit-rotted image.
func (n *NVMInjector) CorruptRestore(restore int) bool {
	if n == nil {
		return false
	}
	return n.rng.Float64() < n.plan.RestoreBitrotProb
}

// ServeInjector applies ServePlans in the HTTP serving layer. Unlike the
// simulation-side injectors it lives in the wall-clock domain and is
// shared across request goroutines, so its rng is mutex-guarded; serving
// chaos is reproducible per seed but (like all wall-clock behavior) not
// byte-stable across schedules.
type ServeInjector struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewServe returns a request-level injector rooted at seed.
func NewServe(seed int64) *ServeInjector {
	return &ServeInjector{rng: rand.New(NewSource(StreamSeed(seed, "serve", "http")))}
}

// Decision is the injector's verdict for one request under one plan.
type Decision struct {
	Delay       time.Duration // pre-handler latency to add
	Fail        bool          // fail the request before the handler
	Status      int           // status for an injected failure
	RenderFault bool          // fail the request's report renders
	GateHold    time.Duration // extra time to hold each gate slot
}

// Decide draws one request's injections from the plan.
func (s *ServeInjector) Decide(plan ServePlan) Decision {
	if s == nil || plan.Zero() {
		return Decision{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := Decision{
		Delay:    time.Duration(plan.LatencyMS * float64(time.Millisecond)),
		GateHold: time.Duration(plan.GateHoldMS * float64(time.Millisecond)),
	}
	if plan.LatencyJitterMS > 0 {
		d.Delay += time.Duration(s.rng.Float64() * plan.LatencyJitterMS * float64(time.Millisecond))
	}
	if plan.ErrorProb > 0 && s.rng.Float64() < plan.ErrorProb {
		d.Fail = true
		d.Status = plan.ErrorStatus
		if d.Status == 0 {
			d.Status = 500
		}
	}
	if plan.RenderErrorProb > 0 && s.rng.Float64() < plan.RenderErrorProb {
		d.RenderFault = true
	}
	return d
}
