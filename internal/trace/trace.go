// Package trace is the simulation-level event layer of the reproduction:
// an allocation-light recorder for the *decisions* the energy-management
// policies make — MPP re-tracking, sprint phase changes, regulator-bypass
// handoffs, checkpoint commits, power failures — which the report numbers
// summarise but never show in time. It is the software analog of the scope
// waveforms in the paper's Fig. 10-11.
//
// Two clock domains are kept as separate tracks: ClockSim timestamps are
// simulated seconds (deterministic — a traced run produces byte-identical
// events regardless of worker count or machine), ClockWall timestamps are
// wall-clock seconds relative to a run anchor (for worker attribution and
// queue-wait spans, inherently non-deterministic). Deterministic consumers
// (golden snapshots, the -j parity tests) use the sim domain only.
//
// The package has no dependencies beyond the standard library and records
// nothing by itself: producers hold a Tracer that is nil when tracing is
// off, so an untraced hot path pays one nil comparison per potential event
// and never builds an argument map. The emission pattern is
//
//	if trace.On(tr) {
//	    trace.Instant(tr, "mppt.retrack", simTime, "", trace.Args{"pin_w": pin})
//	}
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Clock selects the time domain of an event.
type Clock string

// The two clock domains. Simulated time is deterministic; wall time is not.
const (
	ClockSim  Clock = "sim"  // simulated seconds since the run's t=0
	ClockWall Clock = "wall" // wall-clock seconds since the recorder's anchor
)

// Phase is the event shape, mirroring the Chrome trace_event phases so the
// export is a direct mapping.
type Phase string

// Event phases.
const (
	PhaseInstant Phase = "i" // a point decision or transition
	PhaseBegin   Phase = "B" // opens a span (estimation window, checkpoint)
	PhaseEnd     Phase = "E" // closes the innermost open span on the track
	PhaseCounter Phase = "C" // a sampled quantity (counter track)
)

// Args carries an event's payload: numbers, booleans and short strings.
// Keys marshal in sorted order (encoding/json), keeping JSONL output
// deterministic.
type Args map[string]any

// Event is one recorded occurrence. Seq is assigned by the Recorder and is
// unique per recorder; merged traces are re-sequenced (Merge). Track groups
// related events into one timeline lane — experiment variant, controller
// name, worker — and maps to a Chrome trace thread.
type Event struct {
	Seq   uint64  `json:"seq"`
	Clock Clock   `json:"clock"`
	Time  float64 `json:"t"` // seconds in the clock's domain
	Kind  string  `json:"kind"`
	Phase Phase   `json:"ph"`
	Track string  `json:"track,omitempty"`
	Args  Args    `json:"args,omitempty"`
}

// Tracer receives events. Emit must be safe for concurrent use; the
// Recorder implementation is. A nil Tracer means tracing is off.
type Tracer interface {
	Emit(ev Event)
}

// On reports whether tracing is active. Producers guard argument
// construction with it so the untraced path allocates nothing.
func On(t Tracer) bool { return t != nil }

// Instant emits a point event on the given clock-agnostic helper's sim
// clock. All helpers are nil-safe: a nil tracer drops the event.
func Instant(t Tracer, kind string, simTime float64, track string, args Args) {
	if t == nil {
		return
	}
	t.Emit(Event{Clock: ClockSim, Time: simTime, Kind: kind, Phase: PhaseInstant, Track: track, Args: args})
}

// Begin opens a span on the sim clock.
func Begin(t Tracer, kind string, simTime float64, track string, args Args) {
	if t == nil {
		return
	}
	t.Emit(Event{Clock: ClockSim, Time: simTime, Kind: kind, Phase: PhaseBegin, Track: track, Args: args})
}

// End closes a span on the sim clock.
func End(t Tracer, kind string, simTime float64, track string, args Args) {
	if t == nil {
		return
	}
	t.Emit(Event{Clock: ClockSim, Time: simTime, Kind: kind, Phase: PhaseEnd, Track: track, Args: args})
}

// Counter emits a sampled quantity on the sim clock.
func Counter(t Tracer, kind string, simTime float64, track string, args Args) {
	if t == nil {
		return
	}
	t.Emit(Event{Clock: ClockSim, Time: simTime, Kind: kind, Phase: PhaseCounter, Track: track, Args: args})
}

// Prefixed returns a tracer that namespaces every event's track under
// prefix before forwarding to t: "prefix/track", or the bare prefix for
// events with no track. Multi-experiment runs use it to keep same-named
// tracks (e.g. two figures' "constant" variants) in separate lanes.
// A nil tracer stays nil so On() keeps short-circuiting.
func Prefixed(t Tracer, prefix string) Tracer {
	if t == nil {
		return nil
	}
	return prefixTracer{t: t, prefix: prefix}
}

type prefixTracer struct {
	t      Tracer
	prefix string
}

// Emit implements Tracer.
func (p prefixTracer) Emit(ev Event) {
	if ev.Track == "" {
		ev.Track = p.prefix
	} else {
		ev.Track = p.prefix + "/" + ev.Track
	}
	p.t.Emit(ev)
}

// WallSpan emits a begin/end pair on the wall clock, for spans measured
// outside the simulation (runner jobs, queue waits). start and end are
// seconds since the trace's wall anchor.
func WallSpan(t Tracer, kind string, start, end float64, track string, args Args) {
	if t == nil {
		return
	}
	t.Emit(Event{Clock: ClockWall, Time: start, Kind: kind, Phase: PhaseBegin, Track: track, Args: args})
	t.Emit(Event{Clock: ClockWall, Time: end, Kind: kind, Phase: PhaseEnd, Track: track})
}

// Recorder is the canonical Tracer: an append-only in-memory event buffer
// with a per-recorder sequence counter. Safe for concurrent emitters; the
// mutex guards a slice append, so the cost per event is far below one
// simulation step.
type Recorder struct {
	mu     sync.Mutex
	seq    uint64
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Tracer, assigning the event's sequence number.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Merge concatenates event batches (typically one recorder per experiment,
// in registry order) into one trace, renumbering Seq so the merged stream
// is strictly ordered. Batches keep their internal order, which preserves
// determinism: merging the same batches in the same order yields the same
// bytes regardless of how many workers produced them.
func Merge(batches ...[]Event) []Event {
	var n int
	for _, b := range batches {
		n += len(b)
	}
	merged := make([]Event, 0, n)
	var seq uint64
	for _, b := range batches {
		for _, ev := range b {
			ev.Seq = seq
			seq++
			merged = append(merged, ev)
		}
	}
	return merged
}

// Filter returns the events accepted by keep, preserving order and Seq.
func Filter(events []Event, keep func(Event) bool) []Event {
	var out []Event
	for _, ev := range events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// validPhases and validClocks define the schema's closed enumerations.
var (
	validPhases = map[Phase]bool{PhaseInstant: true, PhaseBegin: true, PhaseEnd: true, PhaseCounter: true}
	validClocks = map[Clock]bool{ClockSim: true, ClockWall: true}
)

// Validate checks one event against the schema: a known clock and phase, a
// non-empty dotted kind, and a finite non-negative timestamp. It is the
// contract the JSONL export promises consumers (hemtrace validate, the CI
// trace-smoke step).
func Validate(ev Event) error {
	if !validClocks[ev.Clock] {
		return fmt.Errorf("trace: event %d has unknown clock %q", ev.Seq, ev.Clock)
	}
	if !validPhases[ev.Phase] {
		return fmt.Errorf("trace: event %d has unknown phase %q", ev.Seq, ev.Phase)
	}
	if ev.Kind == "" {
		return fmt.Errorf("trace: event %d has empty kind", ev.Seq)
	}
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
		return fmt.Errorf("trace: event %d (%s) has invalid time %v", ev.Seq, ev.Kind, ev.Time)
	}
	return nil
}

// ValidateAll checks every event and that Seq is strictly increasing.
func ValidateAll(events []Event) error {
	for i, ev := range events {
		if err := validateNext(events[:i], ev); err != nil {
			return err
		}
	}
	return nil
}

// validateNext checks ev and that it may follow the events before it:
// Seq strictly increases along a trace.
func validateNext(before []Event, ev Event) error {
	if err := Validate(ev); err != nil {
		return err
	}
	if n := len(before); n > 0 && ev.Seq <= before[n-1].Seq {
		return fmt.Errorf("trace: seq not strictly increasing at event %d (%d after %d)",
			n, ev.Seq, before[n-1].Seq)
	}
	return nil
}

// Kinds returns the distinct event kinds in sorted order.
func Kinds(events []Event) []string {
	set := map[string]bool{}
	for _, ev := range events {
		set[ev.Kind] = true
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
