package trace

// Trace serialisation. Two formats:
//
//   - JSONL: one Event JSON object per line, the canonical interchange
//     format (hemtrace, the /trace endpoint, golden snapshots). Field
//     order is fixed by the Event struct and map keys marshal sorted, so
//     equal event streams serialise to equal bytes.
//   - Chrome trace_event JSON: loadable in chrome://tracing and Perfetto.
//     The two clock domains map to two synthetic processes ("simulated
//     time" and "wall clock") so their timelines never interleave; tracks
//     map to named threads in first-appearance order.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format names accepted by the CLIs and the /trace endpoint.
const (
	FormatJSONL  = "jsonl"
	FormatChrome = "chrome"
)

// WriteJSONL writes one event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", ev.Seq, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace, validating each event and that Seq
// strictly increases, so whatever it returns passes ValidateAll.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := validateNext(events, ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// chromeEvent is one entry of the trace_event array. Field order fixes the
// serialised byte layout.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`    // instant scope
	Args  map[string]any `json:"args,omitempty"` // sorted keys on marshal
}

// chromeFile is the JSON object format of the trace_event specification.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// clockPIDs maps each clock domain to its synthetic Chrome process.
var clockPIDs = map[Clock]int{ClockSim: 1, ClockWall: 2}

// clockNames labels the synthetic processes in the viewer.
var clockNames = map[Clock]string{ClockSim: "simulated time", ClockWall: "wall clock"}

// WriteChrome writes the events as a Chrome trace_event JSON document.
// Timestamps convert to microseconds (sim seconds and wall seconds alike);
// the clock domains become separate processes so Perfetto renders them as
// separate track groups.
func WriteChrome(w io.Writer, events []Event) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Track -> tid per process, assigned in first-appearance order so the
	// output is a pure function of the event stream.
	type lane struct{ pid, tid int }
	lanes := map[string]lane{}
	nextTID := map[int]int{}
	laneFor := func(clock Clock, track string) lane {
		pid := clockPIDs[clock]
		key := fmt.Sprintf("%d/%s", pid, track)
		if l, ok := lanes[key]; ok {
			return l
		}
		nextTID[pid]++
		l := lane{pid: pid, tid: nextTID[pid]}
		lanes[key] = l
		name := track
		if name == "" {
			name = "main"
		}
		if !seenPID(file.TraceEvents, pid) {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": clockNames[clock]},
			})
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: l.tid,
			Args: map[string]any{"name": name},
		})
		return l
	}

	for _, ev := range events {
		l := laneFor(ev.Clock, ev.Track)
		ce := chromeEvent{
			Name:  ev.Kind,
			Cat:   string(ev.Clock),
			Phase: string(ev.Phase),
			TS:    ev.Time * 1e6,
			PID:   l.pid,
			TID:   l.tid,
		}
		switch ev.Phase {
		case PhaseInstant:
			ce.Scope = "t"
			ce.Args = argsToChrome(ev.Args, false)
		case PhaseCounter:
			// Counter series must be numeric in the trace_event format.
			ce.Args = argsToChrome(ev.Args, true)
		default:
			ce.Args = argsToChrome(ev.Args, false)
		}
		file.TraceEvents = append(file.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// seenPID reports whether a process_name metadata event for pid was already
// emitted.
func seenPID(evs []chromeEvent, pid int) bool {
	for _, ev := range evs {
		if ev.Phase == "M" && ev.Name == "process_name" && ev.PID == pid {
			return true
		}
	}
	return false
}

// argsToChrome converts an Args payload for the Chrome export. With
// numericOnly (counter events), booleans become 0/1 and non-numeric values
// are dropped.
func argsToChrome(args Args, numericOnly bool) map[string]any {
	if len(args) == 0 {
		return nil
	}
	out := make(map[string]any, len(args))
	for k, v := range args {
		if !numericOnly {
			out[k] = v
			continue
		}
		switch t := v.(type) {
		case bool:
			if t {
				out[k] = 1
			} else {
				out[k] = 0
			}
		case float64, float32, int, int64, uint64, uint:
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// FormatFor returns the format a file name selects: a .json extension, in
// any case, is a Chrome trace and anything else JSONL.
func FormatFor(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return FormatChrome
	}
	return FormatJSONL
}

// WriteFile creates (or truncates) the file at path and writes the events
// to it in the named format.
func WriteFile(path, format string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	defer f.Close()
	if err := Write(f, format, events); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// Write serialises events in the named format (FormatJSONL/FormatChrome).
func Write(w io.Writer, format string, events []Event) error {
	switch format {
	case FormatJSONL, "":
		return WriteJSONL(w, events)
	case FormatChrome:
		return WriteChrome(w, events)
	default:
		return fmt.Errorf("trace: unknown format %q (want %s or %s)", format, FormatJSONL, FormatChrome)
	}
}
