// Command hemtrace works with simulation event traces (internal/trace):
// it records a traced experiment from the registry, filters and converts
// existing trace files, and summarises them into event counts, span
// durations and time-in-mode tables. JSONL is the interchange format;
// Chrome trace JSON (chrome://tracing, Perfetto) is the viewer format.
//
// Usage:
//
//	hemtrace record   [-o file] [-format jsonl|chrome] <experiment-id>
//	hemtrace filter   [-kind k] [-track prefix] [-o file] <in.jsonl>
//	hemtrace convert  [-format jsonl|chrome] [-o file] <in.jsonl>
//	hemtrace summarize <in.jsonl>
//	hemtrace validate  <in.jsonl>
//	hemtrace list
//
// "-" reads from stdin; -o defaults to stdout. For record and convert
// with no explicit -format, an -o ending in .json selects the Chrome
// format, anything else JSONL.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/expt"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hemtrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "record":
		return cmdRecord(rest, stdout)
	case "filter":
		return cmdFilter(rest, stdout)
	case "convert":
		return cmdConvert(rest, stdout)
	case "summarize":
		return cmdSummarize(rest, stdout)
	case "validate":
		return cmdValidate(rest, stdout)
	case "list":
		return cmdList(stdout)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: hemtrace record|filter|convert|summarize|validate|list (see the command doc)")
}

// cmdList prints the experiments with traced runners.
func cmdList(stdout io.Writer) error {
	for _, id := range expt.TracedIDs() {
		fmt.Fprintln(stdout, id)
	}
	return nil
}

// cmdRecord re-runs one traced experiment and writes its events.
func cmdRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemtrace record", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "", "jsonl or chrome (default from -o extension, else jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("record wants exactly one experiment ID (hemtrace list shows the traced ones)")
	}
	f := trace.FormatFor(*out)
	if *format != "" {
		var err error
		if f, err = namedFormat(*format); err != nil {
			return err
		}
	}
	events, err := expt.TraceEvents(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeOut(*out, f, events, stdout)
}

// cmdFilter keeps the events matching -kind / -track and re-emits JSONL.
func cmdFilter(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemtrace filter", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	kind := fs.String("kind", "", "keep only events of this kind (e.g. mppt.retrack)")
	track := fs.String("track", "", "keep only events whose track has this prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := readIn(fs.Args())
	if err != nil {
		return err
	}
	events = trace.Filter(events, func(ev trace.Event) bool {
		if *kind != "" && ev.Kind != *kind {
			return false
		}
		if *track != "" && !strings.HasPrefix(ev.Track, *track) {
			return false
		}
		return true
	})
	return writeOut(*out, trace.FormatJSONL, events, stdout)
}

// cmdConvert rewrites a trace in another format.
func cmdConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemtrace convert", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "", "jsonl or chrome (default from -o extension, else chrome)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := readIn(fs.Args())
	if err != nil {
		return err
	}
	f := trace.FormatChrome // convert's default output is the viewer format
	switch {
	case *format != "":
		if f, err = namedFormat(*format); err != nil {
			return err
		}
	case *out != "":
		f = trace.FormatFor(*out)
	}
	return writeOut(*out, f, events, stdout)
}

// cmdSummarize prints the event-count / span / time-in-mode report.
func cmdSummarize(args []string, stdout io.Writer) error {
	events, err := readIn(args)
	if err != nil {
		return err
	}
	return trace.Summarize(events).Write(stdout)
}

// cmdValidate checks the trace file and reports its size; a bad event
// (unknown clock or phase, non-monotonic sequence) is a hard error.
func cmdValidate(args []string, stdout io.Writer) error {
	events, err := readIn(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ok: %d events, %d kinds\n", len(events), len(trace.Kinds(events)))
	return nil
}

// readIn loads the single JSONL input ("-" or no argument means stdin),
// validating every event on the way in.
func readIn(args []string) ([]trace.Event, error) {
	if len(args) > 1 {
		return nil, fmt.Errorf("want at most one input file (got %d)", len(args))
	}
	if len(args) == 0 || args[0] == "-" {
		return trace.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", args[0], err)
	}
	return events, nil
}

// namedFormat maps an explicit -format value to a trace format.
func namedFormat(name string) (string, error) {
	switch name {
	case "jsonl":
		return trace.FormatJSONL, nil
	case "chrome":
		return trace.FormatChrome, nil
	default:
		return "", fmt.Errorf("unknown format %q (want jsonl or chrome)", name)
	}
}

// writeOut renders the events to -o, or stdout when empty.
func writeOut(out, format string, events []trace.Event, stdout io.Writer) error {
	if out == "" {
		return trace.Write(stdout, format, events)
	}
	return trace.WriteFile(out, format, events)
}
