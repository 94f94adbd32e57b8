package scenario

// The replayable on-disk light-trace format. A recorded environment is a
// versioned JSON envelope around the sampled irradiance series; float64
// samples survive the JSON round trip exactly (encoding/json emits the
// shortest representation that parses back to the same bits), so a
// replayed trace drives the simulator through the identical sample
// sequence and the re-run's report is byte-identical to the original's —
// the regression-pinning property the format exists for.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/weather"
)

// Errors returned by the trace codec.
var (
	// ErrBadTraceFile indicates a trace file that fails decode validation.
	ErrBadTraceFile = errors.New("scenario: invalid trace file")
)

// Trace file schema constants.
const (
	// TraceFormat is the format tag every trace file carries.
	TraceFormat = "hem-light-trace"
	// TraceVersion is the schema version this build reads and writes.
	TraceVersion = 1
	// MaxTraceSamples bounds what a decode will accept; at the default
	// scenario resolution this is over three simulated hours.
	MaxTraceSamples = 1 << 28
)

// traceFile is the on-disk envelope.
type traceFile struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	StepS   float64   `json:"step_s"`
	Samples []float64 `json:"samples"`
}

// WriteTrace encodes tr into the versioned trace format.
func WriteTrace(w io.Writer, tr *weather.Trace) error {
	if tr == nil || len(tr.Samples) == 0 {
		return fmt.Errorf("%w: nothing to write (empty trace)", ErrBadTraceFile)
	}
	if !posFinite(tr.Step) {
		return fmt.Errorf("%w: step %g must be positive and finite", ErrBadTraceFile, tr.Step)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		Format:  TraceFormat,
		Version: TraceVersion,
		StepS:   tr.Step,
		Samples: tr.Samples,
	})
}

// ReadTrace decodes a recorded trace, validating the envelope before any
// sample reaches the simulator: the file must hold exactly one JSON
// document, the format tag and version must match, the step must be
// positive and finite (a zero or NaN step would turn weather.Trace.At into
// a constant — or, before the At guard, NaN positions), and every sample
// must be a finite, non-negative light level.
func ReadTrace(r io.Reader) (*weather.Trace, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the trace document", ErrBadTraceFile)
	}
	if tf.Format != TraceFormat {
		return nil, fmt.Errorf("%w: format %q (want %q)", ErrBadTraceFile, tf.Format, TraceFormat)
	}
	if tf.Version != TraceVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrBadTraceFile, tf.Version, TraceVersion)
	}
	if !posFinite(tf.StepS) {
		return nil, fmt.Errorf("%w: step %g must be positive and finite", ErrBadTraceFile, tf.StepS)
	}
	if len(tf.Samples) == 0 || len(tf.Samples) > MaxTraceSamples {
		return nil, fmt.Errorf("%w: %d samples outside [1, %d]", ErrBadTraceFile, len(tf.Samples), MaxTraceSamples)
	}
	for i, v := range tf.Samples {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%w: sample %d = %g is not a finite non-negative light level", ErrBadTraceFile, i, v)
		}
	}
	return &weather.Trace{Step: tf.StepS, Samples: tf.Samples}, nil
}

// WriteTraceFile records tr at path.
func WriteTraceFile(path string, tr *weather.Trace) error {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadTraceFile loads a recorded trace from path.
func ReadTraceFile(path string) (*weather.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}
