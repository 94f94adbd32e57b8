package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/weather"
)

// TestTraceFileRoundTrip: write → read preserves the step and every sample
// bit-for-bit, including values with no short decimal form.
func TestTraceFileRoundTrip(t *testing.T) {
	tr := &weather.Trace{Step: 5e-5, Samples: []float64{
		0, 1, 0.1 + 0.2, math.Pi, 1.0 / 3.0, math.SmallestNonzeroFloat64, 1e30,
	}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != tr.Step {
		t.Errorf("step %v != %v", got.Step, tr.Step)
	}
	if !reflect.DeepEqual(got.Samples, tr.Samples) {
		t.Errorf("samples changed across the round trip:\n%v\n%v", got.Samples, tr.Samples)
	}

	path := filepath.Join(t.TempDir(), "t.json")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Error("file round trip differs from stream round trip")
	}
}

// TestWriteTraceRejects: the encoder refuses traces that could not be
// replayed.
func TestWriteTraceRejects(t *testing.T) {
	for name, tr := range map[string]*weather.Trace{
		"nil":       nil,
		"empty":     {Step: 0.1},
		"zero step": {Step: 0, Samples: []float64{1}},
		"NaN step":  {Step: math.NaN(), Samples: []float64{1}},
	} {
		if err := WriteTrace(&bytes.Buffer{}, tr); !errors.Is(err, ErrBadTraceFile) {
			t.Errorf("%s: got %v, want ErrBadTraceFile", name, err)
		}
	}
}

// TestReadTraceRejects: decode-time validation. The zero/negative-step
// rejection is the satellite regression: before weather.Trace.At grew its
// degenerate-step guard, a zero-step trace made At() divide by zero.
func TestReadTraceRejects(t *testing.T) {
	for name, text := range map[string]string{
		"not json":        `nope`,
		"wrong format":    `{"format":"other","version":1,"step_s":0.1,"samples":[1]}`,
		"wrong version":   fmt.Sprintf(`{"format":%q,"version":2,"step_s":0.1,"samples":[1]}`, TraceFormat),
		"zero step":       fmt.Sprintf(`{"format":%q,"version":1,"step_s":0,"samples":[1]}`, TraceFormat),
		"negative step":   fmt.Sprintf(`{"format":%q,"version":1,"step_s":-0.1,"samples":[1]}`, TraceFormat),
		"no samples":      fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[]}`, TraceFormat),
		"negative sample": fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[1,-2]}`, TraceFormat),
		"unknown field":   fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[1],"extra":1}`, TraceFormat),
		"trailing data":   fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[1]}garbage`, TraceFormat),
		"two envelopes":   strings.Repeat(fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[1]}`, TraceFormat), 2),
		"second format":   fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[1]}{"format":"x"}`, TraceFormat),
	} {
		if _, err := ReadTrace(strings.NewReader(text)); !errors.Is(err, ErrBadTraceFile) {
			t.Errorf("%s: got %v, want ErrBadTraceFile", name, err)
		}
	}
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzReadTrace fuzzes the trace decoder: a rejection is always fine (and
// must not panic), and every accepted trace must round-trip through
// WriteTrace with the identical step and sample bits.
func FuzzReadTrace(f *testing.F) {
	valid := fmt.Sprintf(`{"format":%q,"version":1,"step_s":0.1,"samples":[0,0.5,1]}`, TraceFormat)
	f.Add(valid)
	f.Add(valid + "\n")
	f.Add(valid + "garbage")
	f.Add(valid + valid)
	f.Add(valid + `{"format":"x"}`)
	f.Add(fmt.Sprintf(`{"format":%q,"version":1,"step_s":5e-324,"samples":[1e-320,1e308,0.30000000000000004]}`, TraceFormat))
	f.Add(fmt.Sprintf(`{"format":%q,"version":1,"step_s":1e-4,"samples":[-0]}`, TraceFormat))
	f.Add(``)
	f.Add(`null`)
	f.Add(`{"format":"hem-light-trace","version":1,"step_s":1,"samples":null}`)
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadTrace(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTraceFile) {
				t.Fatalf("rejection %v does not wrap ErrBadTraceFile", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not encode: %v\ninput: %q", err, data)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("encoded trace rejected: %v\nencoded: %q", err, buf.String())
		}
		if math.Float64bits(back.Step) != math.Float64bits(tr.Step) || len(back.Samples) != len(tr.Samples) {
			t.Fatalf("round trip changed step %v -> %v or %d -> %d samples", tr.Step, back.Step, len(tr.Samples), len(back.Samples))
		}
		for i, v := range tr.Samples {
			if math.Float64bits(back.Samples[i]) != math.Float64bits(v) {
				t.Fatalf("round trip changed sample %d: %v -> %v", i, v, back.Samples[i])
			}
		}
	})
}
