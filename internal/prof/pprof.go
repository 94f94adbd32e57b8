package prof

// pprof export: the profile is encoded as a gzipped pprof profile.proto by
// a hand-rolled protobuf writer — the repo takes no dependencies, and the
// subset of the wire format a profile needs (varints, length-delimited
// messages, packed int arrays) is a page of code. Two sample types are
// emitted per sample:
//
//	sim_seconds   / nanoseconds   (simulated time, quantised to 1 ns)
//	energy_joules / femtojoules   (energy, quantised to 1e-15 J)
//
// so `go tool pprof -sample_index=sim_seconds` flames time and
// `-sample_index=energy_joules` flames energy. Femtojoule quantisation
// keeps millijoule-scale totals exact to ~1e-12 relative — far inside the
// 1e-9 reconciliation bar — while int64 still reaches 9.2 kJ.
//
// Every sample's stack reads root-first experiment > node > component >
// state (location IDs are stored leaf-first, as pprof requires), and the
// experiment/node dimensions are additionally attached as string labels so
// pprof's -tagfocus/-tagshow can slice fleets by node.
//
// Determinism: entries are encoded in canonical scope order, bins in
// taxonomy order, the string table in first-use order, and the gzip header
// carries no timestamp — equal profiles encode to equal bytes, which is
// what the fleet -j/batch parity tests compare.

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireBytes  = 2
)

// pbuf is a minimal protobuf writer.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

// intField writes a varint field, omitting the proto3 zero default.
func (p *pbuf) intField(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, wireVarint)
	p.varint(uint64(v))
}

func (p *pbuf) bytesField(field int, b []byte) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) stringField(field int, s string) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packedInts writes a packed repeated integer field.
func (p *pbuf) packedInts(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	p.bytesField(field, inner.b)
}

// profile.proto field numbers.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profDuration    = 10

	vtType = 1
	vtUnit = 2

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locID   = 1
	locLine = 4

	lineFunctionID = 1

	fnID   = 1
	fnName = 2
)

// Quantisation units of the two sample types.
const (
	secondsPerUnit = 1e-9  // sim_seconds in nanoseconds
	joulesPerUnit  = 1e-15 // energy_joules in femtojoules
)

// stringTable interns strings in first-use order; index 0 is "".
type stringTable struct {
	byVal map[string]int64
	vals  []string
}

func newStringTable() *stringTable {
	return &stringTable{byVal: map[string]int64{"": 0}, vals: []string{""}}
}

func (t *stringTable) index(s string) int64 {
	if i, ok := t.byVal[s]; ok {
		return i
	}
	i := int64(len(t.vals))
	t.byVal[s] = i
	t.vals = append(t.vals, s)
	return i
}

// WriteFile creates (or truncates) the file at path and writes the
// profile to it as WritePprof encodes it.
func WriteFile(path string, p *Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create profile file: %w", err)
	}
	defer f.Close()
	if err := WritePprof(f, p); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return f.Close()
}

// WritePprof encodes the profile as a gzipped pprof protobuf. Equal
// profiles produce equal bytes.
func WritePprof(w io.Writer, p *Profile) error {
	strs := newStringTable()
	var out pbuf

	// Sample types: (sim_seconds, nanoseconds), (energy_joules, femtojoules).
	for _, vt := range [][2]string{{"sim_seconds", "nanoseconds"}, {"energy_joules", "femtojoules"}} {
		var m pbuf
		m.intField(vtType, strs.index(vt[0]))
		m.intField(vtUnit, strs.index(vt[1]))
		out.bytesField(profSampleType, m.b)
	}

	// Functions and locations are 1:1: one per unique frame name, created
	// on first use so IDs follow encoding order deterministically.
	locByName := map[string]int64{}
	var fns, locs pbuf
	locOf := func(name string) int64 {
		if id, ok := locByName[name]; ok {
			return id
		}
		id := int64(len(locByName) + 1)
		locByName[name] = id
		var fn pbuf
		fn.intField(fnID, id)
		fn.intField(fnName, strs.index(name))
		fns.bytesField(profFunction, fn.b)
		var line pbuf
		line.intField(lineFunctionID, id)
		var loc pbuf
		loc.intField(locID, id)
		loc.bytesField(locLine, line.b)
		locs.bytesField(profLocation, loc.b)
		return id
	}

	var totalSeconds float64
	var samples pbuf
	for _, e := range p.Entries() {
		totalSeconds += e.Ledger.TotalSeconds()
		for b := 0; b < NumBins; b++ {
			ns := int64(math.Round(e.Ledger.Seconds[b] / secondsPerUnit))
			fj := int64(math.Round(e.Ledger.Joules[b] / joulesPerUnit))
			if ns == 0 && fj == 0 {
				continue
			}
			// Stack, leaf first: state < component < node < experiment.
			stack := []int64{locOf(Bin(b).State()), locOf(Bin(b).Component())}
			if e.Scope.Node != "" {
				stack = append(stack, locOf(e.Scope.Node))
			}
			if e.Scope.Experiment != "" {
				stack = append(stack, locOf(e.Scope.Experiment))
			}
			var m pbuf
			m.packedInts(sampleLocationID, stack)
			m.packedInts(sampleValue, []int64{ns, fj})
			for _, kv := range [][2]string{{"experiment", e.Scope.Experiment}, {"node", e.Scope.Node}} {
				if kv[1] == "" {
					continue
				}
				var lbl pbuf
				lbl.intField(labelKey, strs.index(kv[0]))
				lbl.intField(labelStr, strs.index(kv[1]))
				m.bytesField(sampleLabel, lbl.b)
			}
			samples.bytesField(profSample, m.b)
		}
	}

	out.b = append(out.b, samples.b...)
	out.b = append(out.b, locs.b...)
	out.b = append(out.b, fns.b...)
	for _, s := range strs.vals {
		out.stringField(profStringTable, s)
	}
	out.intField(profDuration, int64(math.Round(totalSeconds/secondsPerUnit)))

	zw := gzip.NewWriter(w) // zero ModTime: the output carries no wall time
	if _, err := zw.Write(out.b); err != nil {
		return fmt.Errorf("prof: write pprof: %w", err)
	}
	return zw.Close()
}

// --- Decoder (tests, hemtrace, reconciliation checks) ---

// DecodedValueType is one decoded sample type.
type DecodedValueType struct{ Type, Unit string }

// DecodedSample is one decoded sample: the stack as function names (leaf
// first), the values in sample-type order, and the string labels.
type DecodedSample struct {
	Stack  []string
	Values []int64
	Labels map[string]string
}

// Decoded is the subset of a pprof profile the reconciliation and parity
// tests inspect.
type Decoded struct {
	SampleTypes   []DecodedValueType
	Samples       []DecodedSample
	DurationNanos int64
}

var errMalformed = errors.New("prof: malformed pprof profile")

// pfield is one parsed protobuf field.
type pfield struct {
	num  int
	wire int
	v    uint64 // varint value (wire 0)
	b    []byte // payload (wire 2)
}

// fields iterates the fields of one protobuf message.
func fields(b []byte, fn func(pfield) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		f := pfield{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			v, n := uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			f.v, b = v, b[n:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 1: // fixed64
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 5: // fixed32
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a varint, returning the value and bytes consumed (<= 0 on
// malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// packed collects a packed or unpacked repeated integer field.
func packed(f pfield, out *[]uint64) error {
	if f.wire == wireVarint {
		*out = append(*out, f.v)
		return nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		*out = append(*out, v)
		b = b[n:]
	}
	return nil
}

// ReadPprof decodes a gzipped pprof profile produced by WritePprof (or any
// encoder emitting the same subset: string names, one line per location).
func ReadPprof(r io.Reader) (*Decoded, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("prof: read pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("prof: read pprof: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("prof: read pprof: %w", err)
	}

	var strs []string
	fnNames := map[uint64]int64{} // function id -> name index
	locFns := map[uint64]uint64{} // location id -> function id
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]int64 // key idx, str idx
	}
	var rawSamples []rawSample
	var rawTypes [][2]int64 // type idx, unit idx
	d := &Decoded{}

	err = fields(raw, func(f pfield) error {
		switch f.num {
		case profSampleType:
			var t, u int64
			if err := fields(f.b, func(g pfield) error {
				switch g.num {
				case vtType:
					t = int64(g.v)
				case vtUnit:
					u = int64(g.v)
				}
				return nil
			}); err != nil {
				return err
			}
			rawTypes = append(rawTypes, [2]int64{t, u})
		case profSample:
			var s rawSample
			if err := fields(f.b, func(g pfield) error {
				switch g.num {
				case sampleLocationID:
					return packed(g, &s.locs)
				case sampleValue:
					return packed(g, &s.vals)
				case sampleLabel:
					var k, v int64
					if err := fields(g.b, func(h pfield) error {
						switch h.num {
						case labelKey:
							k = int64(h.v)
						case labelStr:
							v = int64(h.v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{k, v})
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case profLocation:
			var id, fn uint64
			if err := fields(f.b, func(g pfield) error {
				switch g.num {
				case locID:
					id = g.v
				case locLine:
					return fields(g.b, func(h pfield) error {
						if h.num == lineFunctionID {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fn
		case profFunction:
			var id uint64
			var name int64
			if err := fields(f.b, func(g pfield) error {
				switch g.num {
				case fnID:
					id = g.v
				case fnName:
					name = int64(g.v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnNames[id] = name
		case profStringTable:
			strs = append(strs, string(f.b))
		case profDuration:
			d.DurationNanos = int64(f.v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || int(i) >= len(strs) {
			return "", errMalformed
		}
		return strs[i], nil
	}
	// Resolve the deferred string indices now that the table is complete.
	for _, tu := range rawTypes {
		t, err := str(tu[0])
		if err != nil {
			return nil, err
		}
		u, err := str(tu[1])
		if err != nil {
			return nil, err
		}
		d.SampleTypes = append(d.SampleTypes, DecodedValueType{Type: t, Unit: u})
	}
	for _, rs := range rawSamples {
		s := DecodedSample{Labels: map[string]string{}}
		for _, id := range rs.locs {
			name, err := str(fnNames[locFns[id]])
			if err != nil {
				return nil, err
			}
			s.Stack = append(s.Stack, name)
		}
		for _, v := range rs.vals {
			s.Values = append(s.Values, int64(v))
		}
		for _, kv := range rs.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			s.Labels[k] = v
		}
		d.Samples = append(d.Samples, s)
	}
	return d, nil
}
