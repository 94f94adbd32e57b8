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
//
// Cost: the export is one streaming pass. Each sample is written into one
// reused buffer with its lengths computed up front (no nested message per
// stack, value pair or label), frame and label IDs are resolved once per
// bin and once per scope, and the buffer goes to the compressor every
// flushAt bytes. Compression runs at gzip.BestSpeed: on a 4,000-node dark
// fleet's 885 kB payload, level 6 takes 78 ms to write 319 kB where
// BestSpeed takes 11 ms for 355 kB (2-vCPU x86-64, Go 1.24), and the
// deflate level changes only the framing, never the payload that pprof
// reads. referencePayload, a nested-message encoder in the tests, checks
// the payload byte for byte.

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
)

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireBytes  = 2
)

// pbuf is a minimal protobuf writer. Every profile.proto field it writes
// is numbered below 16, so each tag is one byte.
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

// header opens a length-delimited field whose n-byte payload the caller
// writes next.
func (p *pbuf) header(field, n int) {
	p.tag(field, wireBytes)
	p.varint(uint64(n))
}

func (p *pbuf) stringField(field int, s string) {
	p.header(field, len(s))
	p.b = append(p.b, s...)
}

// varintLen is the length of x's varint.
func varintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// intFieldLen is the length intField writes for v.
func intFieldLen(v int64) int {
	if v == 0 {
		return 0
	}
	return 1 + varintLen(uint64(v))
}

// fieldLen is the length of a length-delimited field with an n-byte
// payload.
func fieldLen(n int) int { return 1 + varintLen(uint64(n)) + n }

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
	// The compressor hands its sink a few hundred bytes at a time.
	bw := bufio.NewWriter(f)
	if err := WritePprof(bw, p); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return f.Close()
}

// flushAt is the pending payload size at which the encoder hands its
// buffer to the compressor.
const flushAt = 32 << 10

// encoder streams one profile's payload into a gzip writer.
type encoder struct {
	zw   *gzip.Writer
	out  pbuf  // pending payload, at most about flushAt bytes
	err  error // the compressor's first write error
	strs *stringTable
	// Functions and locations are 1:1: one per unique frame name, created
	// on first use so IDs follow encoding order deterministically.
	locByName map[string]int64
	fnNames   []int64 // string index of the name of location and function i+1
}

// scopeIDs is one scope's part of its samples, resolved at the scope's
// first non-empty bin: the frames above the bin's (node, then
// experiment, each when non-empty) and the experiment and node labels as
// (key, value) string indices.
type scopeIDs struct {
	frames    [2]int64
	nframes   int
	labels    [2][2]int64
	nlabels   int
	labelsLen int // encoded length of the label fields
}

func (e *encoder) locOf(name string) int64 {
	if id, ok := e.locByName[name]; ok {
		return id
	}
	id := int64(len(e.fnNames) + 1)
	e.locByName[name] = id
	e.fnNames = append(e.fnNames, e.strs.index(name))
	return id
}

// scope resolves s in the order the samples name it: the node and
// experiment frames, then the "experiment" and "node" labels.
func (e *encoder) scope(s Scope) scopeIDs {
	var sc scopeIDs
	for _, name := range [2]string{s.Node, s.Experiment} {
		if name != "" {
			sc.frames[sc.nframes] = e.locOf(name)
			sc.nframes++
		}
	}
	for _, kv := range [2][2]string{{"experiment", s.Experiment}, {"node", s.Node}} {
		if kv[1] == "" {
			continue
		}
		k, v := e.strs.index(kv[0]), e.strs.index(kv[1])
		sc.labels[sc.nlabels] = [2]int64{k, v}
		sc.nlabels++
		sc.labelsLen += fieldLen(intFieldLen(k) + intFieldLen(v))
	}
	return sc
}

// sample writes one sample: the stack leaf first (the bin's state and
// component, then the scope's frames), the two values and the labels.
func (e *encoder) sample(bin [2]int64, sc *scopeIDs, ns, fj int64) {
	stackLen := varintLen(uint64(bin[0])) + varintLen(uint64(bin[1]))
	for _, id := range sc.frames[:sc.nframes] {
		stackLen += varintLen(uint64(id))
	}
	valLen := varintLen(uint64(ns)) + varintLen(uint64(fj))
	o := &e.out
	o.header(profSample, fieldLen(stackLen)+fieldLen(valLen)+sc.labelsLen)
	o.header(sampleLocationID, stackLen)
	o.varint(uint64(bin[0]))
	o.varint(uint64(bin[1]))
	for _, id := range sc.frames[:sc.nframes] {
		o.varint(uint64(id))
	}
	o.header(sampleValue, valLen)
	o.varint(uint64(ns))
	o.varint(uint64(fj))
	for _, kv := range sc.labels[:sc.nlabels] {
		o.header(sampleLabel, intFieldLen(kv[0])+intFieldLen(kv[1]))
		o.intField(labelKey, kv[0])
		o.intField(labelStr, kv[1])
	}
}

// spill hands the pending payload to the compressor once it holds at
// least atLeast bytes.
func (e *encoder) spill(atLeast int) {
	if len(e.out.b) < atLeast {
		return
	}
	if e.err == nil {
		_, e.err = e.zw.Write(e.out.b)
	}
	e.out.b = e.out.b[:0]
}

// compressor is what one export reuses from the last: a BestSpeed gzip
// writer and the pending payload buffer.
type compressor struct {
	zw  *gzip.Writer
	buf []byte
}

// compressors pools compressors. A gzip writer embeds deflate's hash
// tables whatever its level, about 1.2 MB, and the buffer takes 36 KB;
// either would dwarf a small profile's export. Reset gives a pooled
// writer a fresh stream with a zero header (no ModTime: the output
// carries no wall time), so the bytes are a fresh writer's.
var compressors = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a constant, valid level
	return &compressor{zw: zw, buf: make([]byte, 0, flushAt+flushAt/8)}
}}

// WritePprof encodes the profile as a gzipped pprof protobuf. Equal
// profiles produce equal bytes.
func WritePprof(w io.Writer, p *Profile) error {
	c := compressors.Get().(*compressor)
	defer compressors.Put(c)
	zw := c.zw
	zw.Reset(w)
	entries := p.Entries()
	e := &encoder{
		zw:   zw,
		out:  pbuf{b: c.buf[:0]},
		strs: newStringTable(),
		// A fleet names one experiment and one node per scope.
		locByName: make(map[string]int64, len(entries)+2*NumBins+1),
	}

	// Sample types: (sim_seconds, nanoseconds), (energy_joules, femtojoules).
	for _, vt := range [2][2]string{{"sim_seconds", "nanoseconds"}, {"energy_joules", "femtojoules"}} {
		t, u := e.strs.index(vt[0]), e.strs.index(vt[1])
		e.out.header(profSampleType, intFieldLen(t)+intFieldLen(u))
		e.out.intField(vtType, t)
		e.out.intField(vtUnit, u)
	}

	var binLocs [NumBins][2]int64 // state and component location IDs; 0 until first use
	var totalSeconds float64
	for i := range entries {
		en := &entries[i]
		totalSeconds += en.Ledger.TotalSeconds()
		var sc scopeIDs
		resolved := false
		for b := 0; b < NumBins; b++ {
			ns := int64(math.Round(en.Ledger.Seconds[b] / secondsPerUnit))
			fj := int64(math.Round(en.Ledger.Joules[b] / joulesPerUnit))
			if ns == 0 && fj == 0 {
				continue
			}
			if binLocs[b][0] == 0 {
				binLocs[b][0] = e.locOf(Bin(b).State())
				binLocs[b][1] = e.locOf(Bin(b).Component())
			}
			if !resolved {
				sc, resolved = e.scope(en.Scope), true
			}
			e.sample(binLocs[b], &sc, ns, fj)
			e.spill(flushAt)
		}
	}

	for i := range e.fnNames {
		id := int64(i + 1)
		line := intFieldLen(id)
		e.out.header(profLocation, intFieldLen(id)+fieldLen(line))
		e.out.intField(locID, id)
		e.out.header(locLine, line)
		e.out.intField(lineFunctionID, id)
		e.spill(flushAt)
	}
	for i, name := range e.fnNames {
		id := int64(i + 1)
		e.out.header(profFunction, intFieldLen(id)+intFieldLen(name))
		e.out.intField(fnID, id)
		e.out.intField(fnName, name)
		e.spill(flushAt)
	}
	for _, s := range e.strs.vals {
		e.out.stringField(profStringTable, s)
		e.spill(flushAt)
	}
	e.out.intField(profDuration, int64(math.Round(totalSeconds/secondsPerUnit)))
	e.spill(0)
	c.buf = e.out.b // a grown buffer serves the next export too
	if e.err != nil {
		return fmt.Errorf("prof: write pprof: %w", e.err)
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
