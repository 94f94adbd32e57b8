package prof

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

// TotalJoules sums every bin's energy.
func (l *Ledger) TotalJoules() float64 {
	var t float64
	for i := 0; i < NumBins; i++ {
		t += l.Joules[i]
	}
	return t
}

// Total returns one ledger folding every scope together.
func (p *Profile) Total() Ledger {
	var t Ledger
	for i := range p.entries {
		t.Merge(&p.entries[i].Ledger)
	}
	return t
}

// Total sums the decoded samples' i-th value.
func (d *Decoded) Total(i int) int64 {
	var t int64
	for _, s := range d.Samples {
		if i < len(s.Values) {
			t += s.Values[i]
		}
	}
	return t
}

// randLedger fills a ledger from the source; values stay in a range where
// float addition is exact enough for bitwise comparisons of sums of two.
func randLedger(r *rand.Rand) Ledger {
	var l Ledger
	for i := 0; i < NumBins; i++ {
		l.Seconds[i] = float64(r.Intn(1 << 20))
		l.Joules[i] = float64(r.Intn(1<<20)) / 1024
	}
	return l
}

// randProfile builds a profile whose scopes are drawn from the tagged pool,
// so different profiles overlap or not depending on the pool.
func randProfile(r *rand.Rand, pool []Scope) *Profile {
	p := New()
	n := 1 + r.Intn(len(pool))
	for i := 0; i < n; i++ {
		l := randLedger(r)
		p.Add(pool[r.Intn(len(pool))], &l)
	}
	return p
}

func encode(t testing.TB, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePprof(&buf, p); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	return buf.Bytes()
}

// gunzip returns the payload of a gzip stream.
func gunzip(t testing.TB, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// disjointPools returns k scope pools with no scope in common, so profile
// merges across pools are pure set unions (byte-exact algebra).
func disjointPools(k int) [][]Scope {
	pools := make([][]Scope, k)
	for i := range pools {
		for j := 0; j < 3; j++ {
			pools[i] = append(pools[i], Scope{
				Experiment: fmt.Sprintf("exp%d", i),
				Node:       fmt.Sprintf("node/%07d", j),
			})
		}
	}
	return pools
}

// Merging profiles with disjoint scopes is associative down to the encoded
// bytes: (a+b)+c == a+(b+c). Canonical export order erases merge order.
func TestMergeAssociativeDisjoint(t *testing.T) {
	pools := disjointPools(3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randProfile(r, pools[0])
		b := randProfile(r, pools[1])
		c := randProfile(r, pools[2])

		left := New()
		left.Merge(a)
		left.Merge(b)
		left.Merge(c)

		bc := New()
		bc.Merge(b)
		bc.Merge(c)
		right := New()
		right.Merge(a)
		right.Merge(bc)

		return bytes.Equal(encode(t, left), encode(t, right))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Merging is commutative down to the encoded bytes — for disjoint scopes
// trivially, and for overlapping scopes because bin-wise float addition of
// two ledgers commutes exactly (a+b == b+a in IEEE 754).
func TestMergeCommutative(t *testing.T) {
	pools := disjointPools(2)
	shared := append(append([]Scope{}, pools[0]...), pools[1]...)
	f := func(seed int64, overlap bool) bool {
		r := rand.New(rand.NewSource(seed))
		pa, pb := pools[0], pools[1]
		if overlap {
			pa, pb = shared, shared
		}
		a := randProfile(r, pa)
		b := randProfile(r, pb)

		ab := New()
		ab.Merge(a)
		ab.Merge(b)
		ba := New()
		ba.Merge(b)
		ba.Merge(a)

		return bytes.Equal(encode(t, ab), encode(t, ba))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Encoding is deterministic: the same profile always produces the same
// bytes, and insertion order does not leak into the output.
func TestEncodeDeterministic(t *testing.T) {
	scopes := disjointPools(2)
	all := append(append([]Scope{}, scopes[0]...), scopes[1]...)
	r := rand.New(rand.NewSource(42))
	ledgers := make([]Ledger, len(all))
	for i := range ledgers {
		ledgers[i] = randLedger(r)
	}

	forward := New()
	for i, s := range all {
		forward.Add(s, &ledgers[i])
	}
	backward := New()
	for i := len(all) - 1; i >= 0; i-- {
		backward.Add(all[i], &ledgers[i])
	}
	if !bytes.Equal(encode(t, forward), encode(t, backward)) {
		t.Fatal("insertion order leaked into encoded bytes")
	}
	if !bytes.Equal(encode(t, forward), encode(t, forward)) {
		t.Fatal("re-encoding the same profile changed the bytes")
	}
}

// The wire round-trip preserves sample types, stacks, labels and quantised
// values.
func TestPprofRoundTrip(t *testing.T) {
	p := New()
	led := p.Ledger(Scope{Experiment: "fig11b", Node: "constant"})
	led.AddStep(BinCPUActive, 0.125, 0.25)
	led.AddStep(BinCPUSprint, 0.0625, 0.5)
	led.AddStep(BinDead, 0.03125, 0)
	led.AddEnergy(BinPVHarvest, 1.5)
	led.AddEnergy(BinRegLoss, 0.375)
	bare := p.Ledger(Scope{Experiment: "solo"})
	bare.AddStep(BinCPUIdle, 1, 0.0009765625)

	d, err := ReadPprof(bytes.NewReader(encode(t, p)))
	if err != nil {
		t.Fatalf("ReadPprof: %v", err)
	}

	wantTypes := []DecodedValueType{
		{Type: "sim_seconds", Unit: "nanoseconds"},
		{Type: "energy_joules", Unit: "femtojoules"},
	}
	if len(d.SampleTypes) != len(wantTypes) {
		t.Fatalf("sample types = %v, want %v", d.SampleTypes, wantTypes)
	}
	for i, vt := range wantTypes {
		if d.SampleTypes[i] != vt {
			t.Fatalf("sample type %d = %v, want %v", i, d.SampleTypes[i], vt)
		}
	}

	// One sample per non-empty bin: 5 scoped + 1 bare.
	if len(d.Samples) != 6 {
		t.Fatalf("samples = %d, want 6", len(d.Samples))
	}

	find := func(labels map[string]string, leaf string) *DecodedSample {
		for i := range d.Samples {
			s := &d.Samples[i]
			if len(s.Stack) == 0 || s.Stack[0] != leaf {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match && len(s.Labels) == len(labels) {
				return s
			}
		}
		return nil
	}

	sprint := find(map[string]string{"experiment": "fig11b", "node": "constant"}, "sprint")
	if sprint == nil {
		t.Fatal("missing cpu/sprint sample for fig11b/constant")
	}
	wantStack := []string{"sprint", "cpu", "constant", "fig11b"}
	if len(sprint.Stack) != len(wantStack) {
		t.Fatalf("sprint stack = %v, want %v", sprint.Stack, wantStack)
	}
	for i, f := range wantStack {
		if sprint.Stack[i] != f {
			t.Fatalf("sprint stack = %v, want %v", sprint.Stack, wantStack)
		}
	}
	if sprint.Values[0] != 62500000 || sprint.Values[1] != 500000000000000 {
		t.Fatalf("sprint values = %v, want [62500000 500000000000000]", sprint.Values)
	}

	harvest := find(map[string]string{"experiment": "fig11b", "node": "constant"}, "harvest")
	if harvest == nil {
		t.Fatal("missing pv/harvest sample")
	}
	if harvest.Values[0] != 0 || harvest.Values[1] != 1500000000000000 {
		t.Fatalf("harvest values = %v", harvest.Values)
	}

	idle := find(map[string]string{"experiment": "solo"}, "idle")
	if idle == nil {
		t.Fatal("missing bare-scope cpu/idle sample")
	}
	if len(idle.Stack) != 3 || idle.Stack[2] != "solo" {
		t.Fatalf("bare scope stack = %v, want [idle cpu solo]", idle.Stack)
	}

	// Totals: decoded nanoseconds must reconcile with the float ledger.
	total := p.Total()
	totalSec := total.TotalSeconds()
	if got, want := d.Total(0), int64(math.Round(totalSec/secondsPerUnit)); got != want {
		t.Fatalf("decoded seconds total = %d ns, want %d", got, want)
	}
	if d.DurationNanos != int64(math.Round(totalSec/secondsPerUnit)) {
		t.Fatalf("duration = %d ns, want %d", d.DurationNanos, int64(math.Round(totalSec/secondsPerUnit)))
	}
}

// Sub-quantum residue (both values rounding to 0) is dropped, not emitted
// as empty samples.
func TestTinyBinsDropped(t *testing.T) {
	p := New()
	p.Ledger(Scope{Experiment: "x"}).AddStep(BinCPUActive, 1e-13, 1e-17)
	d, err := ReadPprof(bytes.NewReader(encode(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) != 0 {
		t.Fatalf("samples = %d, want 0 for sub-quantum ledger", len(d.Samples))
	}
}

// darkFleetProfile is shaped like a mostly dark fleet's profile: one
// experiment and n numbered nodes, each with six non-empty bins.
func darkFleetProfile(n int) *Profile {
	p := New()
	for i := 0; i < n; i++ {
		l := p.Ledger(Scope{Experiment: "fleet", Node: fmt.Sprintf("node/%07d", i)})
		f := float64(i%97 + 1)
		l.AddStep(BinCPUActive, 1e-3*f, 4.7e-5*f)
		l.AddStep(BinDead, 10-1e-3*f, 3.7e-6*f)
		l.AddEnergy(BinPVHarvest, 1.1e-4*f)
		l.AddEnergy(BinPVReverse, 2.4e-5*f)
		l.AddEnergy(BinRegLoss, 1.1e-4*f)
		l.AddEnergy(BinRadioTx, 2.7e-5*f)
	}
	return p
}

// WritePprof's allocations do not grow with its samples: the 24,000
// samples of a 4,000-node dark fleet cost a few hundred allocations, where
// building a message per sample costs hundreds of thousands
// (referencePayload makes about 216,000).
func TestWritePprofAllocs(t *testing.T) {
	p := darkFleetProfile(4000)
	allocs := testing.AllocsPerRun(3, func() {
		if err := WritePprof(io.Discard, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Errorf("WritePprof of 4,000 scopes made %.0f allocations, want at most 400", allocs)
	}
}

// A one-scope export reuses a pooled compressor and its payload buffer. A
// fresh gzip writer per export cost 45 allocations and 1.25 MB for a
// payload of a few hundred bytes, and a fresh 36 KB buffer with a pooled
// writer 26 allocations and 45 KB; both pooled cost about 4 KB. The race
// detector drops a quarter of a pool's Puts, so the pin reads the least
// of several exports.
func TestWritePprofOneScopeAllocs(t *testing.T) {
	p := darkFleetProfile(1)
	allocs, size := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := WritePprof(io.Discard, p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a one-scope export: %d allocations, %d B", allocs, size)
	if allocs > 32 || size > 8<<10 {
		t.Errorf("a one-scope export made %d allocations of %d B, want at most 32 and 8 KiB", allocs, size)
	}
}

// WriteFile's file holds exactly the bytes WritePprof writes, whether the
// output is smaller or larger than the file's buffer.
func TestWriteFileMatchesWritePprof(t *testing.T) {
	for _, n := range []int{3, 4000} {
		p := darkFleetProfile(n)
		path := filepath.Join(t.TempDir(), "p.pb.gz")
		if err := WriteFile(path, p); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(t, p); !bytes.Equal(got, want) {
			t.Errorf("%d scopes: file holds %d bytes, WritePprof writes %d", n, len(got), len(want))
		}
	}
}

var errSink = errors.New("sink full")

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(b []byte) (int, error) {
	if len(b) > w.n {
		n := w.n
		w.n = 0
		return n, errSink
	}
	w.n -= len(b)
	return len(b), nil
}

// A sink's write error reaches WritePprof's caller, whether it fails at
// the gzip header, inside the samples or at the end of the stream.
func TestWritePprofWriteError(t *testing.T) {
	p := darkFleetProfile(4000)
	for _, n := range []int{0, 100_000, len(encode(t, p)) - 1} {
		if err := WritePprof(&failAfter{n: n}, p); !errors.Is(err, errSink) {
			t.Errorf("sink failing after %d bytes: WritePprof returned %v", n, err)
		}
	}
}

// fuzzNames are the scope names profileFrom draws first: the empty name,
// plain names, and names shared with a frame ("pv", "active", "cpu") or a
// label key ("node", "experiment"), which must reuse that location or
// string.
var fuzzNames = [...]string{"", "exp1", "exp2", "pv", "active", "cpu", "node", "experiment"}

// profileFrom reads ledgers out of data, five bytes per step: the scope's
// experiment (one of fuzzNames) and node (fuzzNames below 8, node/%07d
// above), the bin, and the step's time and energy in whole quanta of 1 µs
// and 1 pJ.
func profileFrom(data []byte) *Profile {
	p := New()
	for ; len(data) >= 5; data = data[5:] {
		s := Scope{Experiment: fuzzNames[data[0]%byte(len(fuzzNames))]}
		if n := int(data[1]); n < len(fuzzNames) {
			s.Node = fuzzNames[n]
		} else {
			s.Node = fmt.Sprintf("node/%07d", n)
		}
		p.Ledger(s).AddStep(Bin(int(data[2])%NumBins), float64(data[3])*1e-6, float64(data[4])*1e-12)
	}
	return p
}

// payload returns the protobuf WritePprof gzips for p.
func payload(t testing.TB, p *Profile) []byte { return gunzip(t, encode(t, p)) }

// stepsOf returns profileFrom's input for one step per (experiment, node,
// bin) triple over every bin, with time and energy drawn from the triple.
func stepsOf(exps, nodes []byte) []byte {
	var data []byte
	for _, e := range exps {
		for _, n := range nodes {
			for b := 0; b < NumBins; b++ {
				data = append(data, e, n, byte(b), n+byte(b), 3*n+e+byte(b))
			}
		}
	}
	return data
}

// FuzzReadPprof: ReadPprof decodes or rejects any payload without
// panicking, and what WritePprof writes is the reference encoder's payload
// (referencePayload) and decodes to the totals of the ledgers it was
// written from. The harness gzips the fuzzed payload, so mutations reach
// the protobuf decoder instead of failing gzip's checksum; the corpus
// starts from WritePprof's own payloads.
func FuzzReadPprof(f *testing.F) {
	every := make([]byte, len(fuzzNames))
	for i := range every {
		every[i] = byte(i)
	}
	numbered := make([]byte, 0, 256-len(fuzzNames))
	for n := len(fuzzNames); n < 256; n++ {
		numbered = append(numbered, byte(n))
	}
	for _, data := range [][]byte{
		nil,
		[]byte("fleet node/0000042 pv harvest"),
		bytes.Repeat([]byte{7, 200, 3, 255, 12, 1, 0, 9}, 16),
	} {
		f.Add(payload(f, profileFrom(data)))
	}
	f.Add([]byte{0x0a, 0xff, 0x01})                   // a sample type longer than the payload
	f.Add([]byte{0x12, 0x04, 0x0a, 0x02, 0x80, 0x80}) // a sample whose packed varint runs out
	for _, steps := range [][]byte{
		// Every experiment with every named node: frames, label keys
		// and empty names collide.
		stepsOf(every, every),
		// 248 numbered nodes in every bin: the payload crosses the
		// encoder's flushAt hand-off.
		stepsOf([]byte{1}, numbered),
	} {
		f.Add(steps)                          // the profile WritePprof encodes
		f.Add(payload(f, profileFrom(steps))) // its payload, for ReadPprof
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var gz bytes.Buffer
		zw, err := gzip.NewWriterLevel(&gz, gzip.NoCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if d, err := ReadPprof(&gz); err == nil {
			d.Total(0)
			d.Total(1)
		}

		p := profileFrom(data)
		out := encode(t, p)
		if got, want := gunzip(t, out), referencePayload(p); !bytes.Equal(got, want) {
			t.Fatalf("payload of %d bytes differs from the reference encoder's %d bytes", len(got), len(want))
		}
		d, err := ReadPprof(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("ReadPprof of WritePprof output: %v", err)
		}
		var ns, fj int64
		var seconds float64
		samples := 0
		for _, e := range p.Entries() {
			seconds += e.Ledger.TotalSeconds()
			for b := 0; b < NumBins; b++ {
				bns := int64(math.Round(e.Ledger.Seconds[b] / secondsPerUnit))
				bfj := int64(math.Round(e.Ledger.Joules[b] / joulesPerUnit))
				if bns != 0 || bfj != 0 {
					samples++
				}
				ns, fj = ns+bns, fj+bfj
			}
		}
		if len(d.Samples) != samples || d.Total(0) != ns || d.Total(1) != fj {
			t.Fatalf("decoded %d samples totalling %d ns and %d fJ, ledgers hold %d, %d ns and %d fJ",
				len(d.Samples), d.Total(0), d.Total(1), samples, ns, fj)
		}
		if want := int64(math.Round(seconds / secondsPerUnit)); d.DurationNanos != want {
			t.Fatalf("duration %d ns, ledgers hold %d ns", d.DurationNanos, want)
		}
	})
}

func TestLedgerBasics(t *testing.T) {
	var l Ledger
	if !l.Empty() {
		t.Fatal("zero ledger not Empty")
	}
	l.AddStep(BinCPUActive, 2, 3)
	l.AddEnergy(BinRadioTx, 1)
	if l.Empty() {
		t.Fatal("non-zero ledger reported Empty")
	}
	if got := l.TotalSeconds(); got != 2 {
		t.Fatalf("TotalSeconds = %v, want 2", got)
	}
	if got := l.TotalJoules(); got != 4 {
		t.Fatalf("TotalJoules = %v, want 4", got)
	}
	var o Ledger
	o.AddStep(BinCPUActive, 1, 1)
	l.Merge(&o)
	if got := l.Seconds[BinCPUActive]; got != 3 {
		t.Fatalf("merged seconds = %v, want 3", got)
	}
	if BinCPUSprint.String() != "cpu/sprint" {
		t.Fatalf("Bin.String = %q", BinCPUSprint.String())
	}
	for b := 0; b < NumBins; b++ {
		if Bin(b).Component() == "" || Bin(b).State() == "" {
			t.Fatalf("bin %d missing path", b)
		}
	}
}

// AddSteps must leave exactly the bits n AddStep(b, dt, 0) calls leave —
// for step sizes whose sums round on nearly every add, at every n, and on
// accumulators that already hold time or a negative-zero joule count.
func TestAddStepsMatchesRepeatedAddStep(t *testing.T) {
	starts := map[string]func() Ledger{
		"zero": func() Ledger { return Ledger{} },
		"nonzero": func() Ledger {
			var l Ledger
			l.AddStep(BinDead, 0.37, 1e-6)
			l.AddStep(BinCPUActive, 3.1e-3, 2e-9)
			return l
		},
		"negzero-joules": func() Ledger {
			var l Ledger
			l.Seconds[BinDead] = 12.5
			l.Joules[BinDead] = math.Copysign(0, -1)
			return l
		},
	}
	productDiffers := false
	for name, start := range starts {
		for _, dt := range []float64{2e-4, 1e-13, 0.1} {
			for _, n := range []int{0, 1, 1e6} {
				want, got := start(), start()
				for i := 0; i < n; i++ {
					want.AddStep(BinDead, dt, 0)
				}
				got.AddSteps(BinDead, dt, n)
				for b := 0; b < NumBins; b++ {
					if math.Float64bits(got.Seconds[b]) != math.Float64bits(want.Seconds[b]) ||
						math.Float64bits(got.Joules[b]) != math.Float64bits(want.Joules[b]) {
						t.Errorf("%s dt=%g n=%d bin %s: AddSteps (%v s, %v J) != %d AddStep (%v s, %v J)",
							name, dt, n, Bin(b), got.Seconds[b], got.Joules[b], n, want.Seconds[b], want.Joules[b])
					}
				}
				s0 := start().Seconds[BinDead]
				if math.Float64bits(s0+float64(n)*dt) != math.Float64bits(want.Seconds[BinDead]) {
					productDiffers = true
				}
			}
		}
	}
	// The cases must be able to tell a sequential replay from the n*dt
	// shortcut, or they would not pin the contract.
	if !productDiffers {
		t.Error("no case distinguishes n sequential adds from one n*dt add")
	}
}

// FuzzAddStepsParity: AddSteps leaves the bits n sequential AddStep(b, dt,
// 0) calls leave, on both arrays, for any start, any dt and n up to
// 2·10^6 — ties, zero and subnormal operands, binade crossings included.
func FuzzAddStepsParity(f *testing.F) {
	below2 := math.Nextafter(2, 0)
	for _, c := range []struct {
		start, dt float64
		n         int
	}{
		{0, 2e-4, 1_000_000},                    // zero start, the dark fleet's step
		{0.37, 2e-5, 2_000_000},                 // many adds inside few binades
		{1, 0x1p-53, 10},                        // exact half-ulp tie at k = 0
		{1 + 0x1p-52, 3 * 0x1p-53, 1000},        // tie at k = 1 from an odd significand
		{1, 0x1p-54, 1_000_000},                 // dt below half an ulp: identity
		{1e-300, 5e-324, 1000},                  // subnormal dt
		{1, -2e-4, 1000},                        // negative dt
		{below2, 2e-4, 100_000},                 // start just below a power of two
		{math.Copysign(0, -1), 0.1, 50},         // negative zero start
		{5e-324, 1e-310, 100},                   // subnormal start and dt
		{math.MaxFloat64 / 2, 1e292, 2_000_000}, // crosses into +Inf
		{math.Inf(1), 1, 10},
		{1, math.NaN(), 10},
	} {
		f.Add(c.start, c.dt, c.n)
	}
	f.Fuzz(func(t *testing.T, start, dt float64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2_000_001
		var want Ledger
		want.Seconds[BinDead], want.Joules[BinDead] = start, start
		got := want
		for i := 0; i < n; i++ {
			want.AddStep(BinDead, dt, 0)
		}
		got.AddSteps(BinDead, dt, n)
		for b := 0; b < NumBins; b++ {
			if math.Float64bits(got.Seconds[b]) != math.Float64bits(want.Seconds[b]) ||
				math.Float64bits(got.Joules[b]) != math.Float64bits(want.Joules[b]) {
				t.Fatalf("start=%x dt=%x n=%d bin %s: AddSteps (%x s, %x J) != loop (%x s, %x J)",
					start, dt, n, Bin(b), got.Seconds[b], got.Joules[b], want.Seconds[b], want.Joules[b])
			}
		}
	})
}

// BenchmarkAddSteps times one skip credit of n steps of 2e-4 s. From a
// start of 1024 s no credit leaves the accumulator's binade, so ns/op
// stays flat in n; from a zero start each doubling of the sum costs one
// real add, so ns/op grows with log2(n).
func BenchmarkAddSteps(b *testing.B) {
	for _, start := range []float64{1024, 0} {
		for _, n := range []int{1e2, 1e4, 1e6} {
			b.Run(fmt.Sprintf("start=%g/n=%d", start, n), func(b *testing.B) {
				var l Ledger
				for i := 0; i < b.N; i++ {
					l.Seconds[BinDead] = start
					l.AddSteps(BinDead, 2e-4, n)
				}
			})
		}
	}
}
