// Package prof is the energy-flow profiler: an exact (not sampled)
// energy-and-time ledger accumulated inside the simulator's step loop and
// exported as a pprof profile (pprof.go), so `go tool pprof -http` renders
// flamegraphs of simulated energy — "where did the joules go" for one node
// or a whole fleet.
//
// The design mirrors the trace layer's zero-cost-when-off contract: the
// step loop pays one nil comparison per step when no Ledger is attached,
// and a Ledger is a fixed array of float64 accumulators indexed by a small
// taxonomy enum (Bin), so profiling a step is a handful of adds with no
// allocation, no map lookup and no interface call.
//
// Attribution semantics (see circuit.Config.Ledger for the producer):
//
//   - every step's dt lands in exactly one time bin — dead/brownout while
//     the processor is halted, cpu/idle while the clock is gated, otherwise
//     the workload phase (cpu/active, cpu/sprint, intermittent/checkpoint,
//     intermittent/restore) declared by the controller — so a run's
//     sim_seconds total over its ledger equals the simulated duration;
//   - energy is attributed per flow: pv/harvest collects the positive solar
//     input (equal to the Outcome's EnergyHarvested), pv/reverse the diode
//     discharge while the node sits above Voc, reg/loss the conversion
//     losses (EnergyLost), radio/tx the auxiliary-load draw (EnergyAux),
//     and the processor's consumption (EnergyDelivered) lands in the same
//     time bin as the step's dt, splitting the delivered energy by phase.
//
// Ledgers merge by bin-wise addition and profiles by scope-keyed union, so
// fleet epochs fold per-node ledgers in node-ID order and the exported
// bytes stay identical across worker counts.
//
// Skip credit. A fast-forwarded span of n steps must leave the bits n
// sequential `acc += dt` adds leave (never n*dt, which rounds once instead
// of n times). AddSteps computes that result in O(binades crossed) instead
// of O(n), on the accumulator's bit pattern:
//
//   - Let acc be a positive normal float in the binade [2^e, 2^(e+1)), with
//     ulp u = 2^(e−52), so acc = (2^52 + f)·u for an integer f, and let dt
//     be a positive normal float. Then q = dt/u is exact: both are powers of
//     two times integers, and in integers q = md/2^s with md dt's 53-bit
//     significand and s = exp(acc) − exp(dt).
//   - While the exact sum acc + dt stays below 2^(e+1), round-to-nearest
//     puts it on the u grid at (2^52 + f + round(q))·u, and round(q) = k
//     does not depend on f unless q's fraction is exactly ½. On the bit
//     pattern that add is bits(acc) += k (bits of positive floats are
//     ordered, and a carry out of the 52-bit field is the next binade).
//   - So j consecutive adds add j·k to bits(acc) for every j with
//     bits(acc) + j·k < bits(2^(e+1)). The converse direction closes the
//     argument: if bits(acc) + k < bits(2^(e+1)) then f + round(q) < 2^52,
//     hence f + q < 2^52 and the exact sum is below 2^(e+1), so no add in
//     the run can leave the binade or meet its coarser grid. The add that
//     would cross the binade top runs as one real float add, and the next
//     binade repeats the rule with the same dt.
//   - A tie (fraction ½) rounds to the even significand, which depends on
//     f's parity. An odd f takes one real add, whose result is even; from
//     an even f every add adds fl + (fl mod 2), fl = ⌊q⌋, the even of the
//     two neighbours, and f stays even.
//   - k = 0 (q < ½, or a tie at fl = 0 from an even f) makes every
//     remaining add the identity.
//   - An accumulator that is zero, subnormal, negative or non-finite, and
//     q ≥ 2^52 (dt at least the binade's bottom, so the add leaves it), take
//     real adds one at a time; a zero or subnormal start becomes normal on
//     its first add. A dt that is not a positive normal float takes the
//     plain loop throughout.
//
// From a zero start n credits cross at most about log2(n)+2 binades, and a
// running ledger usually crosses none. TestAddStepsMatchesRepeatedAddStep
// and FuzzAddStepsParity check the result against the loop bit for bit.
package prof

import (
	"math"
	"sort"
)

// Bin indexes the fixed attribution taxonomy. Each bin is one
// component/state pair of the profile's label stack.
type Bin uint8

// The taxonomy. The first six are time bins — mutually exclusive per step,
// carrying both seconds and the processor's energy — the rest are pure
// energy flows (their Seconds stay zero).
const (
	// BinCPUActive is regular job execution (the controller's default).
	BinCPUActive Bin = iota
	// BinCPUSprint is the fast second half of a sprint schedule.
	BinCPUSprint
	// BinCPUIdle is clock-gated time: the supply is up but the effective
	// frequency is zero (hibernation, a parked tracker, a zero command).
	BinCPUIdle
	// BinCheckpoint is time spent writing checkpoints to NVM.
	BinCheckpoint
	// BinRestore is time spent restoring checkpointed state after a failure.
	BinRestore
	// BinDead is brownout dead-time: the processor is halted.
	BinDead
	// BinPVHarvest is energy harvested from the cell (positive solar input).
	BinPVHarvest
	// BinPVReverse is energy discharged into the cell's diode (node > Voc).
	BinPVReverse
	// BinRegLoss is regulator conversion loss.
	BinRegLoss
	// BinRadioTx is the auxiliary load's draw (radio bursts, sensors).
	BinRadioTx

	// NumBins sizes the ledger arrays.
	NumBins int = iota
)

// binPaths maps each bin to its component/state frame pair, leaf last.
var binPaths = [NumBins][2]string{
	BinCPUActive:  {"cpu", "active"},
	BinCPUSprint:  {"cpu", "sprint"},
	BinCPUIdle:    {"cpu", "idle"},
	BinCheckpoint: {"intermittent", "checkpoint"},
	BinRestore:    {"intermittent", "restore"},
	BinDead:       {"dead", "brownout"},
	BinPVHarvest:  {"pv", "harvest"},
	BinPVReverse:  {"pv", "reverse"},
	BinRegLoss:    {"reg", "loss"},
	BinRadioTx:    {"radio", "tx"},
}

// Component returns the bin's component frame (e.g. "cpu").
func (b Bin) Component() string { return binPaths[b][0] }

// State returns the bin's state frame (e.g. "active").
func (b Bin) State() string { return binPaths[b][1] }

// String implements fmt.Stringer as "component/state".
func (b Bin) String() string { return binPaths[b][0] + "/" + binPaths[b][1] }

// Ledger is one scope's accumulator: simulated seconds and joules per
// taxonomy bin. The zero value is ready to use; the step loop mutates it
// through AddStep/AddEnergy, which are plain array adds.
type Ledger struct {
	Seconds [NumBins]float64
	Joules  [NumBins]float64
}

// AddStep attributes one step: dt seconds and the step's load energy land
// in the given time bin.
func (l *Ledger) AddStep(b Bin, dt, joules float64) {
	l.Seconds[b] += dt
	l.Joules[b] += joules
}

// AddSteps attributes n consecutive load-free steps of dt seconds to the
// time bin, bitwise equal to n calls of AddStep(b, dt, 0): the seconds
// side is the closed form of n sequential adds (never n*dt, which rounds
// differently; see the package doc), and the joules side takes the one +0
// add those calls would make. The stepper credits fast-forwarded dead
// spans through it.
func (l *Ledger) AddSteps(b Bin, dt float64, n int) {
	if n <= 0 {
		return
	}
	l.Seconds[b] = addRepeated(l.Seconds[b], dt, n)
	l.Joules[b] += 0 // x += 0 is idempotent: one add stands for n
}

const (
	fracBits = 52
	fracMask = 1<<fracBits - 1
	expMax   = 0x7ff // exponent field of Inf and NaN
)

// addRepeated returns acc after n sequential `acc += dt`, binade by binade
// (the argument is in the package doc).
func addRepeated(acc, dt float64, n int) float64 {
	d := math.Float64bits(dt)
	md, ed := d&fracMask|1<<fracBits, d>>fracBits
	if ed == 0 || ed >= expMax { // dt zero, subnormal, negative, Inf or NaN
		for ; n > 0; n-- {
			acc += dt
		}
		return acc
	}
	for n > 0 {
		a := math.Float64bits(acc)
		ea := a >> fracBits // sign bit included: negatives fail the test
		if ea == 0 || ea >= expMax || ea <= ed {
			acc += dt // not a positive normal, or q >= 2^52
			n--
			continue
		}
		s := ea - ed // q = md / 2^s, s >= 1
		if s > fracBits+1 {
			return acc // q < 1/2: every add is the identity
		}
		fl, rem, half := md>>s, md&(1<<s-1), uint64(1)<<(s-1)
		k := fl
		switch {
		case rem > half:
			k++
		case rem == half: // a tie rounds to the even significand
			if a&1 != 0 {
				acc += dt
				n--
				continue
			}
			k += fl & 1
		}
		if k == 0 {
			return acc
		}
		j := ((ea+1)<<fracBits - 1 - a) / k // adds that stay in the binade
		if uint64(n) <= j {
			return math.Float64frombits(a + uint64(n)*k)
		}
		acc = math.Float64frombits(a+j*k) + dt // the add that crosses
		n -= int(j) + 1
	}
	return acc
}

// AddEnergy attributes energy to a flow bin without advancing time.
func (l *Ledger) AddEnergy(b Bin, joules float64) { l.Joules[b] += joules }

// Merge folds o into l bin-wise. Bins never interact, so merging is
// commutative; fleet reductions additionally fix the fold order (node-ID
// order) so the result is byte-stable too.
func (l *Ledger) Merge(o *Ledger) {
	for i := 0; i < NumBins; i++ {
		l.Seconds[i] += o.Seconds[i]
		l.Joules[i] += o.Joules[i]
	}
}

// Empty reports whether every accumulator is zero.
func (l *Ledger) Empty() bool {
	for i := 0; i < NumBins; i++ {
		if l.Seconds[i] != 0 || l.Joules[i] != 0 {
			return false
		}
	}
	return true
}

// TotalSeconds sums the time bins — the ledger's simulated duration.
func (l *Ledger) TotalSeconds() float64 {
	var t float64
	for i := 0; i < NumBins; i++ {
		t += l.Seconds[i]
	}
	return t
}

// Scope identifies one ledger within a profile: the experiment (or run)
// dimension and the node (or variant) dimension. Either may be empty; both
// become pprof sample labels and stack frames above the component/state
// pair.
type Scope struct {
	// Experiment names the run: an experiment ID ("fig11b"), a fleet run
	// ("fleet"), a policy name — the root frame of the stack.
	Experiment string
	// Node subdivides the run: a fleet node ("node/0000042"), a policy
	// variant ("sprint+bypass"). Empty for single-run scopes.
	Node string
}

// less orders scopes canonically: by experiment, then node.
func (s Scope) less(o Scope) bool {
	if s.Experiment != o.Experiment {
		return s.Experiment < o.Experiment
	}
	return s.Node < o.Node
}

// Entry is one scoped ledger of a profile.
type Entry struct {
	Scope  Scope
	Ledger Ledger
}

// Profile is an ordered collection of scoped ledgers — the merge unit the
// export layer encodes. Scopes are unique; Ledger(scope) returns the same
// accumulator for the same scope.
type Profile struct {
	entries []Entry
	index   map[Scope]int
}

// New returns an empty profile.
func New() *Profile { return &Profile{index: make(map[Scope]int)} }

// Ledger returns the accumulator for the scope, creating it on first use.
// The returned pointer stays valid until the next Ledger/Merge call adds a
// new scope (the entry slice may regrow), so hot loops should resolve it
// once up front — the fleet engine hands each node its own ledger and only
// folds them here after the run.
func (p *Profile) Ledger(s Scope) *Ledger {
	if i, ok := p.index[s]; ok {
		return &p.entries[i].Ledger
	}
	p.index[s] = len(p.entries)
	p.entries = append(p.entries, Entry{Scope: s})
	return &p.entries[len(p.entries)-1].Ledger
}

// Add folds a single ledger into the scope's accumulator.
func (p *Profile) Add(s Scope, l *Ledger) { p.Ledger(s).Merge(l) }

// Merge folds o into p: same-scope ledgers add bin-wise, new scopes are
// appended. Export order is canonical (Entries sorts), so merging profiles
// with disjoint scopes is associative and commutative down to the encoded
// bytes; same-scope merges remain commutative (bin-wise float addition).
func (p *Profile) Merge(o *Profile) {
	for i := range o.entries {
		p.Add(o.entries[i].Scope, &o.entries[i].Ledger)
	}
}

// Len returns the number of scopes.
func (p *Profile) Len() int { return len(p.entries) }

// Entries returns the scoped ledgers in canonical (experiment, node) order.
// The returned slice is a copy; the ledgers are values.
func (p *Profile) Entries() []Entry {
	out := append([]Entry(nil), p.entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Scope.less(out[j].Scope) })
	return out
}
