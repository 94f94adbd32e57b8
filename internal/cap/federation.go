package cap

import "errors"

// Federation errors.
var (
	// ErrNoMembers indicates a federation built with no capacitors.
	ErrNoMembers = errors.New("cap: federation needs at least one capacitor")
)

// Federation is a bank of capacitors behind a selector switch, after the
// federated-storage idea the paper's introduction cites ("Tragedy of the
// Coulombs"): one monolithic capacitor must charge entirely before the node
// reaches a usable voltage, while a federation charges a small member first
// — fast cold start — and steers surplus into progressively larger members.
//
// Semantics of the single-node model: exactly one member is connected to
// the node at a time. Charging current fills the active member; when it
// reaches the charge-full threshold the switch advances to the next (by
// construction, larger) member. Discharge drains the active member; when it
// falls to the empty threshold the switch selects the fullest other member,
// so banked energy backs the node. Switching is an instantaneous node
// voltage step, as a real switch matrix produces.
type Federation struct {
	members []*Capacitor
	active  int
	fullAt  float64 // member voltage considered full (V)
	emptyAt float64 // member voltage considered drained (V)
}

// NewFederation builds a federation over the given members, which should be
// ordered smallest first (the cold-start member leads). The first member
// starts active.
func NewFederation(members []*Capacitor) (*Federation, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	return &Federation{
		members: members,
		fullAt:  1.15,
		emptyAt: 0.30,
	}, nil
}

// Voltage implements circuit.Storage: the active member's voltage.
func (f *Federation) Voltage() float64 {
	return f.members[f.active].Voltage()
}

// Capacitance implements circuit.Storage: the active member's capacitance
// (the node's small-signal capacitance, which is what the MPPT time
// estimator sees).
func (f *Federation) Capacitance() float64 {
	return f.members[f.active].Capacitance()
}

// ApplyCurrent implements circuit.Storage: integrate on the active member,
// then run the selector policy.
func (f *Federation) ApplyCurrent(current, dt float64) float64 {
	m := f.members[f.active]
	v := m.ApplyCurrent(current, dt)

	switch {
	case current > 0 && v >= f.fullAt:
		// Active member full: advance to the emptiest other member so the
		// surplus banks up, preferring later (larger) members on ties.
		if next := f.emptiest(f.active); next != f.active {
			f.active = next
		}
	case current <= 0 && v <= f.emptyAt:
		// Active member drained: fall back to the fullest other member.
		if next := f.fullest(f.active); next != f.active && f.members[next].Voltage() > v {
			f.active = next
		}
	}
	return f.members[f.active].Voltage()
}

// emptiest returns the member with the lowest voltage, excluding `not`
// unless everything else is full too.
func (f *Federation) emptiest(not int) int {
	best, bestV := not, f.members[not].Voltage()
	for i, m := range f.members {
		if i == not {
			continue
		}
		if v := m.Voltage(); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// fullest returns the member with the highest voltage, excluding `not`.
func (f *Federation) fullest(not int) int {
	best, bestV := not, f.members[not].Voltage()
	for i, m := range f.members {
		if i == not {
			continue
		}
		if v := m.Voltage(); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
