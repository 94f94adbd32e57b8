// Package domains extends the holistic analysis to multi-domain
// power/energy management (a keyword of the paper): a fully integrated SoC
// carries several on-chip power domains — processor core, SRAM, radio/IO —
// each behind its own regulator fed from the shared harvester node. The
// allocation question is the multi-load version of the paper's Eq. 1-4:
// split the harvested budget across domains, accounting for each domain's
// converter efficiency at its operating point, to maximise total utility.
//
// Because converter efficiency depends on the delivered power, the problem
// is not a clean water-filling; the allocator uses greedy incremental
// allocation in small quanta on the marginal-utility-per-source-watt
// criterion, which is exact in the quantum limit for concave utilities.
package domains

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/reg"
)

// Errors returned by this package.
var (
	// ErrNoDomains indicates an allocator without domains.
	ErrNoDomains = errors.New("domains: no domains configured")

	// ErrBudgetTooSmall indicates that the source budget cannot cover the
	// domains' must-run floor powers.
	ErrBudgetTooSmall = errors.New("domains: budget below must-run floors")

	// ErrBadDomain indicates an invalid domain description.
	ErrBadDomain = errors.New("domains: invalid domain")
)

// Utility maps delivered load power (W) to a utility score. It must be
// non-decreasing and should be concave for the greedy allocator to be
// exact.
type Utility func(power float64) float64

// SqrtUtility is the default diminishing-returns utility.
func SqrtUtility(power float64) float64 {
	if power <= 0 {
		return 0
	}
	return math.Sqrt(power)
}

// Domain is one on-chip power domain.
type Domain struct {
	// Name identifies the domain in reports ("core", "sram", "radio").
	Name string
	// Reg is the domain's converter from the shared harvester node.
	Reg reg.Regulator
	// Supply is the domain's regulated output voltage (V).
	Supply float64
	// MinPower is the must-run floor (W), e.g. SRAM retention. Allocated
	// unconditionally.
	MinPower float64
	// MaxPower caps the useful power (W).
	MaxPower float64
	// Weight scales the domain's utility in the objective. Zero means 1.
	Weight float64
	// Utility maps delivered power to value. Nil selects SqrtUtility.
	Utility Utility
}

// validate reports whether the domain is well-formed.
func (d Domain) validate() error {
	switch {
	case d.Reg == nil:
		return fmt.Errorf("%w: %s has no regulator", ErrBadDomain, d.Name)
	case d.Supply <= 0:
		return fmt.Errorf("%w: %s supply %g", ErrBadDomain, d.Name, d.Supply)
	case d.MinPower < 0 || d.MaxPower < d.MinPower:
		return fmt.Errorf("%w: %s power window [%g, %g]", ErrBadDomain, d.Name, d.MinPower, d.MaxPower)
	}
	return nil
}

func (d Domain) weight() float64 {
	if d.Weight == 0 {
		return 1
	}
	return d.Weight
}

func (d Domain) utility(p float64) float64 {
	if d.Utility == nil {
		return SqrtUtility(p)
	}
	return d.Utility(p)
}

// Share is one domain's slice of an allocation.
type Share struct {
	Name       string
	LoadPower  float64 // delivered to the domain (W)
	DrawPower  float64 // drawn from the harvester node (W)
	Efficiency float64 // conversion efficiency at this point
	Utility    float64 // weighted utility contribution
	Saturated  bool    // the domain hit MaxPower
}

// Allocation is the result of a budget split.
type Allocation struct {
	Shares       []Share
	TotalLoad    float64 // sum of delivered powers (W)
	TotalDraw    float64 // sum of source draws (W); <= budget
	TotalUtility float64
}

// Allocator splits a source budget across domains. Construct with New.
type Allocator struct {
	domains []Domain
	quantum float64 // allocation step (W)
}

// New builds an allocator over the given domains.
func New(ds []Domain) (*Allocator, error) {
	if len(ds) == 0 {
		return nil, ErrNoDomains
	}
	for _, d := range ds {
		if err := d.validate(); err != nil {
			return nil, err
		}
	}
	return &Allocator{
		domains: append([]Domain(nil), ds...),
		quantum: 10e-6,
	}, nil
}

// draw returns the source power a domain needs to receive load power p from
// node voltage vin, +Inf when unreachable.
func (a *Allocator) draw(d Domain, vin, p float64) float64 {
	if p <= 0 {
		return 0
	}
	eta := d.Reg.Efficiency(vin, d.Supply, p)
	if eta <= 0 {
		return math.Inf(1)
	}
	return p / eta
}

// Allocate splits `budget` watts of source power, available at node voltage
// vin, across the domains. Must-run floors are funded first; the remainder
// goes greedily to the domain with the best marginal weighted utility per
// source watt. It returns ErrBudgetTooSmall when the floors alone exceed
// the budget.
func (a *Allocator) Allocate(vin, budget float64) (Allocation, error) {
	n := len(a.domains)
	loads := make([]float64, n)
	draws := make([]float64, n)

	// Fund the floors.
	used := 0.0
	for i, d := range a.domains {
		loads[i] = d.MinPower
		draws[i] = a.draw(d, vin, d.MinPower)
		if math.IsInf(draws[i], 1) {
			return Allocation{}, fmt.Errorf("%w: %s floor unreachable from %.3f V", ErrBudgetTooSmall, d.Name, vin)
		}
		used += draws[i]
	}
	if used > budget {
		return Allocation{}, fmt.Errorf("%w: floors draw %.4g W of %.4g W", ErrBudgetTooSmall, used, budget)
	}

	// Greedy marginal allocation with a jump ladder. Converters with fixed
	// losses make draw(p) non-convex near zero (an activation hump): the
	// first microwatt through an idle SC converter costs its entire fixed
	// switching power. Single-quantum greedy would starve such domains, so
	// every iteration also considers geometric multi-quantum jumps and
	// scores each candidate by average utility gained per source watt.
	ladder := []float64{1, 8, 64, 512, 4096}
	for {
		bestDomain, bestStep, bestGain := -1, 0.0, 0.0
		for i, d := range a.domains {
			for _, mult := range ladder {
				step := a.quantum * mult
				if loads[i]+step > d.MaxPower {
					step = d.MaxPower - loads[i]
				}
				if step <= 0 {
					continue
				}
				newDraw := a.draw(d, vin, loads[i]+step)
				cost := newDraw - draws[i]
				if math.IsInf(newDraw, 1) || cost <= 0 || used+cost > budget {
					continue
				}
				gain := d.weight() * (d.utility(loads[i]+step) - d.utility(loads[i])) / cost
				if gain > bestGain {
					bestDomain, bestStep, bestGain = i, step, gain
				}
			}
		}
		if bestDomain < 0 {
			break
		}
		loads[bestDomain] += bestStep
		newDraw := a.draw(a.domains[bestDomain], vin, loads[bestDomain])
		used += newDraw - draws[bestDomain]
		draws[bestDomain] = newDraw
	}

	alloc := Allocation{Shares: make([]Share, n)}
	for i, d := range a.domains {
		eta := 0.0
		if draws[i] > 0 {
			eta = loads[i] / draws[i]
		}
		u := d.weight() * d.utility(loads[i])
		alloc.Shares[i] = Share{
			Name:       d.Name,
			LoadPower:  loads[i],
			DrawPower:  draws[i],
			Efficiency: eta,
			Utility:    u,
			Saturated:  loads[i]+a.quantum > d.MaxPower,
		}
		alloc.TotalLoad += loads[i]
		alloc.TotalDraw += draws[i]
		alloc.TotalUtility += u
	}
	return alloc, nil
}
