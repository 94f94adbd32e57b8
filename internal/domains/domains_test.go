package domains

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/reg"
)

// threeDomains builds a representative SoC: core behind the SC converter,
// SRAM behind the LDO with a retention floor, radio behind the buck.
func threeDomains() []Domain {
	return []Domain{
		{Name: "core", Reg: reg.NewSC(), Supply: 0.55, MaxPower: 10e-3, Weight: 2},
		{Name: "sram", Reg: reg.NewLDO(), Supply: 0.45, MinPower: 0.2e-3, MaxPower: 2e-3},
		{Name: "radio", Reg: reg.NewBuck(), Supply: 0.60, MaxPower: 6e-3},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoDomains) {
		t.Errorf("empty: %v", err)
	}
	bad := []Domain{{Name: "x", Supply: 0.5, MaxPower: 1e-3}}
	if _, err := New(bad); !errors.Is(err, ErrBadDomain) {
		t.Errorf("no regulator: %v", err)
	}
	bad2 := []Domain{{Name: "x", Reg: reg.NewSC(), Supply: 0, MaxPower: 1e-3}}
	if _, err := New(bad2); !errors.Is(err, ErrBadDomain) {
		t.Errorf("zero supply: %v", err)
	}
	bad3 := []Domain{{Name: "x", Reg: reg.NewSC(), Supply: 0.5, MinPower: 2e-3, MaxPower: 1e-3}}
	if _, err := New(bad3); !errors.Is(err, ErrBadDomain) {
		t.Errorf("inverted window: %v", err)
	}
}

func TestAllocateRespectsBudgetAndFloors(t *testing.T) {
	a, err := New(threeDomains())
	if err != nil {
		t.Fatal(err)
	}
	const vin, budget = 1.1, 12e-3
	alloc, err := a.Allocate(vin, budget)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalDraw > budget*(1+1e-9) {
		t.Errorf("draw %.4g exceeds budget %.4g", alloc.TotalDraw, budget)
	}
	// Budget nearly exhausted (within one quantum's worth of draw).
	if alloc.TotalDraw < budget-1e-3 {
		t.Errorf("draw %.4g leaves too much budget unused", alloc.TotalDraw)
	}
	byName := map[string]Share{}
	for _, s := range alloc.Shares {
		byName[s.Name] = s
		if s.LoadPower < 0 {
			t.Errorf("%s negative load", s.Name)
		}
		if s.DrawPower < s.LoadPower-1e-12 {
			t.Errorf("%s: free energy (draw %.4g < load %.4g)", s.Name, s.DrawPower, s.LoadPower)
		}
	}
	if byName["sram"].LoadPower < 0.2e-3-1e-9 {
		t.Errorf("sram floor not funded: %.4g", byName["sram"].LoadPower)
	}
	// The weighted core should get the largest share.
	if byName["core"].LoadPower <= byName["radio"].LoadPower {
		t.Errorf("core %.4g <= radio %.4g despite double weight",
			byName["core"].LoadPower, byName["radio"].LoadPower)
	}
}

func TestBudgetTooSmall(t *testing.T) {
	ds := threeDomains()
	ds[1].MinPower = 5e-3 // enormous retention floor
	ds[1].MaxPower = 6e-3
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(1.1, 1e-3); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("want ErrBudgetTooSmall, got %v", err)
	}
}

func TestHugeBudgetSaturatesEveryone(t *testing.T) {
	a, err := New(threeDomains())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := a.Allocate(1.1, 1.0) // 1 W: effectively unlimited
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range alloc.Shares {
		if !s.Saturated {
			t.Errorf("%s not saturated under unlimited budget (%.4g W)", s.Name, s.LoadPower)
		}
	}
}

func TestUtilityMonotoneInBudget(t *testing.T) {
	a, err := New(threeDomains())
	if err != nil {
		t.Fatal(err)
	}
	var allocs []Allocation
	for _, budget := range []float64{2e-3, 5e-3, 10e-3, 20e-3, 40e-3} {
		alloc, err := a.Allocate(1.1, budget)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, alloc)
	}
	for i := 1; i < len(allocs); i++ {
		if allocs[i].TotalUtility < allocs[i-1].TotalUtility-1e-9 {
			t.Fatalf("utility fell with more budget: %.4g -> %.4g",
				allocs[i-1].TotalUtility, allocs[i].TotalUtility)
		}
		if allocs[i].TotalLoad < allocs[i-1].TotalLoad-1e-9 {
			t.Fatalf("delivered power fell with more budget")
		}
	}
}

func TestEfficiencyAwareness(t *testing.T) {
	// Two identical loads, one behind the SC, one behind the LDO: the
	// allocator must favour the efficient path.
	ds := []Domain{
		{Name: "viaSC", Reg: reg.NewSC(), Supply: 0.55, MaxPower: 8e-3},
		{Name: "viaLDO", Reg: reg.NewLDO(), Supply: 0.55, MaxPower: 8e-3},
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := a.Allocate(1.1, 6e-3)
	if err != nil {
		t.Fatal(err)
	}
	var sc, ldo Share
	for _, s := range alloc.Shares {
		if s.Name == "viaSC" {
			sc = s
		} else {
			ldo = s
		}
	}
	if sc.LoadPower <= ldo.LoadPower {
		t.Errorf("SC path %.4g <= LDO path %.4g; allocator ignored efficiency",
			sc.LoadPower, ldo.LoadPower)
	}
	if sc.Efficiency <= ldo.Efficiency {
		t.Errorf("SC efficiency %.3f <= LDO %.3f at the allocated points", sc.Efficiency, ldo.Efficiency)
	}
}

func TestUtilities(t *testing.T) {
	if SqrtUtility(4) != 2 || SqrtUtility(-1) != 0 {
		t.Error("sqrt utility wrong")
	}
}

// Property: allocations never draw more than the budget and never deliver
// more than they draw, for random budgets and node voltages.
func TestQuickAllocationSafety(t *testing.T) {
	a, err := New(threeDomains())
	if err != nil {
		t.Fatal(err)
	}
	a.quantum = 50e-6
	f := func(vinRaw, budRaw uint16) bool {
		vin := 0.9 + float64(vinRaw)/65535*0.5
		budget := 2e-3 + float64(budRaw)/65535*30e-3
		alloc, err := a.Allocate(vin, budget)
		if err != nil {
			return errors.Is(err, ErrBudgetTooSmall)
		}
		if alloc.TotalDraw > budget*(1+1e-9) {
			return false
		}
		return alloc.TotalLoad <= alloc.TotalDraw+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the greedy result is within a small factor of a brute-force
// two-domain split.
func TestGreedyNearOptimalTwoDomains(t *testing.T) {
	ds := []Domain{
		{Name: "a", Reg: reg.NewSC(), Supply: 0.55, MaxPower: 10e-3, Weight: 1},
		{Name: "b", Reg: reg.NewBuck(), Supply: 0.60, MaxPower: 10e-3, Weight: 1},
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	const vin, budget = 1.1, 9e-3
	alloc, err := a.Allocate(vin, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over domain a's load share.
	best := 0.0
	for pa := 0.0; pa <= 10e-3; pa += 20e-6 {
		da := a.draw(ds[0], vin, pa)
		rest := budget - da
		if rest < 0 {
			continue
		}
		// Largest pb whose draw fits the remainder (draw is increasing).
		lo, hi := 0.0, 10e-3
		for k := 0; k < 40; k++ {
			mid := 0.5 * (lo + hi)
			if a.draw(ds[1], vin, mid) <= rest {
				lo = mid
			} else {
				hi = mid
			}
		}
		u := SqrtUtility(pa) + SqrtUtility(lo)
		if u > best {
			best = u
		}
	}
	if alloc.TotalUtility < 0.97*best {
		t.Errorf("greedy utility %.4g below 97%% of brute force %.4g", alloc.TotalUtility, best)
	}
}

func BenchmarkAllocate(b *testing.B) {
	a, err := New(threeDomains())
	if err != nil {
		b.Fatal(err)
	}
	a.quantum = 50e-6
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(1.1, 12e-3); err != nil {
			b.Fatal(err)
		}
	}
}
