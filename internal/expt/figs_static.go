package expt

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/pv"
	"repro/internal/reg"
)

// Fig2Result reproduces Fig. 2: solar cell I-V curves under variable light.
type Fig2Result struct {
	Series []plot.Series // current (mA) vs voltage (V), one per condition
	MPPs   map[string][2]float64
}

// Fig2 sweeps the calibrated cell over the paper's measurement conditions.
func Fig2() *Fig2Result {
	c := DefaultComponents()
	conditions := []struct {
		name string
		irr  float64
	}{
		{"full sun", pv.FullSun},
		{"bright sun", pv.BrightSun},
		{"cloudy", pv.HalfSun},
		{"overcast", pv.QuarterSun},
		{"indoor bright", pv.IndoorBright},
	}
	res := &Fig2Result{MPPs: make(map[string][2]float64, len(conditions))}
	for _, cond := range conditions {
		pts := c.Cell.Curve(cond.irr, SweepPoints)
		s := plot.Series{Name: cond.name}
		for _, p := range pts {
			s.X = append(s.X, p.Voltage)
			s.Y = append(s.Y, p.Current*1e3)
		}
		res.Series = append(res.Series, s)
		v, p := c.Cell.MPP(cond.irr)
		res.MPPs[cond.name] = [2]float64{v, p}
	}
	return res
}

// Report implements Reporter.
func (r *Fig2Result) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 2: solar cell I-V under variable light ==")
	for _, s := range r.Series {
		mpp := r.MPPs[s.Name]
		fmt.Fprintf(w, "  %-14s MPP %.3f V / %.2f mW\n", s.Name, mpp[0], mpp[1]*1e3)
	}
	return renderChart(w, plot.Chart{Title: "Solar I-V", XLabel: "V (V)", YLabel: "I (mA)"}, r.Series...)
}

// EfficiencyFigResult reproduces one of Figs. 3-5: regulator efficiency
// versus output voltage at one or two load levels.
type EfficiencyFigResult struct {
	Figure string
	Series []plot.Series // efficiency (%) vs Vout (V)
	// At055 reports the efficiency at the paper's quoted 0.55 V corner for
	// each series, in order.
	At055 []float64
}

func efficiencyFig(figure string, r reg.Regulator, loads []struct {
	name string
	pout float64
}) *EfficiencyFigResult {
	res := &EfficiencyFigResult{Figure: figure}
	for _, load := range loads {
		pts := reg.EfficiencyCurve(r, ChipSupply, 0.05, 1.0, load.pout, SweepPoints)
		s := plot.Series{Name: load.name}
		for _, p := range pts {
			s.X = append(s.X, p.OutputVoltage)
			s.Y = append(s.Y, p.Efficiency*100)
		}
		res.Series = append(res.Series, s)
		res.At055 = append(res.At055, r.Efficiency(ChipSupply, 0.55, load.pout))
	}
	return res
}

// Fig3 characterises the LDO (paper corner: 45% at 0.55 V).
func Fig3() *EfficiencyFigResult {
	c := DefaultComponents()
	return efficiencyFig("Fig. 3: LDO efficiency", c.LDO, []struct {
		name string
		pout float64
	}{{"load", 10e-3}})
}

// Fig4 characterises the SC converter (67% full load / 64% half load at
// 0.55 V).
func Fig4() *EfficiencyFigResult {
	c := DefaultComponents()
	return efficiencyFig("Fig. 4: SC efficiency", c.SC, []struct {
		name string
		pout float64
	}{{"full load", 10e-3}, {"half load", 5e-3}})
}

// Fig5 characterises the buck converter (63% / 58% at 0.55 V).
func Fig5() *EfficiencyFigResult {
	c := DefaultComponents()
	return efficiencyFig("Fig. 5: buck efficiency", c.Buck, []struct {
		name string
		pout float64
	}{{"full load", 10e-3}, {"half load", 5e-3}})
}

// Report implements Reporter.
func (r *EfficiencyFigResult) Report(w io.Writer) error {
	fmt.Fprintf(w, "== %s ==\n", r.Figure)
	for i, s := range r.Series {
		fmt.Fprintf(w, "  %-10s at 0.55 V: %.1f%%\n", s.Name, r.At055[i]*100)
	}
	return renderChart(w, plot.Chart{Title: r.Figure, XLabel: "Vout (V)", YLabel: "eta (%)"}, r.Series...)
}

// Fig6aResult reproduces Fig. 6a: the cell's P-V curve against the
// processor's full-speed power curve, whose intersection is the
// unregulated operating point, well below the MPP.
type Fig6aResult struct {
	Series      []plot.Series // power (mW) vs voltage (V)
	MPPVoltage  float64
	MPPPower    float64
	Unregulated core.Point
}

// Fig6a runs the full-sun operating point analysis.
func Fig6a() *Fig6aResult {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	res := &Fig6aResult{}
	res.MPPVoltage, res.MPPPower = c.Cell.MPP(pv.FullSun)
	if pt, err := sys.UnregulatedPoint(pv.FullSun); err == nil {
		res.Unregulated = pt
	}

	solar := plot.Series{Name: "PV module"}
	for _, p := range c.Cell.Curve(pv.FullSun, SweepPoints) {
		solar.X = append(solar.X, p.Voltage)
		solar.Y = append(solar.Y, p.Power*1e3)
	}
	procS := plot.Series{Name: "uProcessor (max speed)"}
	ceil := 1.2 * res.MPPPower * 1e3
	for k := 0; k < SweepPoints; k++ {
		v := 1.4 * float64(k) / float64(SweepPoints-1)
		p := c.Proc.MaxPower(v) * 1e3
		if p > ceil {
			break // clip like the paper's axis
		}
		procS.X = append(procS.X, v)
		procS.Y = append(procS.Y, p)
	}
	res.Series = []plot.Series{solar, procS}
	return res
}

// Report implements Reporter.
func (r *Fig6aResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 6a: PV vs processor power curves (full sun) ==")
	fmt.Fprintf(w, "  MPP: %.3f V / %.2f mW\n", r.MPPVoltage, r.MPPPower*1e3)
	fmt.Fprintf(w, "  unregulated operating point: %.3f V / %.2f mW (%.1f%% of MPP power)\n",
		r.Unregulated.SolarVoltage, r.Unregulated.SolarPower*1e3,
		100*r.Unregulated.SolarPower/r.MPPPower)
	return renderChart(w, plot.Chart{Title: "Fig. 6a", XLabel: "V (V)", YLabel: "P (mW)"}, r.Series...)
}

// Fig6bResult reproduces Fig. 6b: regulated output power per regulator and
// the headline regulated-vs-unregulated gains (paper: SC extracts ~31% more
// power with ~18% speedup; LDO brings no benefit).
type Fig6bResult struct {
	Series      []plot.Series // deliverable power (mW) vs supply voltage (V)
	Comparisons map[string]core.Comparison
}

// Fig6b runs the regulated power analysis at full sun.
func Fig6b() (*Fig6bResult, error) {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	vmpp, pmpp := c.Cell.MPP(pv.FullSun)

	res := &Fig6bResult{Comparisons: make(map[string]core.Comparison, 3)}
	regs := []reg.Regulator{c.SC, c.Buck, c.LDO}
	for _, r := range regs {
		s := plot.Series{Name: "w/ " + r.Name()}
		s.X, s.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
			v := 0.05 + (0.85-0.05)*float64(k)/float64(SweepPoints-1)
			pout, err := reg.OutputPower(r, vmpp, v, pmpp)
			if err != nil {
				return 0, 0, false
			}
			return v, pout * 1e3, true
		})
		res.Series = append(res.Series, s)
		cmp, err := sys.Compare(r, pv.FullSun)
		if err != nil {
			return nil, fmt.Errorf("compare %s: %w", r.Name(), err)
		}
		res.Comparisons[r.Name()] = cmp
	}
	solar := plot.Series{Name: "PV module (direct)"}
	for _, p := range c.Cell.Curve(pv.FullSun, SweepPoints) {
		if p.Voltage > 0.85 {
			break
		}
		solar.X = append(solar.X, p.Voltage)
		solar.Y = append(solar.Y, p.Power*1e3)
	}
	res.Series = append(res.Series, solar)
	return res, nil
}

// Report implements Reporter.
func (r *Fig6bResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 6b: regulated output power and gains (full sun) ==")
	fmt.Fprintln(w, "  paper: SC regulator -> ~31% more power, ~18% speedup; LDO -> no benefit")
	for _, name := range []string{"SC", "Buck", "LDO"} {
		cmp, ok := r.Comparisons[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-5s Vdd=%.3f V f=%.0f MHz | delivery %+.1f%% extraction %+.1f%% speedup %+.1f%%\n",
			name, cmp.Regulated.Supply, cmp.Regulated.Frequency/1e6,
			cmp.DeliveryGain*100, cmp.ExtractionGain*100, cmp.Speedup*100)
	}
	return renderChart(w, plot.Chart{Title: "Fig. 6b", XLabel: "V (V)", YLabel: "P (mW)"}, r.Series...)
}

// Fig7aResult reproduces Fig. 7a: deliverable regulated power under
// variable light, and the bypass crossover (paper: at ~25% light the
// regulator output falls ~20% below a raw connection).
type Fig7aResult struct {
	Series    []plot.Series
	Decisions []core.BypassDecision
	Crossover float64 // irradiance below which bypass wins
}

// Fig7a runs the low-light analysis with the SC regulator.
func Fig7a() *Fig7aResult {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	res := &Fig7aResult{}
	for _, irr := range []float64{pv.FullSun, pv.HalfSun, pv.QuarterSun} {
		vmpp, pmpp := c.Cell.MPP(irr)
		solar := plot.Series{Name: fmt.Sprintf("solar %.0f%%", irr*100)}
		for _, p := range c.Cell.Curve(irr, SweepPoints) {
			solar.X = append(solar.X, p.Voltage)
			solar.Y = append(solar.Y, p.Power*1e3)
		}
		out := plot.Series{Name: fmt.Sprintf("SC out %.0f%%", irr*100)}
		out.X, out.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
			v := 0.05 + (0.85-0.05)*float64(k)/float64(SweepPoints-1)
			pout, err := reg.OutputPower(c.SC, vmpp, v, pmpp)
			if err != nil {
				return 0, 0, false
			}
			return v, pout * 1e3, true
		})
		res.Series = append(res.Series, solar, out)
		res.Decisions = append(res.Decisions, sys.DecideBypass(c.SC, irr))
	}
	res.Crossover = sys.BypassCrossover(c.SC, 0.02, 1.0)
	return res
}

// Report implements Reporter.
func (r *Fig7aResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 7a: regulated output under variable light ==")
	fmt.Fprintln(w, "  paper: regulator wins at 100%/50% light, loses (~20% deficit) at 25% -> bypass")
	for _, d := range r.Decisions {
		verdict := "regulate"
		if d.Bypass {
			verdict = "bypass"
		}
		fmt.Fprintf(w, "  %3.0f%% light: regulated %.2f mW vs direct %.2f mW -> %s\n",
			d.Irradiance*100, d.Regulated.LoadPower*1e3, d.Unregulated.LoadPower*1e3, verdict)
	}
	fmt.Fprintf(w, "  bypass crossover: %.1f%% of full sun (paper: ~25%%)\n", r.Crossover*100)
	return renderChart(w, plot.Chart{Title: "Fig. 7a", XLabel: "V (V)", YLabel: "P (mW)"}, r.Series...)
}

// Fig7bResult reproduces Fig. 7b: the holistic minimum-energy point versus
// the conventional one (paper: MEP shifts up by up to ~0.1 V, saving up to
// ~31%).
type Fig7bResult struct {
	Series []plot.Series // normalised energy/cycle vs Vdd
	MEPs   map[string]core.MEPResult
}

// Fig7b runs the holistic MEP analysis with the regulator fed from the
// full-sun MPP voltage.
func Fig7b() (*Fig7bResult, error) {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	vmpp, _ := c.Cell.MPP(pv.FullSun)

	res := &Fig7bResult{MEPs: make(map[string]core.MEPResult, 3)}
	_, convMin := c.Proc.ConventionalMEP()

	conv := plot.Series{Name: "conventional"}
	conv.X, conv.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
		v := c.Proc.MinVoltage() + (0.9-c.Proc.MinVoltage())*float64(k)/float64(SweepPoints-1)
		return v, c.Proc.EnergyPerCycle(v) / convMin, true
	})
	res.Series = append(res.Series, conv)

	for _, r := range []reg.Regulator{c.SC, c.Buck, c.LDO} {
		mep, err := sys.HolisticMEP(r, vmpp)
		if err != nil {
			return nil, fmt.Errorf("holistic MEP %s: %w", r.Name(), err)
		}
		res.MEPs[r.Name()] = mep
		s := plot.Series{Name: "w/ " + r.Name()}
		s.X, s.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
			v := c.Proc.MinVoltage() + (0.9-c.Proc.MinVoltage())*float64(k)/float64(SweepPoints-1)
			e := sys.SourceEnergyPerCycle(r, vmpp, v)
			if math.IsInf(e, 0) {
				return 0, 0, false
			}
			return v, e / convMin, true
		})
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Report implements Reporter.
func (r *Fig7bResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 7b: holistic vs conventional minimum energy point ==")
	fmt.Fprintln(w, "  paper: MEP shifts up by up to ~0.1 V; up to ~31% saving vs conventional MEP")
	for _, name := range []string{"SC", "Buck", "LDO"} {
		mep, ok := r.MEPs[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-5s conventional %.3f V -> holistic %.3f V (shift %+.3f V), saving %.1f%%\n",
			name, mep.ConventionalVoltage, mep.HolisticVoltage, mep.VoltageShift, mep.Savings*100)
	}
	return renderChart(w, plot.Chart{Title: "Fig. 7b", XLabel: "Vdd (V)", YLabel: "E/cycle (norm)"}, r.Series...)
}

// Fig11aResult reproduces Fig. 11a: the measured-style system
// characteristics — frequency and the energy contributors versus supply —
// with the conventional and regulator-aware MEPs marked.
type Fig11aResult struct {
	Series []plot.Series
	MEP    core.MEPResult
}

// Fig11a sweeps the processor characteristics with the SC regulator.
func Fig11a() *Fig11aResult {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	vmpp, _ := c.Cell.MPP(pv.FullSun)
	res := &Fig11aResult{}
	if mep, err := sys.HolisticMEP(c.SC, vmpp); err == nil {
		res.MEP = mep
	}
	_, convMin := c.Proc.ConventionalMEP()

	fig11aV := func(k int) float64 {
		return 0.2 + (1.0-0.2)*float64(k)/float64(SweepPoints-1)
	}
	freq := plot.Series{Name: "freq (GHz)"}
	freq.X, freq.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
		v := fig11aV(k)
		return v, c.Proc.MaxFrequency(v) / 1e9, true
	})
	leak := plot.Series{Name: "leakage E (norm)"}
	leak.X, leak.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
		v := fig11aV(k)
		e := c.Proc.LeakageEnergyPerCycle(v)
		return v, e / convMin, !math.IsInf(e, 0)
	})
	dyn := plot.Series{Name: "dynamic E (norm)"}
	dyn.X, dyn.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
		v := fig11aV(k)
		return v, c.Proc.DynamicEnergyPerCycle(v) / convMin, true
	})
	tot := plot.Series{Name: "total E w/ reg (norm)"}
	tot.X, tot.Y = sweepXY(SweepPoints, func(k int) (float64, float64, bool) {
		v := fig11aV(k)
		e := sys.SourceEnergyPerCycle(c.SC, vmpp, v)
		return v, e / convMin, !math.IsInf(e, 0)
	})
	res.Series = []plot.Series{freq, leak, dyn, tot}
	return res
}

// Report implements Reporter.
func (r *Fig11aResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 11a: system characteristics (speed, energy contributors) ==")
	fmt.Fprintf(w, "  conventional MEP %.3f V; MEP w/ regulator %.3f V (shift %+.3f V)\n",
		r.MEP.ConventionalVoltage, r.MEP.HolisticVoltage, r.MEP.VoltageShift)
	return renderChart(w, plot.Chart{Title: "Fig. 11a", XLabel: "Vdd (V)", YLabel: "freq / energy"}, r.Series...)
}

// HeadlineResult reproduces the paper's summary claim: up to ~30% energy
// saving from holistic optimisation versus the conventional rule of thumb.
type HeadlineResult struct {
	PerRegulator map[string]float64 // regulator -> best saving fraction
	Best         float64
	BestReg      string
	BestAt       float64
}

// Headline sweeps light levels and regulators and reports the best holistic
// saving over operating at the conventional MEP.
func Headline() *HeadlineResult {
	c := DefaultComponents()
	sys := core.NewSystem(c.Cell, c.Proc)
	res := &HeadlineResult{PerRegulator: make(map[string]float64)}
	res.Best = math.Inf(-1)
	for _, r := range []reg.Regulator{c.SC, c.Buck, c.LDO} {
		best := math.Inf(-1)
		bestAt := 0.0
		for _, irr := range []float64{1.0, 0.75, 0.5, 0.35, 0.25} {
			vmpp, pmpp := c.Cell.MPP(irr)
			if pmpp <= 0 {
				continue
			}
			mep, err := sys.HolisticMEP(r, vmpp)
			if err != nil {
				continue
			}
			if mep.Savings > best {
				best, bestAt = mep.Savings, irr
			}
		}
		res.PerRegulator[r.Name()] = best
		if best > res.Best {
			res.Best, res.BestReg, res.BestAt = best, r.Name(), bestAt
		}
	}
	return res
}

// Report implements Reporter.
func (r *HeadlineResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== Headline: holistic saving vs conventional rule of thumb ==")
	fmt.Fprintln(w, "  paper: up to ~30% energy saving with a holistic view")
	for _, name := range []string{"SC", "Buck", "LDO"} {
		if s, ok := r.PerRegulator[name]; ok {
			fmt.Fprintf(w, "  %-5s best saving: %.1f%%\n", name, s*100)
		}
	}
	fmt.Fprintf(w, "  overall best: %.1f%% (%s at %.0f%% light)\n", r.Best*100, r.BestReg, r.BestAt*100)
	return nil
}
