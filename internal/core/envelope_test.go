package core

import (
	"errors"
	"math"
	"testing"
)

// envelopePoint is one level of a light sweep under the holistic policy:
// the plan PlanPerformance picks there and which mode it chose.
type envelopePoint struct {
	irr      float64
	pt       Point
	err      error
	bypass   bool // direct connection chosen at this level
	runnable bool // false when even direct connection cannot run
}

// envelope plans n evenly spaced irradiance levels from lo to hi with
// PlanPerformance: the system's operating envelope, whose mode boundary
// is the bypass crossover.
func envelope(m *Manager, lo, hi float64, n int) []envelopePoint {
	pts := make([]envelopePoint, n)
	for k := range pts {
		irr := lo + (hi-lo)*float64(k)/float64(n-1)
		pt, err := m.PlanPerformance(irr)
		pts[k] = envelopePoint{
			irr:      irr,
			pt:       pt,
			err:      err,
			bypass:   err == nil && pt.RegulatorName == "Bypass",
			runnable: err == nil && pt.Frequency > 0,
		}
	}
	return pts
}

// bypassBoundary returns the highest swept irradiance at which the
// envelope still chooses direct connection, or 0 if it never does.
func bypassBoundary(env []envelopePoint) float64 {
	boundary := 0.0
	for _, ep := range env {
		if ep.runnable && ep.bypass && ep.irr > boundary {
			boundary = ep.irr
		}
	}
	return boundary
}

func TestEnvelopeNeverRunnable(t *testing.T) {
	m := testManager()
	// Light so faint even direct connection cannot clock the core.
	for _, ep := range envelope(m, 1e-9, 1e-6, 8) {
		if ep.runnable {
			t.Errorf("irr=%g marked runnable", ep.irr)
		}
		if !errors.Is(ep.err, ErrNoFeasiblePoint) {
			t.Errorf("irr=%g: %v, want ErrNoFeasiblePoint", ep.irr, ep.err)
		}
	}
}

func TestEnvelopeAllBypass(t *testing.T) {
	m := testManager()
	// Sweep entirely below the analytic crossover: every runnable level
	// should choose direct connection.
	crossover := m.sys.BypassCrossover(m.r, 0.02, 1.0)
	env := envelope(m, 0.02, crossover*0.9, 12)
	best := 0.0
	for _, ep := range env {
		if !ep.runnable {
			continue
		}
		if !ep.bypass {
			t.Errorf("irr=%.3f regulated below the crossover %.3f", ep.irr, crossover)
		}
		best = math.Max(best, ep.irr)
	}
	if best == 0 {
		t.Fatal("no runnable points below the crossover")
	}
	if b := bypassBoundary(env); b != best {
		t.Errorf("boundary = %g, want brightest bypass level %g", b, best)
	}
}

func TestEnvelope(t *testing.T) {
	m := testManager()
	env := envelope(m, 0.05, 1.0, 40)
	// Frequency non-decreasing with light among runnable points.
	prev := -1.0
	for _, ep := range env {
		if !ep.runnable {
			continue
		}
		if ep.pt.Frequency < prev-1e3 {
			t.Fatalf("frequency fell with more light at irr=%.3f", ep.irr)
		}
		prev = ep.pt.Frequency
	}
	// The mode boundary matches the analytic crossover.
	boundary := bypassBoundary(env)
	crossover := m.sys.BypassCrossover(m.r, 0.02, 1.0)
	if math.Abs(boundary-crossover) > 0.05 {
		t.Errorf("envelope boundary %.3f vs analytic crossover %.3f", boundary, crossover)
	}
}

// TestBypassBoundaryMonotone checks that the holistic bypass decision is
// monotone in irradiance: direct connection wins below the crossover and
// regulation above, so among runnable levels the bypass ones form a
// prefix of the sweep.
func TestBypassBoundaryMonotone(t *testing.T) {
	m := testManager()
	regulated := false
	for _, ep := range envelope(m, 0.01, 1.0, 60) {
		if !ep.runnable {
			continue
		}
		if !ep.bypass {
			regulated = true
		} else if regulated {
			t.Fatalf("bypass at irr=%.3f above a regulated level: decision not monotone", ep.irr)
		}
	}
}
