package main

import (
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("relSpread = %g", got)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{15, 0, 0, false},   // the median has only 7 samples above it
		{20, 50, 10, true},  // p75 would leave 5
		{100, 90, 90, true}, // p95 would leave 5
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, ok := tailPercentile(ramp(c.n))
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("n=%d: tailPercentile = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
			}
		}
	}
	if got := percentile(ramp(100), 99); got != 99 {
		t.Errorf("percentile(1..100, 99) = %g", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{10.2, 10.3, 10.1, 10.2, 10.25}, false, "within bound"},
		{[]float64{12, 12.1, 11.9, 12, 12.05}, false, "worse"},
		{[]float64{12, 12.1, 11.9, 12, 12.05}, true, "better"},
		{[]float64{8, 8.1, 7.9, 8, 8.05}, false, "better"},
		{[]float64{5, 15, 10, 20, 2}, false, "unresolved"},
		{[]float64{20, 30, 40, 25, 35}, false, "worse"}, // wide, but every run is worse
	} {
		if got := verdict(base, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}

func TestFooterStats(t *testing.T) {
	out := []byte("report\n\n-- timing (j=2) --\n  fig2               2.9ms\n  fig3               0s\n" +
		"  ext-shading        1.3267s\n  3 experiments in 1.532s wall, 2.53s cpu (1.7x parallel)\n")
	reports, footer := splitFooter(out)
	if string(reports) != "report\n" {
		t.Fatalf("reports = %q", reports)
	}
	perID, wall, cpu, err := footerStats(footer)
	if err != nil {
		t.Fatal(err)
	}
	if len(perID) != 3 || perID["ext-shading"] != 1326700*time.Microsecond || wall != 1532*time.Millisecond || cpu != 2530*time.Millisecond {
		t.Errorf("footerStats = %v, %v, %v", perID, wall, cpu)
	}
	if _, _, _, err := footerStats([]byte("no footer")); err == nil || !strings.Contains(err.Error(), "footer") {
		t.Errorf("footerStats without a footer: %v", err)
	}
}
