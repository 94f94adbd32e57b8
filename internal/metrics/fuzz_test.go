package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseExposition: parsing never panics, and an accepted scrape keeps
// the promises of the parser's header. Every family has a valid TYPE, no
// series repeats, counters are finite and non-negative, and each
// histogram labelset has bucket bounds that are numbers and strictly
// increase up to a last +Inf bucket, cumulative buckets, and a _count
// equal to the +Inf bucket. The invariants are checked on the parsed
// Scrape, with their own grouping, not through the parser's.
func FuzzParseExposition(f *testing.F) {
	f.Add(populatedScrape())
	for _, text := range malformedExpositions {
		f.Add(text)
	}
	f.Add("# a free comment\n# TYPE up gauge\nup 1 1712345678901\n\n# HELP lat seconds\n# TYPE lat histogram\n" +
		"lat_bucket{le=\"0.1\",route=\"a\"} 1\nlat_bucket{route=\"a\",le=\"+Inf\"} 2\nlat_sum{route=\"a\"} 0.3\nlat_count{route=\"a\"} 2\n")
	f.Add("# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 3\n")
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		series := make(map[string]bool)
		for _, fam := range sc.Families {
			if !validTypes[fam.Type] {
				t.Fatalf("family %q accepted with TYPE %q", fam.Name, fam.Type)
			}
			for _, s := range fam.Samples {
				key := s.Name + "{" + labelKey(s.Labels, "") + "}"
				if series[key] {
					t.Fatalf("series %s accepted twice", key)
				}
				series[key] = true
				if fam.Type == "counter" && !(s.Value >= 0 && !math.IsInf(s.Value, 1)) {
					t.Fatalf("counter %s accepted with value %g", key, s.Value)
				}
			}
			if fam.Type == "histogram" {
				checkHistogramInvariants(t, fam)
			}
		}
	})
}

// labelKey is a canonical form of a labelset without the label named skip.
func labelKey(labels []Label, skip string) string {
	var pairs []string
	for _, l := range labels {
		if l.Name != skip {
			pairs = append(pairs, l.Name+"="+strconv.Quote(l.Value))
		}
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// checkHistogramInvariants fails t unless each of fam's labelsets (its
// labels without le) has, in scrape order, le bounds that parse as
// numbers and strictly increase, bucket counts that never decrease, a
// last bucket with le="+Inf", and a _count equal to that bucket.
func checkHistogramInvariants(t *testing.T, fam *Family) {
	t.Helper()
	type labelset struct {
		buckets, bounds []float64
		inf, count      *float64
	}
	sets := make(map[string]*labelset)
	for _, s := range fam.Samples {
		key := labelKey(s.Labels, "le")
		g := sets[key]
		if g == nil {
			g = &labelset{}
			sets[key] = g
		}
		v := s.Value
		switch s.Name {
		case fam.Name + "_bucket":
			le := s.Label("le")
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				t.Fatalf("histogram %s accepted with le=%q", fam.Name, le)
			}
			if g.inf != nil {
				t.Fatalf("histogram %s accepted with le=%q after its +Inf bucket", fam.Name, le)
			}
			g.buckets = append(g.buckets, v)
			g.bounds = append(g.bounds, bound)
			if le == "+Inf" {
				g.inf = &v
			}
		case fam.Name + "_count":
			g.count = &v
		}
	}
	for key, g := range sets {
		for k := 1; k < len(g.buckets); k++ {
			if !(g.buckets[k] >= g.buckets[k-1]) {
				t.Fatalf("histogram %s{%s} accepted with buckets %v", fam.Name, key, g.buckets)
			}
			if !(g.bounds[k] > g.bounds[k-1]) {
				t.Fatalf("histogram %s{%s} accepted with bounds %v", fam.Name, key, g.bounds)
			}
		}
		if g.inf == nil || g.count == nil || *g.count != *g.inf {
			t.Fatalf("histogram %s{%s} accepted without a +Inf bucket equal to its _count", fam.Name, key)
		}
	}
}
