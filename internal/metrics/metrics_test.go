package metrics

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs run.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("depth", "Queue depth.")
	g.Add(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // le=1 (0.5 and 1.0), le=5, le=10, +Inf
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 5 || h.Sum() != 111.5 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "Requests.", "route", "class")
	v.With("healthz", "2xx").Add(3)
	v.With("metrics", "5xx").Inc()
	if v.With("healthz", "2xx").Value() != 3 {
		t.Fatal("With did not return the same child")
	}
	var lines []string
	v.Each(func(values []string, n uint64) {
		lines = append(lines, strings.Join(values, "/"))
	})
	if len(lines) != 2 || lines[0] != "healthz/2xx" || lines[1] != "metrics/5xx" {
		t.Fatalf("Each order = %v", lines)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x_total", "X again.")
}

// populatedScrape is a registry with a family of every kind the writer
// emits, escapes in help and label values, scraped by WriteText.
func populatedScrape() string {
	r := NewRegistry()
	r.Counter("plain_total", "Plain counter.").Add(7)
	r.Gauge("temp", "With\nnewline and back\\slash.").Add(1.25)
	r.GaugeFunc("sampled", "Sampled at scrape.", func() float64 { return 1e6 })
	v := r.CounterVec("reqs_total", "By route.", "route", "class")
	v.With("a b", "2xx").Add(2)
	v.With(`quo"te\`, "5xx").Inc()
	hv := r.HistogramVec("lat_ms", "Latency.", []float64{1, 5}, "route")
	hv.With("x").Observe(0.5)
	hv.With("x").Observe(50)

	var buf bytes.Buffer
	r.WriteText(&buf)
	return buf.String()
}

// The writer's own output must satisfy the strict parser — the contract
// the CI scrape check relies on.
func TestWriteTextRoundTrip(t *testing.T) {
	text := populatedScrape()

	sc, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("strict parse of own output: %v\n%s", err, text)
	}
	if f := sc.Family("reqs_total"); f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("reqs_total family = %+v", sc.Family("reqs_total"))
	} else {
		if f.Samples[0].Label("route") != "a b" || f.Samples[0].Value != 2 {
			t.Fatalf("sample 0 = %+v", f.Samples[0])
		}
		if f.Samples[1].Label("route") != `quo"te\` {
			t.Fatalf("escaped label round-trip = %+v", f.Samples[1])
		}
	}
	if f := sc.Family("lat_ms"); f == nil || f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("lat_ms family = %+v", sc.Family("lat_ms"))
	}
	if !strings.Contains(text, "sampled 1000000\n") {
		t.Fatalf("integral func gauge not plain-formatted:\n%s", text)
	}
	if !strings.Contains(text, `reqs_total{route="a b",class="2xx"} 2`) {
		t.Fatalf("label order not declaration order:\n%s", text)
	}
}

// malformedExpositions are scrapes the parser must reject, by the rule
// each breaks.
var malformedExpositions = map[string]string{
	"sample without TYPE": "foo 1\n",
	"sample before TYPE":  "# HELP foo h\nfoo 1\n# TYPE foo counter\n",
	"second TYPE":         "# TYPE foo counter\nfoo 1\n# TYPE foo gauge\n",
	"reopened family":     "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
	"negative counter":    "# TYPE foo counter\nfoo -1\n",
	"bad escape":          "# TYPE foo counter\nfoo{l=\"\\x\"} 1\n",
	"unterminated label":  "# TYPE foo counter\nfoo{l=\"v 1\n",
	"duplicate series":    "# TYPE foo counter\nfoo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n",
	"duplicate label":     "# TYPE foo counter\nfoo{a=\"1\",a=\"2\"} 1\n",
	"bad value":           "# TYPE foo counter\nfoo xyz\n",
	"bucket without le":   "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
	"missing inf bucket":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	"non-cumulative":      "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"count != inf":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	"invalid metric name": "# TYPE 9foo counter\n9foo 1\n",
	"bad TYPE value":      "# TYPE foo cntr\nfoo 1\n",
	"HELP without TYPE":   "# HELP foo h\n",
	"infinite counter":    "# TYPE foo counter\nfoo +Inf\n",
	"NaN bucket":          "# TYPE h histogram\nh_bucket{le=\"1\"} NaN\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"blank value":         "# TYPE foo gauge\nfoo \v\n", // whitespace but no value
	"non-numeric le":      "# TYPE h histogram\nh_bucket{le=\"abc\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"NaN le":              "# TYPE h histogram\nh_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"le out of order":     "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"bucket after inf":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, text := range malformedExpositions {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

func TestParseAcceptsForeignProducer(t *testing.T) {
	// Timestamps, free comments, label order variance, empty lines.
	text := `# a free comment
# TYPE up gauge
up 1 1712345678901

# HELP lat seconds
# TYPE lat histogram
lat_bucket{le="0.1",route="a"} 1
lat_bucket{route="a",le="+Inf"} 2
lat_sum{route="a"} 0.3
lat_count{route="a"} 2
`
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("rejected conforming scrape: %v", err)
	}
}

// TestStrictParseLiveScrape validates a running server's scrape when
// PROMCHECK_URL is set — the CI profile-smoke job points it at a live
// hemserved /metrics/prometheus endpoint.
func TestStrictParseLiveScrape(t *testing.T) {
	url := os.Getenv("PROMCHECK_URL")
	if url == "" {
		t.Skip("PROMCHECK_URL not set")
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ContentType) {
		t.Errorf("Content-Type = %q, want prefix %q", ct, ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("live scrape failed strict parse: %v", err)
	}
	if len(sc.Families) == 0 {
		t.Fatal("live scrape has no families")
	}
	t.Logf("scrape OK: %d families", len(sc.Families))
}
