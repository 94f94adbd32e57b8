package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTrackedPolicy(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-duration", "0.5", "-policy", "tracked"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"weather:", "tracker:", "recognition frames", "energy harvested"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFixedAndMEPPolicies(t *testing.T) {
	for _, policy := range []string{"fixed", "mep"} {
		var b strings.Builder
		if err := run([]string{"-duration", "0.3", "-policy", policy}, &b); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(b.String(), "policy \""+policy+"\"") {
			t.Errorf("%s: summary missing", policy)
		}
	}
}

func TestRunValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-duration", "-1"}, &b); err == nil {
		t.Error("negative duration accepted")
	}
	if err := run([]string{"-cloudiness", "2"}, &b); err == nil {
		t.Error("absurd cloudiness accepted")
	}
	if err := run([]string{"-duration", "0.2", "-policy", "nonsense"}, &b); err == nil {
		t.Error("unknown policy accepted")
	}
	// Non-finite values: a NaN or infinite duration used to panic in the
	// weather trace, a NaN capacitance to print NaN cycles, and a NaN
	// cloudiness to run under a cloudless sky. So did a duration whose
	// 5 ms trace needs weather.MaxSamples samples or more. The short
	// duration keeps an accepted run quick.
	for _, bad := range [][]string{
		{"-duration", "NaN"}, {"-duration", "Inf"}, {"-duration", "-Inf"},
		{"-duration", "1e300"}, {"-duration", "1e13"},
		{"-duration", "0.01", "-cap", "NaN"}, {"-duration", "0.01", "-cap", "Inf"},
		{"-duration", "0.01", "-cap", "-Inf"}, {"-duration", "0.01", "-cap", "0"},
		{"-duration", "0.01", "-cloudiness", "NaN"},
	} {
		if err := run(bad, &b); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-duration", "0.3", "-seed", "5"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-duration", "0.3", "-seed", "5"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different campaigns")
	}
}

// TestCampaignFanOut checks the multi-campaign path: per-seed headers in
// seed order, deterministic bytes regardless of the worker count.
func TestCampaignFanOut(t *testing.T) {
	outFor := func(jobs string) string {
		var b strings.Builder
		if err := run([]string{"-duration", "0.2", "-seed", "3", "-campaigns", "3", "-j", jobs}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := outFor("4")
	i3 := strings.Index(out, "== campaign seed=3 ==")
	i4 := strings.Index(out, "== campaign seed=4 ==")
	i5 := strings.Index(out, "== campaign seed=5 ==")
	if i3 < 0 || i4 < 0 || i5 < 0 || !(i3 < i4 && i4 < i5) {
		t.Fatalf("campaign headers missing or out of order:\n%s", out)
	}
	if got := outFor("1"); got != out {
		t.Error("fan-out output differs between -j 1 and -j 4")
	}
}

func TestCampaignFanOutValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-campaigns", "0"}, &b); err == nil {
		t.Error("campaigns=0 accepted")
	}
	if err := run([]string{"-campaigns", "2", "-csv", "x.csv"}, &b); err == nil {
		t.Error("fan-out with -csv accepted")
	}
}

func TestTraceCSVExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	var b strings.Builder
	if err := run([]string{"-duration", "0.2", "-csv", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y\n") {
		t.Error("csv header missing")
	}
	if !strings.Contains(string(data), "irradiance") {
		t.Error("csv series missing")
	}
}
