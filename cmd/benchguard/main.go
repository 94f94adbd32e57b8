// Command benchguard is the benchmark regression gate for the serving hot
// paths: a PV solve, one registry report render, and the cached experiment
// HTTP handler, against the committed BENCH_serve.json baseline. The
// simulation kernel is measured end to end by e2ebench and by the Go
// benchmarks in bench_test.go.
//
// It measures each path in-process, writes the measured ns/op to a JSON
// file, and exits non-zero if any path regressed more than the tolerance
// versus the committed baseline (-report-only prints regressions without
// failing, for noisy CI runners). CI runs it after the unit tests; refresh
// the baseline deliberately with -update after an intentional performance
// change.
//
// Usage:
//
//	benchguard [-baseline FILE] [-out measured.json]
//	           [-tolerance 0.25] [-benchtime 200ms] [-update] [-report-only]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/expt"
	"repro/internal/pv"
	"repro/internal/serve"
)

// baselineFile is the on-disk schema of BENCH_serve.json.
type baselineFile struct {
	Note       string             `json:"note"`
	Benchmarks map[string]float64 `json:"benchmarks"` // name -> ns/op
}

// hotPath runs n iterations of one guarded operation.
type hotPath func(n int) error

// hotPaths returns the guarded paths keyed by name. Shared state (the
// server) lives in the closures so warm-up and measurement see the same
// world.
func hotPaths() map[string]hotPath {
	cell := pv.NewCell()
	h := serve.New(serve.Config{}).Handler()

	return map[string]hotPath{
		"pv_solve_uncached": func(n int) error {
			for i := 0; i < n; i++ {
				cell.MPP(pv.HalfSun)
			}
			return nil
		},
		"report_render": func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := expt.Render("fig3"); err != nil {
					return err
				}
			}
			return nil
		},
		"http_experiment_cached": func(n int) error {
			for i := 0; i < n; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/experiments/fig3", nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler status %d: %s", rec.Code, rec.Body)
				}
			}
			return nil
		},
	}
}

// measure times p until the budget is spent and returns ns/op. One
// untimed warm-up iteration absorbs cold caches and lazy allocations.
func measure(p hotPath, budget time.Duration) (float64, error) {
	if err := p(1); err != nil {
		return 0, err
	}
	n := 1
	for {
		start := time.Now()
		if err := p(n); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if elapsed >= budget || n >= 1e8 {
			return float64(elapsed.Nanoseconds()) / float64(n), nil
		}
		// Grow toward the budget with 20% overshoot, at least doubling.
		next := int(float64(n) * 1.2 * float64(budget) / float64(elapsed+1))
		if next < 2*n {
			next = 2 * n
		}
		n = next
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_serve.json", "committed baseline to compare against")
		outPath      = fs.String("out", "", "also write measured ns/op to this file")
		tolerance    = fs.Float64("tolerance", 0.25, "allowed fractional regression per path")
		benchtime    = fs.Duration("benchtime", 200*time.Millisecond, "measurement budget per path")
		update       = fs.Bool("update", false, "rewrite the baseline instead of comparing")
		reportOnly   = fs.Bool("report-only", false, "print regressions but exit zero (for noisy runners)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	paths := hotPaths()
	names := make([]string, 0, len(paths))
	for n := range paths {
		names = append(names, n)
	}
	sort.Strings(names)

	measured := baselineFile{
		Note:       "ns/op baselines for the serve hot paths; refresh deliberately with: go run ./cmd/benchguard -update",
		Benchmarks: make(map[string]float64, len(names)),
	}
	for _, name := range names {
		nsop, err := measure(paths[name], *benchtime)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		measured.Benchmarks[name] = nsop
		fmt.Printf("%-24s %14.1f ns/op\n", name, nsop)
	}

	writeTo := *outPath
	if *update {
		writeTo = *baselinePath
	}
	if writeTo != "" {
		blob, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writeTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *update {
		fmt.Printf("baseline %s rewritten\n", *baselinePath)
		return nil
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline missing (create with -update): %w", err)
	}
	var base baselineFile
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *baselinePath, err)
	}
	var regressions []string
	for _, name := range names {
		want, ok := base.Benchmarks[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: not in baseline (refresh with -update)", name))
			continue
		}
		got := measured.Benchmarks[name]
		switch {
		case got > want*(1+*tolerance):
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (+%.0f%%, limit +%.0f%%)",
				name, got, want, 100*(got/want-1), 100**tolerance))
		case got < want*(1-*tolerance):
			fmt.Printf("note: %s improved %.0f%% — consider refreshing the baseline\n", name, 100*(1-got/want))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
		}
		if *reportOnly {
			fmt.Printf("%d hot path(s) regressed beyond +%.0f%% (report-only: not failing)\n",
				len(regressions), 100**tolerance)
			return nil
		}
		return fmt.Errorf("%d hot path(s) regressed beyond +%.0f%%", len(regressions), 100**tolerance)
	}
	fmt.Printf("all %d hot paths within +%.0f%% of baseline\n", len(names), 100**tolerance)
	return nil
}
