package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies set B against set A for one metric. A metric whose
// run-to-run spread (interquartile range over median) in either set is
// wider than its bound is unresolved unless every run of B beats every run
// of A, or the reverse.
func verdict(a, b []float64, bound float64, higher bool) string {
	worse := func(x, y float64) bool { // x worse than y
		if higher {
			return x < y
		}
		return x > y
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		sa, sb := sorted(a), sorted(b)
		bestA, worstA, bestB, worstB := sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
		if higher {
			bestA, worstA, bestB, worstB = worstA, bestA, worstB, bestB
		}
		switch {
		case worse(bestA, worstB):
			return "better"
		case worse(bestB, worstA):
			return "worse"
		}
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if higher {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "within bound"
}

// compareSets prints, for every (workload, end-to-end metric) present in
// both result files, each set's median and spread and the verdict.
func compareSets(benchPath, pathA, pathB string, w io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	sets := make([]map[string]map[string][]float64, 2) // workload -> metric -> values
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], m.Value)
			}
		}
	}
	fmt.Fprintf(w, "%-20s %-12s %12s %7s %12s %7s %6s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "bound", "verdict")
	for _, wl := range sortedKeys(sets[0]) {
		for _, m := range bench.EndToEnd {
			a, b := sets[0][wl][m.Name], sets[1][wl][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-20s %-12s %12.6g %6.1f%% %12.6g %6.1f%% %5.0f%%  %s\n",
				wl, m.Name, median(a), 100*relSpread(a), median(b), 100*relSpread(b), 100*m.Bound,
				verdict(a, b, m.Bound, m.Better == "higher"))
		}
	}
	return nil
}
