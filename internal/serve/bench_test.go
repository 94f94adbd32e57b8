package serve

// Serving hot-path benchmarks. cmd/benchguard runs the same three paths
// in-process and gates CI on the committed BENCH_serve.json baseline;
// these go-test benchmarks are the interactive view of the same numbers:
//
//	go test ./internal/serve -bench . -benchtime 100ms

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/pv"
)

// BenchmarkPVSolveUncached measures the full golden-section solve.
func BenchmarkPVSolveUncached(b *testing.B) {
	cell := pv.NewCell()
	for i := 0; i < b.N; i++ {
		cell.MPP(pv.HalfSun)
	}
}

// BenchmarkReportRender measures one cold registry report render (the
// cache-miss cost of GET /api/v1/experiments/{id}).
func BenchmarkReportRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Render("fig3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandlerExperimentCached measures the full HTTP path of a
// cached report: routing, middleware, LRU hit, response write.
func BenchmarkHandlerExperimentCached(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	warm := httptest.NewRequest("GET", "/api/v1/experiments/fig3", nil)
	h.ServeHTTP(httptest.NewRecorder(), warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/experiments/fig3", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkHandlerPVSolve measures the JSON solve endpoint end to end
// (decode, gate, solve, encode).
func BenchmarkHandlerPVSolve(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	const body = `{"irradiance":0.5,"points":16}`
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/pv/solve", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
