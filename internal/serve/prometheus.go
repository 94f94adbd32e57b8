package serve

// Prometheus text exposition of the same counters GET /metrics serves as
// JSON. The families live in the server's metrics registry
// (internal/metrics), which writes one # HELP and one # TYPE line per
// family and series in sorted label order; the scrape also appends the
// process-wide default registry (runner_jobs_total, fleet_runs_total, ...)
// so cross-cutting counters are visible without a second endpoint.

import (
	"net/http"

	"repro/internal/metrics"
)

// handleMetricsPrometheus renders the counter snapshot in the Prometheus
// text exposition format (version 0.0.4).
func (s *Server) handleMetricsPrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.metrics.reg.WriteText(w)
	metrics.Default().WriteText(w)
}

// registerServerFuncs adds the scrape-time families that sample state
// owned by other server components (caches, gate, stale store, access
// log). Called once from New after those components exist.
func (s *Server) registerServerFuncs() {
	reg := s.metrics.reg
	u64 := func(fn func() uint64) func() float64 {
		return func() float64 { return float64(fn()) }
	}

	reg.CounterFunc("hemserved_report_cache_hits_total", "Report cache hits.",
		u64(s.reports.hits.Load))
	reg.CounterFunc("hemserved_report_cache_misses_total", "Report cache misses.",
		u64(s.reports.misses.Load))
	reg.CounterFunc("hemserved_report_cache_coalesced_total", "Renders shared via singleflight.",
		u64(s.reports.shared.Load))
	reg.GaugeFunc("hemserved_report_cache_entries", "Rendered responses currently cached.",
		func() float64 { return float64(s.reports.lru.len()) })
	reg.GaugeFunc("hemserved_report_cache_capacity", "Report cache capacity.",
		func() float64 { return float64(s.cfg.ReportCacheSize) })

	reg.GaugeFunc("hemserved_gate_capacity", "Simulation gate capacity.",
		func() float64 { return float64(s.gate.Cap()) })
	reg.GaugeFunc("hemserved_gate_in_flight", "Simulations currently running.",
		func() float64 { return float64(s.gate.InFlight()) })
	reg.CounterFunc("hemserved_gate_waited_total", "Requests that queued at the gate.",
		u64(s.gate.Waited))

	reg.GaugeFunc("hemserved_stale_store_entries", "Last-known-good renders held for degraded mode.",
		func() float64 { return float64(s.reports.staleLen()) })
	reg.CounterFunc("hemserved_log_dropped_total", "Access-log lines lost to write or marshal failures.",
		u64(s.log.droppedLines))
}
