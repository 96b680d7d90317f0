#!/usr/bin/env bash
# Configure, build, and run the test suite under sanitizers:
#   1. the full suite under ASan + UBSan (`asan-ubsan` preset, build-asan/)
#   2. the telemetry, threaded-construction and map-build tests under TSan
#      (`tsan` preset, build-tsan/)
#
# Usage: tools/run_sanitized_tests.sh [extra ctest args...]
# Any arguments are forwarded to the ASan/UBSan ctest invocation, e.g.
#   tools/run_sanitized_tests.sh -R fact_solver_test
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ctest --preset asan-ubsan -j "$(nproc)" "$@"

# TSan stage: focus on the tests that exercise shared-state concurrency —
# the metric registry, trace buffer, quantile sketches, the anytime-curve
# recorder, the profiler slot table, the construction worker pool, and
# the portfolio's two replica passes, the construction-only golden
# fingerprints (best of 4 iterations on 4 workers) — plus the local-search
# engine tests, whose metric flushes touch the shared registry, the
# observability plane (seqlock progress board, HTTP server, run journal),
# the run-event oracle (a 4-thread portfolio emitting into an attached
# board, journal and curve), the solve service (job scheduler worker pool + concurrent HTTP
# submissions, per-job traces/curves, streaming latency stats), and the
# shared worker pool itself and the map build (Voronoi cell blocks and
# noise samples on that pool).
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
  obs_metrics_test quantile_test obs_trace_test obs_curve_test \
  obs_profiler_test obs_export_test obs_progress_test \
  obs_journal_test obs_http_test run_events_oracle_test json_writer_test \
  thread_invariance_test fact_solver_test run_context_test \
  neighborhood_test tabu_golden_test portfolio_test \
  solver_registry_test service_stats_test service_test service_http_test \
  ticket_pool_test voronoi_test census_synthesizer_test dataset_catalog_test
ctest --preset tsan -j "$(nproc)" \
  -R '^(obs_metrics_test|quantile_test|obs_trace_test|obs_curve_test|obs_profiler_test|obs_export_test|obs_progress_test|obs_journal_test|obs_http_test|run_events_oracle_test|json_writer_test|thread_invariance_test|fact_solver_test|run_context_test|neighborhood_test|tabu_golden_test|portfolio_test|solver_registry_test|service_stats_test|service_test|service_http_test|ticket_pool_test|voronoi_test|census_synthesizer_test|dataset_catalog_test)$'
