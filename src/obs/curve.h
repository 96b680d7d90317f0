#ifndef EMP_OBS_CURVE_H_
#define EMP_OBS_CURVE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace emp {
namespace obs {

/// Bounded recorder of one solve's anytime-quality trajectory: a sample
/// of (wall_ms, best_p, heterogeneity, evaluations) on every incumbent
/// improvement, plus coarse timer ticks from the supervision slow path so
/// flat stretches still show the evaluation spend. This is the data spine
/// for quality-over-time reporting (ROADMAP: optimality-gap reporting) —
/// "did the solve converge, and how fast" as one machine-readable curve.
///
/// Attached through RunContext::curve and fed by the solver's run events
/// (core/run_events.h). Fixed-seed output is bit-identical with the
/// recorder on or off, because the recorder only *reads* solver state.
///
/// Bounded like the trace buffer: when full, new samples are dropped and
/// counted — the early samples carry the steep part of the curve that
/// makes the rest interpretable. Thread-safe (the portfolio publishes
/// incumbent improvements from replica threads).
class AnytimeCurve {
 public:
  struct Sample {
    int64_t wall_ms = 0;
    int32_t best_p = -1;        // -1 until construction reports one
    double heterogeneity = 0.0;
    bool has_heterogeneity = false;
    int64_t evaluations = 0;
  };

  /// `capacity` bounds retained samples; `tick_interval_ms` rate-limits
  /// Tick() so the supervision slow path cannot flood the recorder.
  explicit AnytimeCurve(size_t capacity = 1024,
                        int64_t tick_interval_ms = 250);
  AnytimeCurve(const AnytimeCurve&) = delete;
  AnytimeCurve& operator=(const AnytimeCurve&) = delete;

  /// Incumbent p improved (or was first published); always records.
  void OnBestP(int32_t p, int64_t evaluations);

  /// Incumbent heterogeneity improved; always records.
  void OnHeterogeneity(double h, int64_t evaluations);

  /// Coarse timer tick from the supervision slow path: records the
  /// current incumbent state only when `tick_interval_ms` has elapsed
  /// since the last retained sample.
  void Tick(int64_t evaluations);

  std::vector<Sample> Snapshot() const;
  int64_t dropped() const;
  size_t capacity() const { return capacity_; }

  /// The curve as one JSON document:
  ///   {"samples": [{"wall_ms": ..., "best_p": ..., "heterogeneity":
  ///    <num|null>, "evaluations": ...}, ...], "dropped": N,
  ///    "capacity": N}
  std::string ToJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  int64_t NowMs() const;
  void RecordLocked(int64_t now_ms, int64_t evaluations);

  const size_t capacity_;
  const int64_t tick_interval_ms_;
  const Clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  int64_t dropped_ = 0;
  int64_t last_sample_ms_ = -1;
  int32_t best_p_ = -1;
  double heterogeneity_ = 0.0;
  bool has_heterogeneity_ = false;
};

}  // namespace obs
}  // namespace emp

#endif  // EMP_OBS_CURVE_H_
