#include "core/run_events.h"

#include <type_traits>

#include "common/json_writer.h"
#include "core/solution.h"
#include "core/solver_options.h"
#include "data/area_set.h"
#include "obs/curve.h"
#include "obs/journal.h"
#include "obs/progress.h"

namespace emp {

namespace {

template <typename V>
void Value(JsonWriter& w, const V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    w.Bool(v);
  } else if constexpr (std::is_integral_v<V>) {
    w.Int(static_cast<int64_t>(v));
  } else if constexpr (std::is_floating_point_v<V>) {
    w.Double(v);
  } else {
    w.String(v);
  }
}

/// Writes alternating key, value arguments as object members.
void Members(JsonWriter&) {}
template <typename V, typename... Rest>
void Members(JsonWriter& w, std::string_view key, const V& value,
             const Rest&... rest) {
  w.Key(key);
  Value(w, value);
  Members(w, rest...);
}

/// Appends a `type` record with the given key, value members.
template <typename... KeyValues>
void Append(obs::RunJournal* journal, std::string_view type,
            const KeyValues&... members) {
  if (journal == nullptr) return;
  journal->Append(type, [&](JsonWriter& w) { Members(w, members...); });
}

}  // namespace

RunEvents::RunEvents(const RunContext& ctx)
    : board_(ctx.progress_board),
      journal_(ctx.journal),
      curve_(ctx.curve),
      ctx_(&ctx) {}

int64_t RunEvents::evaluations() const {
  return ctx_ != nullptr ? ctx_->evaluations() : 0;
}

void RunEvents::RunBegin(const SolverOptions& options,
                         const AreaSet& areas) const {
  if (board_ != nullptr) {
    board_->SetBudgets(options.time_budget_ms, options.max_evaluations);
    board_->SetPhase("solve");
  }
  if (journal_ == nullptr) return;
  journal_->Append("run_start", [&](JsonWriter& w) {
    Members(w, "seed", options.seed, "construction_iterations",
            options.construction_iterations, "construction_threads",
            options.construction_threads, "run_local_search",
            options.run_local_search, "portfolio_replicas",
            options.portfolio_replicas, "time_budget_ms",
            options.time_budget_ms, "max_evaluations",
            options.max_evaluations);
    w.Key("instance");
    w.BeginInlineObject();
    Members(w, "name", areas.name(), "areas", areas.num_areas(), "edges",
            areas.graph().num_edges(), "digest",
            obs::DigestHex(areas.InstanceDigest()));
    w.EndObject();
  });
}

void RunEvents::RunEnd(const Result<Solution>& result, double seconds) const {
  if (journal_ != nullptr) {
    // Forced past the bound so even a truncated journal ends with run_end.
    // dropped() is read first: the fields callback runs under the journal
    // lock, so calling back into the journal there would deadlock.
    const int64_t dropped_records = journal_->dropped();
    journal_->Append(
        "run_end",
        [&](JsonWriter& w) {
          Members(w, "ok", result.ok());
          if (result.ok()) {
            Members(w, "p", result->p(), "heterogeneity",
                    result->heterogeneity, "unassigned",
                    result->num_unassigned(), "termination",
                    TerminationReasonName(result->termination_reason));
          } else {
            Members(w, "error", result.status().message());
          }
          Members(w, "seconds", seconds, "evaluations", evaluations(),
                  "dropped_records", dropped_records);
        },
        /*force=*/true);
  }
  if (board_ != nullptr && result.ok()) {
    board_->SetBestP(result->p());
    board_->SetHeterogeneity(result->heterogeneity);
    board_->SetPhase("idle");
  }
}

void RunEvents::PhaseBegin(std::string_view phase) const {
  if (board_ != nullptr) board_->SetPhase(phase);
  Append(journal_, "phase_begin", "phase", phase);
}

void RunEvents::ConstructionBegin(int iterations, int threads) const {
  if (board_ != nullptr) board_->SetPhase("construction");
  Append(journal_, "phase_begin", "phase", "construction", "iterations",
         iterations, "threads", threads);
}

void RunEvents::PortfolioBegin(int32_t replicas, int threads) const {
  if (board_ != nullptr) {
    board_->SetPhase("portfolio");
    board_->SetReplicaCount(replicas);
  }
  Append(journal_, "phase_begin", "phase", "portfolio", "replicas", replicas,
         "threads", threads);
}

void RunEvents::FeasibilityEnd(const FeasibilityReport& report,
                               double seconds) const {
  Append(journal_, "phase_end", "phase", "feasibility", "seconds", seconds,
         "feasible", report.feasible, "invalid_areas",
         report.invalid_areas.size());
}

void RunEvents::ConstructionEnd(int32_t best_p,
                                const Solution& solution) const {
  // The winner is the run's first incumbent: the curve gets a p sample,
  // then H completes the point.
  IncumbentP(best_p);
  const double h = solution.heterogeneity_before_local_search;
  if (curve_ != nullptr) curve_->OnHeterogeneity(h, evaluations());
  Append(journal_, "phase_end", "phase", "construction", "seconds",
         solution.construction_seconds, "best_p", best_p,
         "completed_iterations", solution.completed_construction_iterations,
         "heterogeneity", h);
}

void RunEvents::TabuEnd(const TabuResult& result, double seconds) const {
  // Terminal incumbent: the curve always ends at the returned quality even
  // when the last improvement predates the final epoch.
  IncumbentH(result.final_heterogeneity);
  Append(journal_, "phase_end", "phase", "tabu", "seconds", seconds,
         "iterations", result.iterations, "moves_applied",
         result.moves_applied, "initial_heterogeneity",
         result.initial_heterogeneity, "final_heterogeneity",
         result.final_heterogeneity);
}

void RunEvents::PortfolioEnd(double seconds, int32_t winning_replica,
                             int32_t best_p) const {
  Append(journal_, "phase_end", "phase", "portfolio", "seconds", seconds,
         "winning_replica", winning_replica, "best_p", best_p);
}

void RunEvents::Termination(std::string_view phase,
                            TerminationReason reason) const {
  Append(journal_, "termination", "phase", phase, "reason",
         TerminationReasonName(reason));
}

void RunEvents::Checkpoint(std::string_view phase, int64_t checkpoints) const {
  const int64_t spent = evaluations();
  if (board_ != nullptr) board_->OnCheckpoint(phase, checkpoints, spent);
  // The curve rate-limits ticks itself, so it keeps advancing between
  // incumbent improvements without flooding.
  if (curve_ != nullptr) curve_->Tick(spent);
}

void RunEvents::Work(int64_t done, int64_t total) const {
  if (board_ != nullptr) board_->SetWork(done, total);
}

void RunEvents::IncumbentP(int32_t p) const {
  if (board_ != nullptr) board_->SetBestP(p);
  if (curve_ != nullptr) curve_->OnBestP(p, evaluations());
}

void RunEvents::IncumbentH(double heterogeneity) const {
  if (board_ != nullptr) board_->SetHeterogeneity(heterogeneity);
  if (curve_ != nullptr) curve_->OnHeterogeneity(heterogeneity, evaluations());
}

void RunEvents::Replica(int32_t replica, obs::ReplicaState state,
                        int32_t p) const {
  if (board_ != nullptr) board_->SetReplicaState(replica, state, p);
}

void RunEvents::ReplicaSummary(int32_t replica, bool started,
                               bool tabu_skipped,
                               const Solution* solution) const {
  if (journal_ == nullptr) return;
  journal_->Append("replica", [&](JsonWriter& w) {
    Members(w, "replica", replica, "started", started, "tabu_skipped",
            tabu_skipped);
    if (solution == nullptr) return;
    Members(w, "p", solution->p(), "heterogeneity", solution->heterogeneity,
            "termination",
            TerminationReasonName(solution->termination_reason));
  });
}

}  // namespace emp
