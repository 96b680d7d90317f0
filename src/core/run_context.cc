#include "core/run_context.h"

#include <limits>

#include "core/run_events.h"

namespace emp {

std::string_view TerminationReasonName(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kConverged:
      return "converged";
    case TerminationReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case TerminationReason::kCancelled:
      return "cancelled";
    case TerminationReason::kBudgetExhausted:
      return "budget-exhausted";
    case TerminationReason::kFaultInjected:
      return "fault-injected";
  }
  return "unknown";
}

Deadline Deadline::AfterMillis(int64_t ms) {
  if (ms < 0) return Infinite();
  Deadline d;
  d.expiry_ = Clock::now() + std::chrono::milliseconds(ms);
  return d;
}

double Deadline::RemainingMillis() const {
  if (infinite()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(expiry_ - Clock::now())
      .count();
}

PhaseSupervisor::PhaseSupervisor(const RunContext* ctx, std::string_view phase,
                                 int64_t worker, int64_t time_check_stride)
    : ctx_(ctx),
      phase_(phase),
      worker_(worker),
      stride_(time_check_stride < 1 ? 1 : time_check_stride) {}

PhaseSupervisor::~PhaseSupervisor() {
  // Flush telemetry-only evaluation counts accumulated since the last
  // slow-path checkpoint.
  if (ctx_ != nullptr && pending_evaluations_ > 0) {
    ctx_->evaluations_spent->fetch_add(pending_evaluations_,
                                       std::memory_order_relaxed);
    pending_evaluations_ = 0;
  }
}

std::optional<TerminationReason> PhaseSupervisor::Check(int64_t evaluations) {
  if (tripped_) return tripped_;
  const int64_t index = checkpoints_++;
  if (ctx_ == nullptr) return std::nullopt;

  // Deterministic fault injection fires first, at every checkpoint, so
  // tests can target exact (phase, index, worker) points.
  if (ctx_->fault_hook) {
    if (auto forced =
            ctx_->fault_hook(SupervisionCheckpoint{phase_, index, worker_})) {
      tripped_ = *forced;
      return tripped_;
    }
  }

  if (ctx_->cancel.cancelled()) {
    tripped_ = TerminationReason::kCancelled;
    return tripped_;
  }

  if (ctx_->max_evaluations >= 0) {
    // Budget active: charge exactly at every checkpoint so the trip point
    // is deterministic (single-threaded) and never more than one
    // checkpoint late.
    const int64_t total =
        ctx_->evaluations_spent->fetch_add(evaluations,
                                           std::memory_order_relaxed) +
        evaluations;
    if (total > ctx_->max_evaluations) {
      tripped_ = TerminationReason::kBudgetExhausted;
      return tripped_;
    }
  } else {
    pending_evaluations_ += evaluations;
  }

  // Strided slow path. Index 0 is included so an already-expired deadline
  // trips before any work is done.
  if (index % stride_ == 0) return StrideCrossing();
  return std::nullopt;
}

std::optional<TerminationReason> PhaseSupervisor::StrideCrossing() {
  // Clock read + checkpoint event + evaluation flush.
  if (pending_evaluations_ > 0) {
    ctx_->evaluations_spent->fetch_add(pending_evaluations_,
                                       std::memory_order_relaxed);
    pending_evaluations_ = 0;
  }
  if (ctx_->deadline.Expired()) {
    tripped_ = TerminationReason::kDeadlineExceeded;
    return tripped_;
  }
  // The board and curve track phase, checkpoint count and evaluation
  // spend without the solver loops knowing either exists.
  RunEvents(*ctx_).Checkpoint(phase_, checkpoints_);
  return std::nullopt;
}

std::optional<TerminationReason> PhaseSupervisor::CheckMany(int64_t n) {
  if (tripped_ || n <= 0) return tripped_;
  if (ctx_ == nullptr) {
    checkpoints_ += n;
    return std::nullopt;
  }
  if (ctx_->fault_hook || ctx_->max_evaluations >= 0) {
    // Both observe every single index; replay them one by one.
    for (int64_t i = 0; i < n; ++i) {
      if (auto reason = Check()) return reason;
    }
    return std::nullopt;
  }
  if (ctx_->cancel.cancelled()) {
    ++checkpoints_;  // The first of the n checkpoints observes it.
    tripped_ = TerminationReason::kCancelled;
    return tripped_;
  }
  // Unit charges up to and including each stride crossing in [first, end).
  const int64_t end = checkpoints_ + n;
  for (int64_t cross = (checkpoints_ + stride_ - 1) / stride_ * stride_;
       cross < end; cross += stride_) {
    pending_evaluations_ += cross + 1 - checkpoints_;
    checkpoints_ = cross + 1;
    if (auto reason = StrideCrossing()) return reason;
  }
  pending_evaluations_ += end - checkpoints_;
  checkpoints_ = end;
  return std::nullopt;
}

}  // namespace emp
