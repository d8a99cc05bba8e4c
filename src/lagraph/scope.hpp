// Iteration-level governance for the algorithm drivers. A gb::platform
// Governor installed on the calling thread (directly, or through an engaged
// GxB_Context) makes every kernel poll; this header gives the *drivers* a
// cooperative layer on top: check between iterations, absorb a mid-iteration
// trip, and report partial progress instead of losing the work done so far.
//
// Ungoverned behaviour is unchanged: with no governor installed, step()
// runs the body directly and every exception propagates exactly as before.
#pragma once

#include "platform/governor.hpp"

namespace lagraph {

/// Why an iterative driver stopped. `none` means the run completed without
/// hitting any bound (e.g. BFS exhausted its frontier).
enum class StopReason {
  none,           ///< ran to natural completion
  converged,      ///< residual fell under tolerance
  max_iters,      ///< iteration cap reached before convergence
  diverged,       ///< a non-finite residual/iterate was detected
  cancelled,      ///< governor cancellation observed
  timeout,        ///< governor wall-clock deadline passed
  out_of_memory,  ///< governor byte budget exceeded
};

[[nodiscard]] constexpr const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::none: return "none";
    case StopReason::converged: return "converged";
    case StopReason::max_iters: return "max_iters";
    case StopReason::diverged: return "diverged";
    case StopReason::cancelled: return "cancelled";
    case StopReason::timeout: return "timeout";
    case StopReason::out_of_memory: return "out_of_memory";
  }
  return "unknown";
}

/// True for the governor-initiated reasons (the caller asked us to stop,
/// as opposed to the mathematics deciding).
[[nodiscard]] constexpr bool is_interruption(StopReason r) noexcept {
  return r == StopReason::cancelled || r == StopReason::timeout ||
         r == StopReason::out_of_memory;
}

/// Captures the thread's governor (if any) at driver entry. Drivers call
/// interrupted() between iterations and wrap each iteration body in step().
class Scope {
 public:
  Scope() noexcept : gov_(gb::platform::Governor::current()) {}

  [[nodiscard]] bool governed() const noexcept { return gov_ != nullptr; }

  /// Non-throwing between-iterations check: the trip is reported, not
  /// consumed, so a driver can stop cleanly and still return telemetry.
  [[nodiscard]] StopReason interrupted() const noexcept {
    if (!gov_) return StopReason::none;
    switch (gov_->tripped()) {
      case 1: return StopReason::cancelled;
      case 2: return StopReason::timeout;
      default: return StopReason::none;
    }
  }

  /// Run one iteration body. Governed: a governor trip thrown mid-iteration
  /// is absorbed and returned as a StopReason — safe because every GraphBLAS
  /// operation is transactional, so all objects the body touched hold either
  /// their pre- or post-operation state. Ungoverned: the body runs bare and
  /// every exception propagates (pre-governor behaviour, bit for bit).
  template <class F>
  [[nodiscard]] StopReason step(F&& f) const {
    if (!gov_) {
      f();
      return StopReason::none;
    }
    try {
      f();
      return StopReason::none;
    } catch (const gb::platform::CancelledError&) {
      return StopReason::cancelled;
    } catch (const gb::platform::TimeoutError&) {
      return StopReason::timeout;
    } catch (const gb::platform::BudgetError&) {
      return StopReason::out_of_memory;
    }
  }

 private:
  gb::platform::Governor* gov_;
};

/// Re-raise a governor stop as its platform exception. The legacy (pre-
/// checkpoint) entry points wrap the resumable `*_run` drivers with this so
/// their governed behaviour is unchanged: a trip still surfaces as
/// CancelledError / TimeoutError / BudgetError at the call site.
inline void rethrow_interruption(StopReason r) {
  switch (r) {
    case StopReason::cancelled: throw gb::platform::CancelledError{};
    case StopReason::timeout: throw gb::platform::TimeoutError{};
    case StopReason::out_of_memory: throw gb::platform::BudgetError{};
    default: break;
  }
}

}  // namespace lagraph
