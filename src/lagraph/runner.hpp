// lagraph::Runner — drives any iterative algorithm in governor-sized slices
// with retry-with-backoff and a degradation ladder, on top of the
// checkpoint/resume entry points.
//
// The Runner owns a gb::platform::Governor and calls the wrapped algorithm
// repeatedly, each call ("slice") under a fresh arm of that governor:
//
//   * slice_ms      — wall-clock deadline per slice. A timeout is the normal
//                     cadence, not a failure: the slice's checkpoint feeds
//                     the next slice and no retry budget is consumed.
//   * slice_budget  — byte budget per slice (delta over the metered
//                     footprint at slice entry). A budget trip climbs the
//                     degradation ladder before consuming retry attempts.
//
// Degradation ladder, climbed one rung per budget trip:
//
//   rung 1 — low-memory hint: mxm auto-select prefers the heap method over
//            Gustavson's dense accumulator (platform::low_memory_hint);
//   rung 2 — halved slice deadline: smaller slices bound both the peak
//            transient footprint and the work redone after a trip.
//
// No rung changes what the algorithm computes: a run either finishes with
// the exact answer or gives up with a resumable checkpoint.
//
// Past the ladder, each further budget trip consumes one RetryPolicy
// attempt: exponential backoff, then the slice budget is escalated by
// `budget_growth`. When attempts run out the Runner reports gave_up and
// returns the last partial result (checkpoint included), so the caller can
// still resume later with more memory.
//
// Cancellation (runner.governor().cancel(), any thread) always surfaces
// immediately — it is the caller's own stop request, never retried.
//
// If `checkpoint_path` is set, every interrupted slice persists its capsule
// atomically (temp file + rename), a fresh run() first looks for a capsule
// at that path to resume from, and a completed run retires the file. A
// process crash therefore loses at most one slice of work.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "lagraph/checkpoint.hpp"
#include "lagraph/scope.hpp"
#include "platform/governor.hpp"

namespace lagraph {

struct RetryPolicy {
  int max_attempts = 3;        ///< budget-trip retries after the ladder
  double backoff_ms = 1.0;     ///< first backoff sleep
  double backoff_factor = 2.0; ///< multiplier per retry
  double budget_growth = 2.0;  ///< slice-budget escalation per retry
};

struct RunnerOptions {
  double slice_ms = 0.0;         ///< wall-clock per slice; 0 = no deadline
  std::size_t slice_budget = 0;  ///< bytes per slice; 0 = unlimited
  int max_slices = 1000;         ///< hard cap against no-progress loops
  std::string checkpoint_path;   ///< optional crash-safe persistence
  RetryPolicy retry;
};

struct RunnerReport {
  StopReason stop = StopReason::none;  ///< final stop of the last slice
  int slices = 0;                      ///< algorithm invocations
  int retries = 0;                     ///< retry attempts consumed
  int degradations = 0;                ///< ladder rungs climbed
  bool gave_up = false;                ///< retries exhausted / slice cap hit
  bool resumed_from_file = false;      ///< initial state came from disk
};

namespace detail {
void backoff_sleep(double ms) noexcept;
}  // namespace detail

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {}) : opts_(std::move(opts)) {}

  /// Drive slices under an external governor instead of the Runner's own —
  /// the serving layer hands every job its per-request governor this way, so
  /// cross-thread cancel and the watchdog's poll-progress signal observe the
  /// same object the slices actually poll. `gov` must outlive the Runner.
  Runner(RunnerOptions opts, gb::platform::Governor& gov)
      : opts_(std::move(opts)), govp_(&gov) {}

  /// The governor slices run under; exposed so another thread can cancel()
  /// a run in flight. Deadline/budget are managed per slice by run().
  [[nodiscard]] gb::platform::Governor& governor() noexcept { return *govp_; }

  [[nodiscard]] const RunnerReport& report() const noexcept { return report_; }
  [[nodiscard]] const RunnerOptions& options() const noexcept { return opts_; }
  /// Mutable options, for front ends that configure a Runner incrementally
  /// (the C binding's setters). Only meaningful between runs.
  [[nodiscard]] RunnerOptions& options() noexcept { return opts_; }

  /// Drive `algo` to completion (or hard stop). `algo` is any callable
  /// taking `const Checkpoint*` (nullptr = fresh start) and returning a
  /// result struct with `.stop` (StopReason) and `.checkpoint` (Checkpoint)
  /// members — the shape every `*_run` driver in lagraph.hpp returns.
  template <class F>
  auto run(F&& algo) {
    report_ = RunnerReport{};
    Checkpoint cp;
    bool have_cp = false;
    if (!opts_.checkpoint_path.empty()) {
      try {
        cp = Checkpoint::load(opts_.checkpoint_path);
        have_cp = !cp.empty();
        report_.resumed_from_file = have_cp;
      } catch (...) {
        // Missing or unreadable snapshot: start fresh. A *corrupt* file is
        // indistinguishable from missing here by design — load() rejected
        // it before allocating, and restarting is always safe.
        have_cp = false;
      }
    }

    int rung = 0;                 // degradation ladder position (0..2)
    double budget_scale = 1.0;    // grows with each retry
    double slice_ms = opts_.slice_ms;

    for (;;) {
      govp_->set_timeout_ms(slice_ms);
      govp_->set_budget(scaled_budget(budget_scale));
      ++report_.slices;

      auto result = [&] {
        gb::platform::GovernorScope install(govp_);
        gb::platform::LowMemoryScope lomem(rung >= 1);
        return algo(have_cp ? &cp : nullptr);
      }();

      if (!is_interruption(result.stop)) {
        report_.stop = result.stop;
        retire_file();
        return result;
      }

      // Interrupted: bank the capsule and persist. A slice whose capture
      // failed (empty capsule — e.g. tripped during setup) must not erase
      // the progress banked by an earlier slice, so only a non-empty
      // capsule replaces the current one.
      if (!result.checkpoint.empty()) {
        cp = std::move(result.checkpoint);
        have_cp = true;
        persist(cp);
      }

      report_.stop = result.stop;
      if (result.stop == StopReason::cancelled) {
        return result;  // the caller's own request — never retried
      }
      if (report_.slices >= opts_.max_slices) {
        // Hard cap against no-progress loops: hand back the partial result
        // (checkpoint included) so the caller can resume with a fresh Runner.
        report_.gave_up = true;
        return result;
      }
      if (result.stop == StopReason::timeout) {
        if (slice_ms > 0) continue;  // normal slicing cadence
        return result;               // no deadline configured: not ours
      }

      // Budget trip: climb the ladder, then spend retries.
      if (rung < 2) {
        ++rung;
        ++report_.degradations;
        if (rung == 2 && slice_ms > 0) slice_ms *= 0.5;
        continue;
      }
      if (report_.retries >= opts_.retry.max_attempts) {
        report_.gave_up = true;
        return result;
      }
      detail::backoff_sleep(opts_.retry.backoff_ms *
                            pow_int(opts_.retry.backoff_factor,
                                    report_.retries));
      ++report_.retries;
      budget_scale *= opts_.retry.budget_growth;
    }
  }

 private:
  [[nodiscard]] std::size_t scaled_budget(double scale) const noexcept {
    if (opts_.slice_budget == 0) return 0;
    const double b = static_cast<double>(opts_.slice_budget) * scale;
    return b >= static_cast<double>(~std::size_t{0})
               ? ~std::size_t{0}
               : static_cast<std::size_t>(b);
  }

  static double pow_int(double base, int n) noexcept {
    double r = 1.0;
    for (int k = 0; k < n; ++k) r *= base;
    return r;
  }

  void persist(const Checkpoint& cp) noexcept {
    if (opts_.checkpoint_path.empty()) return;
    try {
      cp.save(opts_.checkpoint_path);
    } catch (...) {
      // Persistence is an aid, not a guarantee: a full disk must not turn
      // a resumable interruption into a hard failure.
    }
  }

  void retire_file() noexcept {
    if (!opts_.checkpoint_path.empty()) {
      std::remove(opts_.checkpoint_path.c_str());
    }
  }

  RunnerOptions opts_;
  RunnerReport report_;
  gb::platform::Governor gov_;
  gb::platform::Governor* govp_ = &gov_;  // external governor when set
};

}  // namespace lagraph
