// Execution governor: cooperative cancellation, wall-clock deadlines, and
// byte budgets for every kernel in the substrate.
//
// A Governor is a small bundle of atomic state — a cancel flag, an armed
// deadline, and an armed byte limit — that a caller installs on its thread
// for the duration of one or more operations (GovernorScope). The parallel
// helpers in platform/parallel.hpp capture the calling thread's governor
// before entering an OpenMP region and re-bind it inside each worker
// (GovernorBind), so polls fire on every thread that executes kernel chunks.
//
// Kernels call governor_poll() at chunk boundaries and inside long serial
// row loops. A poll is one thread-local pointer load when no governor is
// installed, and one relaxed atomic load (plus a strided clock read) when
// one is. Trips throw:
//
//   * CancelledError  — someone called Governor::cancel() (any thread);
//   * TimeoutError    — the armed wall-clock deadline passed;
//   * BudgetError     — an allocation would push MemoryMeter::current_bytes()
//                       past the armed limit (thrown from Alloc::allocate,
//                       derives from std::bad_alloc so every existing
//                       strong-exception-safety path handles it unchanged).
//
// This layer sits below graphblas/types.hpp, so like platform::exclusive_scan
// it throws plain std:: exception types; the C boundary maps them to
// GxB_CANCELLED / GxB_TIMEOUT / GrB_OUT_OF_MEMORY.
//
// Budgets are deltas: arming captures MemoryMeter::current_bytes() as the
// baseline, so "budget = 8 MiB" means "this call may grow the metered
// footprint by at most 8 MiB" regardless of what is already resident
// (including Workspace pool capacity retained by earlier calls). An absolute
// process-wide cap can be set with the LAGRAPH_MEM_BUDGET environment
// variable (bytes); it applies to every allocation, governor or not.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>

namespace gb::platform {

/// A cooperative cancellation request was observed at a poll point.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("gb: operation cancelled") {}
};

/// The governor's wall-clock deadline passed before the operation finished.
class TimeoutError : public std::runtime_error {
 public:
  TimeoutError() : std::runtime_error("gb: operation deadline exceeded") {}
};

/// An allocation would exceed the governor's byte budget. Derives from
/// std::bad_alloc so the existing OOM handling (strong exception safety,
/// GrB_OUT_OF_MEMORY mapping) applies verbatim.
class BudgetError : public std::bad_alloc {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "gb: memory budget exceeded";
  }
};

class Governor {
 public:
  Governor() = default;
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  // --- configuration (take effect at the next arm) ---------------------------

  /// Byte budget as a delta over the metered footprint at arm time.
  /// 0 = unlimited.
  void set_budget(std::size_t bytes) noexcept {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Wall-clock timeout, measured from arm time. <= 0 disables.
  void set_timeout_ms(double ms) noexcept {
    timeout_ns_.store(
        ms > 0 ? static_cast<std::int64_t>(ms * 1e6) : std::int64_t{0},
        std::memory_order_relaxed);
  }
  [[nodiscard]] double timeout_ms() const noexcept {
    return static_cast<double>(timeout_ns_.load(std::memory_order_relaxed)) /
           1e6;
  }

  // --- cross-thread control --------------------------------------------------

  /// Request cancellation. Safe from any thread, including while kernels are
  /// running under this governor; workers observe it at their next poll.
  void cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }
  void clear_cancel() noexcept {
    cancel_.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// OpenMP thread allotment for kernels running under this governor; 0 =
  /// none (every core). gb::platform::Service owns it: it re-splits the
  /// cores across its running jobs whenever one starts or finishes, and
  /// num_threads() re-reads it at every op. Safe from any thread.
  void set_thread_allotment(int threads) noexcept {
    threads_.store(threads, std::memory_order_relaxed);
  }
  [[nodiscard]] int thread_allotment() const noexcept {
    return threads_.load(std::memory_order_relaxed);
  }

  // --- scope machinery -------------------------------------------------------

  /// Outermost arm captures the deadline (now + timeout) and the byte limit
  /// (current metered bytes + budget). Nested arms are counted and free, so
  /// a lagraph::Scope around many GrB calls keeps one deadline while each C
  /// entry point may arm the engaged context again.
  void arm() noexcept;
  void disarm() noexcept;

  /// The governor installed on the calling thread, or nullptr.
  [[nodiscard]] static Governor* current() noexcept { return slot(); }

  // --- polling ---------------------------------------------------------------

  /// Throws CancelledError / TimeoutError if a trip condition holds. The
  /// cancel flag is checked on every call; the clock is read on a thread-
  /// local stride (first call of a thread always checks).
  void poll();

  /// poll() minus the throw: reports the trip without consuming it, for
  /// drivers that stop cleanly between iterations. 0 = run on, 1 = cancel,
  /// 2 = deadline.
  [[nodiscard]] int tripped() noexcept;

  /// Byte-budget admission check, called by Alloc::allocate with the size of
  /// the incoming block before it is carved. Throws BudgetError.
  void charge(std::size_t incoming_bytes);

  /// Bytes left under the armed limit (saturating at 0), or SIZE_MAX when no
  /// budget is armed. Kernels use this to pick a lower-footprint method up
  /// front instead of failing mid-flight.
  [[nodiscard]] std::size_t budget_remaining() const noexcept;

  // --- process-wide absolute cap (LAGRAPH_MEM_BUDGET, bytes) -----------------

  /// Parsed once per process; 0 = no cap.
  [[nodiscard]] static std::size_t env_budget() noexcept;

  // --- test hooks ------------------------------------------------------------

  enum class Trip : int { none = 0, cancel = 1, deadline = 2 };

  /// Let the next `n` polls pass, then trip every later one as `kind` until
  /// disarm_trips(). Mirrors Alloc::fail_after so soaks can hit every poll
  /// point deterministically. Process-wide; only fires under a governor.
  static void trip_poll_after(std::uint64_t n, Trip kind) noexcept;
  static void disarm_trips() noexcept;

  /// Polls observed since reset_poll_counter() (any governor, any thread).
  [[nodiscard]] static std::uint64_t total_polls() noexcept;
  static void reset_poll_counter() noexcept;

  /// Polls observed on *this* governor (all threads bound to it). The
  /// service watchdog reads this as a liveness signal: a running request
  /// whose governor's poll count stops advancing is stalled.
  [[nodiscard]] std::uint64_t poll_count() const noexcept {
    return my_polls_.load(std::memory_order_relaxed);
  }

 private:
  friend class GovernorScope;
  friend class GovernorBind;
  friend class GovernorUnbind;

  static Governor*& slot() noexcept;
  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancel_{false};
  std::atomic<std::int64_t> timeout_ns_{0};   // config; <= 0 none
  std::atomic<std::int64_t> deadline_ns_{0};  // armed absolute; 0 none
  std::atomic<std::size_t> budget_{0};        // config delta; 0 unlimited
  std::atomic<std::size_t> limit_bytes_{0};   // armed absolute; 0 none
  std::atomic<int> arm_depth_{0};
  std::atomic<std::uint64_t> my_polls_{0};    // per-instance liveness signal
  std::atomic<int> threads_{0};               // thread allotment; 0 none

  static std::atomic<int> trip_mode_;
  static std::atomic<std::int64_t> trip_remaining_;
  static std::atomic<std::uint64_t> polls_;
};

/// Installs `g` on this thread and arms it (outermost arm fixes deadline and
/// byte limit). A null governor is a no-op, so call sites can pass through
/// an optional context unconditionally.
class GovernorScope {
 public:
  explicit GovernorScope(Governor* g) noexcept : g_(g), prev_(Governor::slot()) {
    if (g_) {
      g_->arm();
      Governor::slot() = g_;
    }
  }
  ~GovernorScope() {
    if (g_) {
      Governor::slot() = prev_;
      g_->disarm();
    }
  }
  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  Governor* g_;
  Governor* prev_;
};

/// Re-binds an already-armed governor on a worker thread for the duration of
/// an OpenMP chunk. Does not touch the arm state: the master armed before
/// the parallel region and disarms after the join.
class GovernorBind {
 public:
  explicit GovernorBind(Governor* g) noexcept : prev_(Governor::slot()) {
    Governor::slot() = g ? g : prev_;
  }
  ~GovernorBind() { Governor::slot() = prev_; }
  GovernorBind(const GovernorBind&) = delete;
  GovernorBind& operator=(const GovernorBind&) = delete;

 private:
  Governor* prev_;
};

/// Runs a scope on the calling thread with no governor: polls pass and
/// allocations are not charged. For the bookkeeping a driver does once its
/// run has stopped or finished (packing the resume capsule, assembling the
/// result from state it already holds), which must not trip again on the
/// cancel or deadline that stopped it.
class GovernorUnbind {
 public:
  GovernorUnbind() noexcept : prev_(Governor::slot()) {
    Governor::slot() = nullptr;
  }
  ~GovernorUnbind() { Governor::slot() = prev_; }
  GovernorUnbind(const GovernorUnbind&) = delete;
  GovernorUnbind& operator=(const GovernorUnbind&) = delete;

 private:
  Governor* prev_;
};

/// The kernel-side poll point. One thread-local load when ungoverned.
inline void governor_poll() {
  if (Governor* g = Governor::current()) g->poll();
}

/// Degradation hint: when set on a thread, kernels with a method choice
/// prefer their lowest-footprint variant (mxm auto-select picks the heap
/// method over Gustavson's dense accumulator) regardless of cost estimates.
/// Installed by retry ladders (lagraph::Runner) after a budget trip; method
/// selection happens on the calling thread before any parallel region, so a
/// thread-local flag is sufficient.
inline bool& low_memory_hint() noexcept {
  static thread_local bool hint = false;
  return hint;
}

/// RAII installer for low_memory_hint, exception-safe across a slice.
class LowMemoryScope {
 public:
  explicit LowMemoryScope(bool on) noexcept
      : prev_(low_memory_hint()) {
    low_memory_hint() = prev_ || on;
  }
  ~LowMemoryScope() { low_memory_hint() = prev_; }
  LowMemoryScope(const LowMemoryScope&) = delete;
  LowMemoryScope& operator=(const LowMemoryScope&) = delete;

 private:
  bool prev_;
};

/// RAII guard for trip_poll_after, keeping soak loops exception-safe.
class ScopedTripAfter {
 public:
  ScopedTripAfter(std::uint64_t n, Governor::Trip kind) noexcept {
    Governor::trip_poll_after(n, kind);
  }
  ~ScopedTripAfter() { Governor::disarm_trips(); }
  ScopedTripAfter(const ScopedTripAfter&) = delete;
  ScopedTripAfter& operator=(const ScopedTripAfter&) = delete;
};

}  // namespace gb::platform
