// gb::platform::Service — the concurrent serving core: a worker pool behind
// a bounded admission queue, per-request Governors, explicit overload
// shedding, and a stall watchdog.
//
// The Service executes opaque jobs of shape void(Governor&). Each request
// owns one Governor for its whole life; that single object is what the
// submitting client cancels through, what the watchdog reads poll progress
// from, and what the kernels actually poll — so cross-thread cancellation
// and liveness detection need no extra plumbing.
//
// Admission control: submit() is the only entry point and it fails fast —
// when the queue already holds `queue_limit` requests, or the process
// metered footprint exceeds `shed_bytes`, the request is *shed* with
// OverloadedError instead of being allowed to degrade every request behind
// it. Shedding is deterministic: nothing is partially enqueued (the request
// record is fully constructed before the queue is touched, and a failed
// push leaves no trace), so an OOM or a shed during submit leaves the
// service exactly as serviceable as before the call.
//
// Two arming modes per job:
//   * policy-governed (default) — the worker configures the request's
//     governor from the ServicePolicy (deadline, byte budget) and installs
//     it with GovernorScope around the job;
//   * self-governed — the job arms the governor itself (lagraph::Runner
//     binds it as an external governor and arms per slice); the worker only
//     runs the job. Needed because nested arms do not recapture deadlines.
//
// Stall watchdog: a background thread samples every running request's
// governor poll count. A request whose count stops advancing for
// `watchdog_stall_ms` is cancelled through the ordinary cross-thread cancel
// path — the same CancelledError surface a client cancel uses — and counted
// in the stats. Cancellation stays cooperative: the watchdog can only
// reclaim workers from jobs that still reach a poll point or check
// Governor::cancelled().
//
// Batching admission stage (submit_coalesced): requests that share a caller-
// chosen key coalesce into one *batch* — a single queue entry, a single
// Governor, a single worker dispatch — whose job sees every member's
// (arg, payload) through a BatchView and writes each member's result into
// its payload. A batch stays open to new members until it holds `batch_max`
// requests or until `batch_window_us` has elapsed since it opened; the
// window is honoured even by an otherwise-idle worker (it is the caller's
// explicit latency budget for coalescing), and a zero window means a batch
// is mature the instant it opens, so the default config adds zero latency.
// The per-member submit/poll/wait/cancel contract is unchanged: each member
// keeps its own ticket; a member cancel only masks that member's row
// (BatchView::cancelled flips, the member finishes State::cancelled) and
// never cancels the batch. Admission control meters the batch as ONE unit:
// it occupies one queue_limit slot and the watchdog tracks its single
// governor. batch_max <= 1 turns the stage off: submit_coalesced degrades
// to a plain submit() wrapping the job in a one-member view.
//
// Thread budget: the Service owns the OpenMP cores its jobs share. At
// construction it records cores = max_threads(); whenever a job starts or
// finishes it gives every running job (a solo request or a batch carrier:
// one job each) the allotment max(1, cores / running) on its governor, and
// num_threads() honours the allotment of the governor current on the
// calling thread. A lone request keeps every core; under load the cores
// split instead of each worker forking a full team. Kernels re-read the
// allotment at every op, and every kernel is bit-identical at any thread
// count, so the split changes timing only, never results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "platform/governor.hpp"

namespace gb::platform {

/// The bounded admission queue (or the shed_bytes watermark) rejected a new
/// request. Maps to GxB_OVERLOADED at the C boundary.
class OverloadedError : public std::runtime_error {
 public:
  OverloadedError() : std::runtime_error("gb: service overloaded") {}
};

struct ServicePolicy {
  int workers = 2;                ///< worker threads executing requests
  std::size_t queue_limit = 16;   ///< max queued (not running); 0 = unbounded
  double request_timeout_ms = 0;  ///< per-request deadline (policy-governed)
  std::size_t request_budget = 0; ///< per-request byte budget (delta); 0 none
  std::size_t shed_bytes = 0;     ///< shed new work above this footprint; 0 off
  double watchdog_stall_ms = 0;   ///< cancel after this long with no polls; 0 off
  double watchdog_period_ms = 5;  ///< watchdog sampling period
  // Batching admission stage (submit_coalesced only; plain submit() never
  // batches). Overridable per process via LAGRAPH_BATCH_MAX /
  // LAGRAPH_BATCH_WINDOW_US (read once, like the other platform knobs).
  std::size_t batch_max = 1;    ///< max requests per coalesced batch; <=1 = off
  double batch_window_us = 0;   ///< how long an open batch may wait for members
};

/// Point-in-time counters; consistent snapshot under the service lock.
struct ServiceStats {
  std::uint64_t submitted = 0;   ///< accepted into the queue
  std::uint64_t shed = 0;        ///< rejected with OverloadedError
  std::uint64_t completed = 0;   ///< ran to normal return
  std::uint64_t failed = 0;      ///< ended with a non-cancel exception
  std::uint64_t cancelled = 0;   ///< ended via CancelledError (any source)
  std::uint64_t watchdog_cancels = 0;  ///< cancels issued by the watchdog
  std::uint64_t queue_depth = 0;       ///< currently queued (batch = 1 unit)
  std::uint64_t running = 0;           ///< currently executing (batch = 1 unit)
  std::uint64_t batches = 0;           ///< coalesced batches dispatched
  std::uint64_t batched_requests = 0;  ///< member requests inside those batches
  /// Sum over started jobs of the thread allotment each began with. Over
  /// unbatched traffic, threads_granted / (completed + failed + cancelled)
  /// is the mean team size.
  std::uint64_t threads_granted = 0;
};

class Service {
 public:
  enum class State : int { queued = 0, running, done, failed, cancelled };

  /// One request's shared record. Tickets are cheap handles to it.
  class Ticket {
   public:
    Ticket() = default;

    [[nodiscard]] bool valid() const noexcept { return req_ != nullptr; }
    [[nodiscard]] State state() const noexcept;

    /// Block until the request reaches a terminal state; returns it.
    State wait() const;

    /// Request cooperative cancellation (queued requests are dropped when a
    /// worker pops them; running requests observe it at their next poll).
    void cancel() const noexcept;

    /// The terminal error, rethrown (no-op unless state() == failed).
    void rethrow() const;

    /// The request's governor (for tests and advanced callers).
    [[nodiscard]] Governor* governor() const noexcept;

   private:
    friend class Service;
    struct Request;
    explicit Ticket(std::shared_ptr<Request> r) : req_(std::move(r)) {}
    std::shared_ptr<Request> req_;
  };

  /// Read-only view of one coalesced batch, handed to its BatchJob. Member
  /// order is submission order within the batch. cancelled(i) is live: a
  /// member cancelled after dispatch flips it, and the job should skip
  /// de-batching into that member's payload (the service finishes the member
  /// State::cancelled regardless).
  class BatchView {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] std::uint64_t arg(std::size_t i) const noexcept {
      return entries_[i].arg;
    }
    [[nodiscard]] void* payload(std::size_t i) const noexcept {
      return entries_[i].payload;
    }
    [[nodiscard]] bool cancelled(std::size_t i) const noexcept;

   private:
    friend class Service;
    struct Entry {
      std::uint64_t arg = 0;
      void* payload = nullptr;
      const std::atomic<bool>* cancelled = nullptr;  ///< null = never
    };
    explicit BatchView(std::vector<Entry> e) : entries_(std::move(e)) {}
    std::vector<Entry> entries_;
  };

  /// A batched job: runs once per batch, with the batch's single governor.
  using BatchJob = std::function<void(Governor&, const BatchView&)>;

  explicit Service(ServicePolicy policy = {});
  ~Service();  // stop() + join

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const ServicePolicy& policy() const noexcept { return policy_; }

  /// Admit a job, or shed it with OverloadedError. Strong guarantee: a
  /// throw (shed or OOM) leaves the service unchanged and serviceable.
  /// `self_governed` jobs arm the passed governor themselves (Runner path);
  /// policy-governed jobs run under a GovernorScope armed from the policy.
  Ticket submit(std::function<void(Governor&)> job, bool self_governed = false);

  /// Admit a request into the coalescing stage: joins the open batch for
  /// `key` if one exists (and is not yet full/sealed), otherwise opens a new
  /// one — whose `job` runs the whole batch when it dispatches. `payload`
  /// is where the job de-batches this member's result to; it stays alive at
  /// least until the member's ticket is terminal. Sheds exactly like
  /// submit() (a whole batch counts as one queue_limit unit), with the same
  /// strong guarantee. With batch_max <= 1 this is a plain submit() of a
  /// one-member batch.
  Ticket submit_coalesced(const std::string& key, std::uint64_t arg,
                          std::shared_ptr<void> payload, BatchJob job,
                          bool self_governed = false);

  [[nodiscard]] ServiceStats stats() const;

  /// Block until no request is queued or running (new submits may still
  /// arrive afterwards).
  void quiesce();

  /// Stop accepting work, cancel queued requests, join workers + watchdog.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  struct Batch;

  void worker_loop();
  void watchdog_loop();
  void finish(const std::shared_ptr<Ticket::Request>& r, State s,
              std::exception_ptr err) noexcept;
  void finish_members(const std::shared_ptr<Batch>& b, State s,
                      std::exception_ptr err);
  void split_threads();  // m_ held

  ServicePolicy policy_;
  const int cores_;  ///< the thread budget the running jobs share
  mutable std::mutex m_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   // quiesce(): queue empty and none running
  std::condition_variable watchdog_cv_;  // watchdog: period tick or stopping
  std::deque<std::shared_ptr<Ticket::Request>> queue_;
  std::vector<std::shared_ptr<Ticket::Request>> running_;
  /// Open (joinable) batches by key. Every value's carrier request is also
  /// in queue_; sealing removes the map entry, never the queue entry.
  std::unordered_map<std::string, std::shared_ptr<Batch>> open_;
  ServiceStats stats_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace gb::platform
