#include "platform/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "platform/env.hpp"
#include "platform/memory.hpp"
#include "platform/parallel.hpp"

namespace gb::platform {

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Non-negative double, or -1 for unset/unparsable — the batching knobs
/// distinguish "not overridden" from an explicit 0.
double env_parse_opt(const char* s) {
  if (!*s) return -1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == s || v < 0.0) ? -1.0 : v;
}

EnvOnce<double> g_env_batch_max{"LAGRAPH_BATCH_MAX", env_parse_opt};
EnvOnce<double> g_env_batch_window{"LAGRAPH_BATCH_WINDOW_US", env_parse_opt};

}  // namespace

/// The shared per-request record. State transitions are guarded by the
/// record's own mutex (terminal notification) while the queue membership is
/// guarded by the service mutex; the request governor is the cross-thread
/// control surface.
struct Service::Ticket::Request {
  std::function<void(Governor&)> job;
  bool self_governed = false;
  Governor gov;

  mutable std::mutex m;
  mutable std::condition_variable cv;
  State state = State::queued;
  std::exception_ptr error;

  // Watchdog bookkeeping (service mutex, while listed in running_).
  std::uint64_t last_polls = 0;
  std::int64_t last_progress_ns = 0;

  // Coalescing roles. A *member* never enters queue_/running_ itself — its
  // batch's carrier does — so its cancel is a flag the batch job observes,
  // not a governor cancel (which would kill every sibling). A *carrier* is
  // a plain Request with `batch` set; its job field is unused.
  bool is_member = false;
  std::atomic<bool> member_cancelled{false};
  std::uint64_t arg = 0;
  std::shared_ptr<void> payload;
  std::shared_ptr<Batch> batch;

  [[nodiscard]] State current() const noexcept {
    std::lock_guard<std::mutex> lk(m);
    return state;
  }
};

/// One coalesced batch: the members (in join order), the job that runs them
/// all, and the open/sealed lifecycle. Guarded by the service mutex until
/// sealed; immutable afterwards (the worker reads it without the lock).
struct Service::Batch {
  std::vector<std::shared_ptr<Ticket::Request>> members;
  BatchJob job;
  bool self_governed = false;
  bool sealed = false;
  std::int64_t mature_ns = 0;  ///< batch_window_us deadline for joining
  std::string key;             ///< open_ map key (erased at seal)
};

bool Service::BatchView::cancelled(std::size_t i) const noexcept {
  const std::atomic<bool>* c = entries_[i].cancelled;
  return c != nullptr && c->load(std::memory_order_relaxed);
}

Service::State Service::Ticket::state() const noexcept {
  return req_ ? req_->current() : State::cancelled;
}

Service::State Service::Ticket::wait() const {
  if (!req_) return State::cancelled;
  std::unique_lock<std::mutex> lk(req_->m);
  req_->cv.wait(lk, [&] {
    return req_->state == State::done || req_->state == State::failed ||
           req_->state == State::cancelled;
  });
  return req_->state;
}

void Service::Ticket::cancel() const noexcept {
  if (!req_) return;
  if (req_->is_member) {
    // Mask this member out of its batch; siblings (and the batch's single
    // governor) are untouched.
    req_->member_cancelled.store(true, std::memory_order_relaxed);
  } else {
    req_->gov.cancel();
  }
}

void Service::Ticket::rethrow() const {
  if (!req_) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(req_->m);
    if (req_->state == State::failed) err = req_->error;
  }
  if (err) std::rethrow_exception(err);
}

Governor* Service::Ticket::governor() const noexcept {
  return req_ ? &req_->gov : nullptr;
}

Service::Service(ServicePolicy policy)
    : policy_(policy), cores_(max_threads()) {
  if (const double v = g_env_batch_max.get(); v >= 0.0)
    policy_.batch_max = v < 1.0 ? 1 : static_cast<std::size_t>(v);
  if (const double v = g_env_batch_window.get(); v >= 0.0)
    policy_.batch_window_us = v;
  const int n = std::max(1, policy_.workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k)
    workers_.emplace_back([this] { worker_loop(); });
  if (policy_.watchdog_stall_ms > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

Service::~Service() { stop(); }

Service::Ticket Service::submit(std::function<void(Governor&)> job,
                                bool self_governed) {
  // Build the full record before touching any shared state, so a shed or an
  // allocation failure leaves the service untouched (strong guarantee —
  // exercised by the fault-injection soak).
  auto r = std::make_shared<Ticket::Request>();
  r->job = std::move(job);
  r->self_governed = self_governed;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_) {
      ++stats_.shed;
      throw OverloadedError{};
    }
    if (policy_.queue_limit != 0 && queue_.size() >= policy_.queue_limit) {
      ++stats_.shed;
      throw OverloadedError{};
    }
    if (policy_.shed_bytes != 0 &&
        MemoryMeter::current_bytes() > policy_.shed_bytes) {
      ++stats_.shed;
      throw OverloadedError{};
    }
    queue_.push_back(r);  // may throw bad_alloc: nothing was enqueued
    ++stats_.submitted;
    ++stats_.queue_depth;
  }
  work_cv_.notify_one();
  return Ticket(r);
}

Service::Ticket Service::submit_coalesced(const std::string& key,
                                          std::uint64_t arg,
                                          std::shared_ptr<void> payload,
                                          BatchJob job, bool self_governed) {
  if (policy_.batch_max <= 1) {
    // Stage off: degrade to a plain submit of a one-member view. The member
    // flag stays false so Ticket::cancel() routes through the governor and
    // the whole (single-row) job cancels, exactly as an unbatched request.
    struct Single {
      std::uint64_t arg;
      std::shared_ptr<void> payload;
      BatchJob job;
    };
    auto s = std::make_shared<Single>(
        Single{arg, std::move(payload), std::move(job)});
    return submit(
        [s](Governor& gov) {
          BatchView view({BatchView::Entry{s->arg, s->payload.get(), nullptr}});
          s->job(gov, view);
        },
        self_governed);
  }

  // Preallocate everything a new batch would need before taking the lock,
  // so the locked section only links pointers (same strong guarantee as
  // submit(): a shed or OOM leaves the service untouched).
  auto member = std::make_shared<Ticket::Request>();
  member->is_member = true;
  member->arg = arg;
  member->payload = std::move(payload);
  auto nb = std::make_shared<Batch>();
  nb->job = std::move(job);
  nb->self_governed = self_governed;
  nb->key = key;
  nb->members.reserve(policy_.batch_max);
  auto carrier = std::make_shared<Ticket::Request>();
  carrier->batch = nb;

  bool sealed_full = false;
  bool opened = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_) {
      ++stats_.shed;
      throw OverloadedError{};
    }
    auto it = open_.find(key);
    if (it != open_.end() && !it->second->sealed &&
        it->second->members.size() < policy_.batch_max) {
      // Join the open batch: no new queue slot, no shed check — the batch
      // already holds one.
      it->second->members.push_back(member);
      ++stats_.submitted;
      if (it->second->members.size() >= policy_.batch_max) {
        it->second->sealed = true;
        open_.erase(it);
        sealed_full = true;
      }
    } else {
      if (policy_.queue_limit != 0 && queue_.size() >= policy_.queue_limit) {
        ++stats_.shed;
        throw OverloadedError{};
      }
      if (policy_.shed_bytes != 0 &&
          MemoryMeter::current_bytes() > policy_.shed_bytes) {
        ++stats_.shed;
        throw OverloadedError{};
      }
      nb->members.push_back(member);
      nb->mature_ns =
          now_ns() + static_cast<std::int64_t>(policy_.batch_window_us * 1e3);
      open_.emplace(key, nb);  // key absent: sealed batches leave the map
      try {
        queue_.push_back(carrier);
      } catch (...) {
        open_.erase(key);
        throw;
      }
      ++stats_.submitted;
      ++stats_.queue_depth;
      opened = true;
    }
  }
  // A full (sealed) batch must dispatch even if every worker is parked in a
  // wait_for on some other batch's maturity; a fresh open batch only needs
  // one worker to notice it.
  if (sealed_full)
    work_cv_.notify_all();
  else if (opened)
    work_cv_.notify_one();
  return Ticket(member);
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

void Service::quiesce() {
  std::unique_lock<std::mutex> lk(m_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_.empty(); });
}

void Service::stop() {
  std::deque<std::shared_ptr<Ticket::Request>> orphaned;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    orphaned.swap(queue_);
    open_.clear();  // no batch is joinable past this point
    stats_.queue_depth = 0;
    // In-flight jobs get a cooperative cancel so shutdown is bounded by
    // their poll cadence, not their total runtime.
    for (auto& r : running_) r->gov.cancel();
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  std::size_t dropped = 0;
  for (auto& r : orphaned) {
    if (r->batch) {
      // An orphaned carrier cancels every member it was carrying.
      finish_members(r->batch, State::cancelled, nullptr);
      dropped += r->batch->members.size();
    } else {
      finish(r, State::cancelled, nullptr);
      ++dropped;
    }
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    stats_.cancelled += dropped;
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  idle_cv_.notify_all();
}

void Service::finish(const std::shared_ptr<Ticket::Request>& r, State s,
                     std::exception_ptr err) noexcept {
  {
    std::lock_guard<std::mutex> lk(r->m);
    r->state = s;
    r->error = err;
  }
  r->cv.notify_all();
}

void Service::finish_members(const std::shared_ptr<Batch>& b, State s,
                             std::exception_ptr err) {
  for (auto& m : b->members) {
    const bool masked = m->member_cancelled.load(std::memory_order_relaxed);
    finish(m, masked ? State::cancelled : s, masked ? nullptr : err);
  }
}

void Service::split_threads() {
  if (running_.empty()) return;
  const int share =
      std::max(1, cores_ / static_cast<int>(running_.size()));
  for (auto& r : running_) r->gov.set_thread_allotment(share);
}

void Service::worker_loop() {
  for (;;) {
    std::shared_ptr<Ticket::Request> r;
    {
      std::unique_lock<std::mutex> lk(m_);
      for (;;) {
        if (stopping_ && queue_.empty()) return;
        // Pop-scan: take the first dispatchable entry — any plain request,
        // any sealed/full/mature batch. An immature open batch is skipped
        // even by an otherwise-idle worker: the window is the caller's
        // stated willingness to trade that much latency for coalescing, so
        // sealing early would make the knob meaningless exactly when
        // batching pays most (closed-loop clients resubmitting the instant
        // a batch completes). A zero window means every batch is mature the
        // moment it is opened, so the default config pays no added latency.
        std::int64_t nearest = std::numeric_limits<std::int64_t>::max();
        auto pick = queue_.end();
        const std::int64_t now = now_ns();
        for (auto q = queue_.begin(); q != queue_.end(); ++q) {
          const auto& b = (*q)->batch;
          if (!b || b->sealed || stopping_ || now >= b->mature_ns ||
              b->members.size() >= policy_.batch_max) {
            pick = q;
            break;
          }
          nearest = std::min(nearest, b->mature_ns);
        }
        if (pick != queue_.end()) {
          r = std::move(*pick);
          queue_.erase(pick);
          --stats_.queue_depth;
          break;
        }
        if (queue_.empty()) {
          work_cv_.wait(lk,
                        [&] { return stopping_ || !queue_.empty(); });
        } else {
          // Only immature batches queued while work is in flight: sleep to
          // the nearest maturity (or a submit/seal/stop notification).
          work_cv_.wait_for(lk, std::chrono::nanoseconds(nearest - now));
        }
      }
      if (r->batch) {
        if (!r->batch->sealed) {
          r->batch->sealed = true;
          open_.erase(r->batch->key);
        }
        bool all_masked = true;
        for (const auto& m : r->batch->members) {
          if (!m->member_cancelled.load(std::memory_order_relaxed)) {
            all_masked = false;
            break;
          }
        }
        if (all_masked) {
          // Every member cancelled while queued: the batch never runs.
          stats_.cancelled += r->batch->members.size();
          lk.unlock();
          finish_members(r->batch, State::cancelled, nullptr);
          idle_cv_.notify_all();
          continue;
        }
        ++stats_.batches;
        stats_.batched_requests += r->batch->members.size();
      } else if (r->gov.cancelled()) {
        // Cancelled while queued: never runs.
        ++stats_.cancelled;
        lk.unlock();
        finish(r, State::cancelled, nullptr);
        r->job = nullptr;
        idle_cv_.notify_all();
        continue;
      }
      r->last_polls = r->gov.poll_count();
      r->last_progress_ns = now_ns();
      running_.push_back(r);
      ++stats_.running;
      split_threads();
      stats_.threads_granted +=
          static_cast<std::uint64_t>(r->gov.thread_allotment());
      {
        std::lock_guard<std::mutex> rl(r->m);
        r->state = State::running;
      }
      if (r->batch) {
        for (const auto& m : r->batch->members) {
          std::lock_guard<std::mutex> ml(m->m);
          m->state = State::running;
        }
      }
    }

    State final = State::done;
    std::exception_ptr err;
    try {
      const bool self_gov = r->batch ? r->batch->self_governed
                                     : r->self_governed;
      if (!self_gov) {
        r->gov.set_timeout_ms(policy_.request_timeout_ms);
        r->gov.set_budget(policy_.request_budget);
      }
      if (r->batch) {
        std::vector<BatchView::Entry> entries;
        entries.reserve(r->batch->members.size());
        for (const auto& m : r->batch->members) {
          entries.push_back(
              BatchView::Entry{m->arg, m->payload.get(),
                               &m->member_cancelled});
        }
        BatchView view(std::move(entries));
        if (self_gov) {
          r->batch->job(r->gov, view);
        } else {
          GovernorScope scope(&r->gov);
          r->batch->job(r->gov, view);
        }
      } else if (self_gov) {
        r->job(r->gov);
      } else {
        GovernorScope scope(&r->gov);
        r->job(r->gov);
      }
    } catch (const CancelledError&) {
      final = State::cancelled;
    } catch (...) {
      final = State::failed;
      err = std::current_exception();
    }

    {
      std::lock_guard<std::mutex> lk(m_);
      running_.erase(std::remove(running_.begin(), running_.end(), r),
                     running_.end());
      --stats_.running;
      split_threads();
      if (r->batch) {
        for (const auto& m : r->batch->members) {
          const State s = m->member_cancelled.load(std::memory_order_relaxed)
                              ? State::cancelled
                              : final;
          switch (s) {
            case State::done: ++stats_.completed; break;
            case State::failed: ++stats_.failed; break;
            default: ++stats_.cancelled; break;
          }
        }
      } else {
        switch (final) {
          case State::done: ++stats_.completed; break;
          case State::failed: ++stats_.failed; break;
          default: ++stats_.cancelled; break;
        }
      }
    }
    // Drop the job once its clients are woken: its captures (a graph
    // snapshot, say) must not outlive the run until release, and freeing
    // them after finish keeps the free off the request's latency.
    if (r->batch) {
      finish_members(r->batch, final, err);
      r->batch->job = nullptr;
    } else {
      finish(r, final, err);
      r->job = nullptr;
    }
    idle_cv_.notify_all();
  }
}

void Service::watchdog_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      std::max(0.5, policy_.watchdog_period_ms));
  const double stall_ns = policy_.watchdog_stall_ms * 1e6;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      // Own condition variable: if the watchdog waited on work_cv_ it could
      // swallow a submit()'s notify_one meant for a worker, leaving a queued
      // job unserved. Spurious wakes just sample.
      watchdog_cv_.wait_for(lk, period);
      if (stopping_) return;
      const std::int64_t now = now_ns();
      for (auto& r : running_) {
        const std::uint64_t polls = r->gov.poll_count();
        if (polls != r->last_polls) {
          r->last_polls = polls;
          r->last_progress_ns = now;
        } else if (static_cast<double>(now - r->last_progress_ns) > stall_ns &&
                   !r->gov.cancelled()) {
          // No governor-poll progress past the threshold: cancel through
          // the ordinary cross-thread path. The job surfaces CancelledError
          // at its next poll (or wherever it checks cancelled()).
          r->gov.cancel();
          ++stats_.watchdog_cancels;
        }
      }
    }
  }
}

}  // namespace gb::platform
