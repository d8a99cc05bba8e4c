#pragma once

// Thread-local, metered kernel workspace.
//
// Kernels need short-lived scratch (dense accumulators, merge buffers, sort
// staging) on every call. Allocating it fresh each time is a malloc tax on
// the hottest paths, and plain std::vector scratch is invisible to both the
// memory meter and the allocation fault injector. The Workspace fixes both:
// buffers are checked out of a per-thread, per-call-site LIFO freelist of
// Buf<T> (hence every byte flows through platform::Alloc), and checked back
// in on scope exit with their capacity retained for the next call. Each
// site keeps up to four buffers warm, so nested re-entry of the same site
// (the resumable drivers' retry wrappers do this) still reuses.
//
// Contracts:
//  * Isolation  — pools are thread_local; no cross-thread sharing, no locks.
//                 A handle must be destroyed on the thread that created it.
//  * Determinism — pools are keyed by (element type, call-site tag), so the
//                 retained capacity of each site depends only on the call
//                 history of that site on that thread. After a warm-up call,
//                 repeating an operation performs no workspace growth, which
//                 is what lets the fault-injection soak assert that the
//                 memory meter returns exactly to its per-call baseline.
//  * Exception safety — checkin is noexcept; if a kernel throws (e.g. an
//                 injected bad_alloc), in-flight handles return their
//                 buffers to the pool during unwinding and nothing leaks.
//  * Metering   — retained bytes stay visible in MemoryMeter and are
//                 reported per thread via Workspace::thread_stats();
//                 Workspace::clear_thread() releases them.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "platform/alloc.hpp"

namespace gb::platform {

/// Per-thread arena counters, exposed for tests and diagnostics.
struct WorkspaceStats {
  std::size_t cached_bytes = 0;    ///< bytes held by checked-in buffers
  std::size_t cached_buffers = 0;  ///< number of checked-in buffers
  std::uint64_t checkouts = 0;     ///< total checkouts on this thread
  std::uint64_t reuses = 0;        ///< checkouts served by a warm buffer
};

namespace ws_detail {

struct ThreadArena {
  WorkspaceStats stats{};
  // One entry per pool that has ever been used on this thread; lets
  // clear_thread() drop every retained buffer without knowing the types.
  std::vector<void (*)() noexcept> clearers;
};

inline ThreadArena& arena() noexcept {
  static thread_local ThreadArena a;
  return a;
}

/// Fixed-depth LIFO freelist for one (element type, call-site tag) pair.
/// Most kernel sites do not nest with themselves, so the top slot captures
/// all the reuse; the resumable drivers, however, re-enter kernels from
/// retry/degradation wrappers up to a few frames deep, and a depth of four
/// keeps every level of that nesting warm. Checkout pops the most recently
/// returned buffer (LIFO — the one most likely still in cache); checkin
/// pushes, and when the list is full the incoming buffer replaces the
/// smallest cached one if it is strictly larger (otherwise it is freed), so
/// the retained capacities stay a deterministic function of the site's call
/// history.
template <class T, class Site>
class Pool {
 public:
  static constexpr std::size_t kDepth = 4;

  static Pool& local() noexcept {
    static thread_local Pool pool;
    return pool;
  }

  Buf<T> take() noexcept {
    register_once();
    auto& st = arena().stats;
    ++st.checkouts;
    if (count_ == 0) return Buf<T>{};
    --count_;
    Buf<T> b = std::move(slots_[count_]);
    st.cached_bytes -= b.capacity() * sizeof(T);
    --st.cached_buffers;
    if (b.capacity() > 0) ++st.reuses;
    return b;
  }

  void give_back(Buf<T>&& b, bool keep_contents = false) noexcept {
    if (!keep_contents) b.clear();  // destroy elements, keep capacity
    auto& st = arena().stats;
    if (count_ < kDepth) {
      st.cached_bytes += b.capacity() * sizeof(T);
      ++st.cached_buffers;
      slots_[count_++] = std::move(b);
      return;
    }
    // Full: deterministic retention — keep the kDepth largest capacities.
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < kDepth; ++i) {
      if (slots_[i].capacity() < slots_[smallest].capacity()) smallest = i;
    }
    if (b.capacity() <= slots_[smallest].capacity()) return;  // free b
    st.cached_bytes -= slots_[smallest].capacity() * sizeof(T);
    st.cached_bytes += b.capacity() * sizeof(T);
    slots_[smallest] = std::move(b);
  }

 private:
  Pool() = default;

  static void drop() noexcept {
    Pool& p = local();
    auto& st = arena().stats;
    for (std::size_t i = 0; i < p.count_; ++i) {
      st.cached_bytes -= p.slots_[i].capacity() * sizeof(T);
      --st.cached_buffers;
      Buf<T>{}.swap(p.slots_[i]);  // release through Alloc
    }
    p.count_ = 0;
  }

  void register_once() noexcept {
    if (registered_) return;
    try {
      arena().clearers.push_back(&Pool::drop);
      registered_ = true;
    } catch (...) {
      // Registry growth failed: the pool still works, it just can't be
      // emptied by clear_thread() until a later registration succeeds.
    }
  }

  Buf<T> slots_[kDepth]{};
  std::size_t count_ = 0;
  bool registered_ = false;
};

}  // namespace ws_detail

/// RAII checkout handle. Dereferences to the underlying Buf<T>; returns the
/// buffer (capacity retained, contents cleared) to its pool on destruction,
/// including during exception unwinding.
template <class T, class Site>
class [[nodiscard]] WsBuf {
 public:
  WsBuf() : buf_(ws_detail::Pool<T, Site>::local().take()) {}

  /// Checkout sized to n elements: value-initialized, except for those a
  /// keep_contents() check-in left at this site. May throw bad_alloc
  /// (the growth goes through Alloc, so it is a fault-injection point); the
  /// already-checked-out buffer is returned to the pool on that path.
  explicit WsBuf(std::size_t n) : WsBuf() { buf_.resize(n); }

  WsBuf(WsBuf&& other) noexcept
      : buf_(std::move(other.buf_)),
        owns_(std::exchange(other.owns_, false)),
        keep_(other.keep_) {}
  WsBuf& operator=(WsBuf&&) = delete;
  WsBuf(const WsBuf&) = delete;
  WsBuf& operator=(const WsBuf&) = delete;

  ~WsBuf() {
    if (owns_)
      ws_detail::Pool<T, Site>::local().give_back(std::move(buf_), keep_);
  }

  /// Check the buffer back in with its elements rather than cleared, so the
  /// next sized checkout at this site starts from them and skips the
  /// n-element fill. A sparse accumulator calls it once it has reset the
  /// slots it dirtied; a handle destroyed without it (an exception
  /// unwinding the kernel) checks in cleared as usual.
  void keep_contents() noexcept { keep_ = true; }

  Buf<T>& operator*() noexcept { return buf_; }
  const Buf<T>& operator*() const noexcept { return buf_; }
  Buf<T>* operator->() noexcept { return &buf_; }
  const Buf<T>* operator->() const noexcept { return &buf_; }

 private:
  Buf<T> buf_;
  bool owns_ = true;
  bool keep_ = false;
};

/// Facade over the thread-local pools.
///
/// Usage (Site is an incomplete tag struct naming the call site):
///   struct mxm_acc;  // at namespace scope, once per site
///   auto acc_h = platform::Workspace::checkout<mxm_acc, double>(n);
///   auto& acc = *acc_h;   // Buf<double>, n value-initialized elements
class Workspace {
 public:
  template <class Site, class T>
  [[nodiscard]] static WsBuf<T, Site> checkout() {
    return WsBuf<T, Site>{};
  }

  template <class Site, class T>
  [[nodiscard]] static WsBuf<T, Site> checkout(std::size_t n) {
    return WsBuf<T, Site>(n);
  }

  /// Counters for the calling thread's arena.
  static WorkspaceStats thread_stats() noexcept {
    return ws_detail::arena().stats;
  }

  /// Release every buffer retained by the calling thread's pools. Safe at
  /// any quiescent point (no live handles on this thread).
  static void clear_thread() noexcept {
    for (auto* f : ws_detail::arena().clearers) f();
  }
};

}  // namespace gb::platform
