// Cost-aware parallel execution layer. Kernels describe their work as a
// per-item cost prefix (flops for mxm, nnz for element-wise ops) and the
// scheduler partitions it into chunks of ~equal *cost* — merge-path style
// load balancing (GraphBLAST; Yang, Buluç, Owens) instead of the equal-row
// chunking that collapses on power-law degree distributions.
//
// All loops here are safe to run with any thread count, including one; the
// kernels that use them never rely on iteration order within a chunk, and
// every kernel stays bit-identical across thread counts (each row lands in
// a precomputed offset, or per-chunk outputs are concatenated in order).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "platform/governor.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

// ThreadSanitizer cannot see libgomp's fork/join barriers (the runtime is
// not instrumented), so without help it reports the workers' writes and the
// master's post-region reads as racing even though the implicit barrier
// orders them. Annotate the fork and join edges explicitly: master releases
// a token before the region, workers acquire it on entry and release it
// after their chunks, master acquires after the region. Races *inside* a
// region (two workers touching the same data) are still detected.
#if defined(__SANITIZE_THREAD__)
#define GB_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GB_TSAN_ENABLED 1
#endif
#endif

#ifdef GB_TSAN_ENABLED
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#define GB_TSAN_ACQUIRE(addr) __tsan_acquire(addr)
#define GB_TSAN_RELEASE(addr) __tsan_release(addr)
#else
#define GB_TSAN_ACQUIRE(addr) ((void)(addr))
#define GB_TSAN_RELEASE(addr) ((void)(addr))
#endif

namespace gb::platform {

/// Every thread OpenMP would fork for an ungoverned caller.
inline int max_threads() noexcept {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Number of threads the parallel helpers will use: max_threads(), capped
/// by the current governor's thread allotment when it carries one (a
/// Service job's share of the cores). Re-read at every op, so a long
/// served run widens and narrows with the service's load.
inline int num_threads() noexcept {
  int t = max_threads();
  if (const Governor* g = Governor::current()) {
    if (const int a = g->thread_allotment(); a > 0 && a < t) t = a;
  }
  return t;
}

/// Below this trip count a parallel loop costs more than it saves.
inline constexpr std::size_t kParallelGrain = 4096;

/// Below this total *cost* (flops / entry count) a chunked kernel runs as a
/// single chunk: forking threads would cost more than the work itself.
inline constexpr std::uint64_t kParallelCostGrain = 16384;

/// Test hook: when > 0, chunked kernels split into this many cost-balanced
/// chunks regardless of thread count or problem size, so tiny fixtures can
/// drive every per-chunk workspace checkout (and its failure path) even on
/// a single-threaded build. Thread-local; not for production use — forcing
/// chunks changes the combining order of chunked scalar reductions.
inline int& forced_chunks() noexcept {
  static thread_local int v = 0;
  return v;
}

/// RAII guard for forced_chunks().
class ForcedChunks {
 public:
  explicit ForcedChunks(int n) noexcept : before_(forced_chunks()) {
    forced_chunks() = n;
  }
  ~ForcedChunks() { forced_chunks() = before_; }
  ForcedChunks(const ForcedChunks&) = delete;
  ForcedChunks& operator=(const ForcedChunks&) = delete;

 private:
  int before_;
};

/// How many chunks a kernel with `nitems` work items of `total_cost` should
/// split into. 0 for empty work, 1 when chunking would not pay off.
inline std::size_t chunk_count(std::size_t nitems,
                               std::uint64_t total_cost) noexcept {
  if (nitems == 0) return 0;
  if (int f = forced_chunks(); f > 0) {
    return std::min(nitems, static_cast<std::size_t>(f));
  }
  const int t = num_threads();
  if (t <= 1 || total_cost < kParallelCostGrain) return 1;
  return std::min(nitems, static_cast<std::size_t>(t));
}

/// First item of chunk `c` when [0, n) is split into `nchunks` chunks of
/// ~equal cost. `prefix` is the exclusive scan of per-item costs with the
/// total appended (size n+1, prefix[0] == 0, prefix[n] == total); the cut
/// is found by binary search, so a chunk boundary never splits an item and
/// every chunk carries at most ~total/nchunks + one item's cost. A zero
/// total degrades to an equal item-count split.
template <class CostT>
[[nodiscard]] std::size_t balanced_cut(std::span<const CostT> prefix,
                                       std::size_t nchunks, std::size_t c) {
  const std::size_t n = prefix.size() - 1;
  if (c == 0) return 0;
  if (c >= nchunks) return n;
  const CostT total = prefix[n];
  if (total == CostT{}) return n * c / nchunks;
  // target = floor(total * c / nchunks) without overflowing CostT.
  const CostT q = total / static_cast<CostT>(nchunks);
  const CostT r = total % static_cast<CostT>(nchunks);
  const CostT target = q * static_cast<CostT>(c) +
                       r * static_cast<CostT>(c) / static_cast<CostT>(nchunks);
  // The item whose cost range contains `target`: prefix[cut] <= target <
  // prefix[cut+1] (skipping zero-cost runs). Snap to the NEAREST boundary
  // (ties advance): when the target lands inside a dominant item's span,
  // cutting past the item once its far edge is closer leaves the dominant
  // item alone in its chunk instead of letting it absorb every following
  // item until some later target clears its span. Nearest-boundary of an
  // increasing target is still monotone, so chunks stay well-nested.
  auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
  std::size_t cut = static_cast<std::size_t>(it - prefix.begin()) - 1;
  if (cut < n && prefix[cut + 1] - target <= target - prefix[cut]) ++cut;
  return cut;
}

namespace par_detail {

/// First-exception capture for OpenMP regions: exceptions must not unwind
/// through a parallel region (that is std::terminate), so workers stash the
/// first one here and the master rethrows after the join barrier. The
/// fork/join TSan tokens double as the happens-before edge for eptr.
class ExceptionTrap {
 public:
  template <class F>
  void run(F&& f) noexcept {
    try {
      f();
    } catch (...) {
      if (!claimed_.test_and_set()) eptr_ = std::current_exception();
    }
  }

  void rethrow() {
    if (eptr_) std::rethrow_exception(eptr_);
  }

 private:
  std::atomic_flag claimed_ = ATOMIC_FLAG_INIT;
  std::exception_ptr eptr_ = nullptr;
};

/// Run chunk(c) for every c in [0, nchunks), on a team of num_threads()
/// threads. Each worker re-binds the caller's governor and polls it before
/// its chunk; an exception from a chunk is captured and rethrown on the
/// calling thread after the join. schedule(static, 1) keeps the
/// chunk->thread mapping deterministic for a fixed team size, so per-thread
/// workspace pools warm up the same way on every run. With one thread (or
/// one chunk) the chunks run in order on the caller, no fork. The team is
/// not trimmed to the chunk count: libgomp ends the pool threads a smaller
/// team leaves out, and the next full team would have to start them again.
template <class Chunk>
void run_chunks(std::size_t nchunks, Chunk&& chunk) {
  [[maybe_unused]] const int t = nchunks > 1 ? num_threads() : 1;
#ifdef _OPENMP
  if (t > 1) {
    Governor* gov = Governor::current();  // propagate to the OMP workers
    ExceptionTrap trap;
    char fork_token = 0;  // TSan happens-before anchor for fork/join edges
    GB_TSAN_RELEASE(&fork_token);
#pragma omp parallel for schedule(static, 1) num_threads(t)
    for (std::int64_t c = 0; c < static_cast<std::int64_t>(nchunks); ++c) {
      GB_TSAN_ACQUIRE(&fork_token);
      trap.run([&] {
        GovernorBind bind(gov);
        governor_poll();
        chunk(static_cast<std::size_t>(c));
      });
      GB_TSAN_RELEASE(&fork_token);
    }
    GB_TSAN_ACQUIRE(&fork_token);
    trap.rethrow();
    return;
  }
#endif
  for (std::size_t c = 0; c < nchunks; ++c) {
    governor_poll();
    chunk(c);
  }
}

}  // namespace par_detail

/// parallel_for(n, body) — body(i) for i in [0, n), dynamically scheduled
/// on a team of num_threads() threads. An exception from body (e.g. an
/// injected bad_alloc in a user operator) is captured and rethrown on the
/// calling thread after the join.
template <class Body>
void parallel_for(std::size_t n, Body&& body) {
  [[maybe_unused]] const int t = n < kParallelGrain ? 1 : num_threads();
#ifdef _OPENMP
  if (t > 1) {
    Governor* gov = Governor::current();  // propagate to the OMP workers
    par_detail::ExceptionTrap trap;
    char fork_token = 0;  // TSan happens-before anchor for fork/join edges
    GB_TSAN_RELEASE(&fork_token);
#pragma omp parallel for schedule(dynamic, 256) num_threads(t)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      GB_TSAN_ACQUIRE(&fork_token);
      trap.run([&] {
        GovernorBind bind(gov);
        if ((i & 255) == 0) governor_poll();
        body(static_cast<std::size_t>(i));
      });
      GB_TSAN_RELEASE(&fork_token);
    }
    GB_TSAN_ACQUIRE(&fork_token);
    trap.rethrow();
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & 255) == 0) governor_poll();
    body(i);
  }
}

/// parallel_for_chunks(n, nchunks, body) — partition [0, n) into nchunks
/// contiguous EQUAL-ITEM ranges and run body(chunk, lo, hi) for each, in
/// parallel. Kept for uniform-cost work; skewed kernels use
/// parallel_balanced_chunks.
template <class Body>
void parallel_for_chunks(std::size_t n, std::size_t nchunks, Body&& body) {
  if (nchunks == 0) return;
  const std::size_t per = (n + nchunks - 1) / nchunks;
  par_detail::run_chunks(nchunks, [&](std::size_t c) {
    std::size_t lo = c * per;
    std::size_t hi = lo + per < n ? lo + per : n;
    if (lo < hi) body(c, lo, hi);
  });
}

/// Run body(chunk, lo, hi) over `nchunks` cost-balanced chunks of
/// [0, prefix.size()-1). Chunk boundaries come from balanced_cut over the
/// cost prefix, so a dominant row is isolated rather than dragging its
/// whole equal-size chunk with it.
template <class CostT, class Body>
void parallel_balanced_chunks_n(std::span<const CostT> prefix,
                                std::size_t nchunks, Body&& body) {
  const std::size_t n = prefix.size() - 1;
  if (nchunks == 0 || n == 0) return;
  par_detail::run_chunks(nchunks, [&](std::size_t c) {
    std::size_t lo = balanced_cut(prefix, nchunks, c);
    std::size_t hi = balanced_cut(prefix, nchunks, c + 1);
    if (lo < hi) body(c, lo, hi);
  });
}

/// Convenience: pick the chunk count from the cost total, then run.
template <class CostT, class Body>
void parallel_balanced_chunks(std::span<const CostT> prefix, Body&& body) {
  const std::size_t n = prefix.size() - 1;
  parallel_balanced_chunks_n(
      prefix, chunk_count(n, static_cast<std::uint64_t>(prefix[n])),
      std::forward<Body>(body));
}

/// Exclusive prefix sum in place: v[i] becomes sum of the original
/// v[0..i). Returns the total. This is the classic CSR pointer-array
/// construction step.
///
/// Counts must be non-negative and their sum must be representable in the
/// element type: with a 32-bit index type a pointer array wraps silently
/// near 2^31 entries otherwise, corrupting every downstream row offset.
/// Overflow throws std::overflow_error, which the C API boundary maps to
/// GrB_INDEX_OUT_OF_BOUNDS (this header sits below the GraphBLAS error
/// types, so it cannot throw gb::Error itself).
template <class Vec>
typename Vec::value_type exclusive_scan(Vec& v) {
  using T = typename Vec::value_type;
  T running{};
  for (auto& e : v) {
    if constexpr (std::is_signed_v<T>) {
      if (e < T{}) throw std::overflow_error("exclusive_scan: negative count");
    }
    if (e > std::numeric_limits<T>::max() - running) {
      throw std::overflow_error(
          "exclusive_scan: prefix sum overflows index type");
    }
    T next = static_cast<T>(running + e);
    e = running;
    running = next;
  }
  return running;
}

}  // namespace gb::platform
