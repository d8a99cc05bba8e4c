// Contract tests for gb::platform::Workspace: checkout/checkin reuse,
// metering, fault-injected checkout, cross-thread isolation, and the
// clear_thread release path.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <numeric>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graphblas/graphblas.hpp"
#include "platform/alloc.hpp"
#include "platform/workspace.hpp"

namespace {

using gb::platform::Alloc;
using gb::platform::MemoryMeter;
using gb::platform::ScopedFailAfter;
using gb::platform::Workspace;
using gb::platform::WorkspaceStats;

// Distinct tag types so these tests get pools nobody else touches.
struct tag_a;
struct tag_b;
struct tag_iso;
struct tag_fault;
struct tag_clear;
struct tag_exhaust;
struct tag_lifo;
struct tag_depth;
struct tag_evict;
struct tag_keep;

TEST(Workspace, CheckinRetainsCapacityAndCheckoutReuses) {
  Workspace::clear_thread();
  const auto before = Workspace::thread_stats();
  {
    auto h = Workspace::checkout<tag_a, double>(1000);
    EXPECT_EQ(h->size(), 1000u);
  }
  auto mid = Workspace::thread_stats();
  EXPECT_GE(mid.cached_bytes, before.cached_bytes + 1000 * sizeof(double));
  EXPECT_EQ(mid.cached_buffers, before.cached_buffers + 1);

  {
    auto h = Workspace::checkout<tag_a, double>(500);
    // Warm buffer: capacity from the first checkout survives.
    EXPECT_GE(h->capacity(), 1000u);
    EXPECT_EQ(h->size(), 500u);
  }
  auto after = Workspace::thread_stats();
  EXPECT_EQ(after.reuses, mid.reuses + 1);
  Workspace::clear_thread();
}

TEST(Workspace, CheckinResetsContents) {
  Workspace::clear_thread();
  {
    auto h = Workspace::checkout<tag_b, int>(8);
    for (auto& e : *h) e = 42;
  }
  {
    // resize() after the pool's clear() value-initializes: stale contents
    // from the previous call must not leak through.
    auto h = Workspace::checkout<tag_b, int>(8);
    for (int e : *h) EXPECT_EQ(e, 0);
  }
  Workspace::clear_thread();
}

TEST(Workspace, KeepContentsChecksInAtSize) {
  // A site that resets what it dirtied keeps its buffer at size: the next
  // checkout sees the elements instead of a fresh fill. Without
  // keep_contents() (an exception unwinding the kernel) the check-in clears.
  Workspace::clear_thread();
  {
    auto h = Workspace::checkout<tag_keep, int>(8);
    (*h)[3] = 7;
    h.keep_contents();
  }
  {
    auto h = Workspace::checkout<tag_keep, int>(8);
    EXPECT_EQ((*h)[3], 7);
    auto g = Workspace::checkout<tag_keep, int>(12);  // nested: fresh
    EXPECT_EQ(g->size(), 12u);
    for (int e : *g) EXPECT_EQ(e, 0);
  }
  {
    auto h = Workspace::checkout<tag_keep, int>(8);
    for (int e : *h) EXPECT_EQ(e, 0);
  }
  Workspace::clear_thread();
}

TEST(Workspace, NestedCheckoutSameSiteGetsFreshBuffer) {
  Workspace::clear_thread();
  {
    auto h1 = Workspace::checkout<tag_a, double>(64);
    auto h2 = Workspace::checkout<tag_a, double>(64);  // same site, nested
    EXPECT_NE(h1->data(), h2->data());
    h1->at(0) = 1.0;
    h2->at(0) = 2.0;
    EXPECT_EQ(h1->at(0), 1.0);
  }
  Workspace::clear_thread();
}

TEST(Workspace, FreelistServesLifoOrder) {
  // The per-site freelist is a LIFO: the most recently checked-in buffer
  // (the one most likely still cache-hot) is handed out first.
  Workspace::clear_thread();
  const void* p1 = nullptr;
  const void* p2 = nullptr;
  {
    auto h1 = Workspace::checkout<tag_lifo, double>(64);
    auto h2 = Workspace::checkout<tag_lifo, double>(64);
    p1 = h1->data();
    p2 = h2->data();
    ASSERT_NE(p1, p2);
    // h2 destructs first, then h1 => freelist top is h1's buffer.
  }
  {
    auto h = Workspace::checkout<tag_lifo, double>(64);
    EXPECT_EQ(h->data(), p1);  // last checked in, first out
    auto h2 = Workspace::checkout<tag_lifo, double>(64);
    EXPECT_EQ(h2->data(), p2);
  }
  Workspace::clear_thread();
}

TEST(Workspace, FreelistRetainsUpToFourBuffers) {
  // Depth cap: five simultaneous checkouts of one site check four buffers
  // back into the freelist; the fifth is freed (its capacity is not larger
  // than any cached one, so retention drops it) and the meter shows exactly
  // the four retained allocations.
  Workspace::clear_thread();
  const auto before = Workspace::thread_stats();
  {
    auto h1 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h2 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h3 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h4 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h5 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    (void)h5;
  }
  const auto after = Workspace::thread_stats();
  EXPECT_EQ(after.cached_buffers, before.cached_buffers + 4);
  EXPECT_EQ(after.checkouts, before.checkouts + 5);
  // Four more checkouts are all served warm.
  {
    auto h1 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h2 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h3 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    auto h4 = Workspace::checkout<tag_depth, std::uint64_t>(100);
    EXPECT_GE(h1->capacity(), 100u);
    EXPECT_GE(h4->capacity(), 100u);
  }
  EXPECT_EQ(Workspace::thread_stats().reuses, after.reuses + 4);
  Workspace::clear_thread();
}

TEST(Workspace, FullFreelistKeepsLargestCapacities) {
  // When the freelist is full, a larger incoming buffer evicts the smallest
  // cached one, so the warm set converges on the biggest capacities the
  // site has seen — deterministically, whatever the interleaving.
  Workspace::clear_thread();
  {
    // Five live checkouts: four small and one big. Destruction runs in
    // reverse order, so big/s4/s3/s2 fill the freelist and s1 (small, not
    // larger than any cached buffer) is freed — the big capacity survives.
    auto s1 = Workspace::checkout<tag_evict, double>(10);
    auto s2 = Workspace::checkout<tag_evict, double>(10);
    auto s3 = Workspace::checkout<tag_evict, double>(10);
    auto s4 = Workspace::checkout<tag_evict, double>(10);
    auto big = Workspace::checkout<tag_evict, double>(5000);
    (void)s1;
  }
  std::size_t best = 0;
  {
    // One of the four cached buffers now has the big capacity.
    auto h1 = Workspace::checkout<tag_evict, double>(1);
    auto h2 = Workspace::checkout<tag_evict, double>(1);
    auto h3 = Workspace::checkout<tag_evict, double>(1);
    auto h4 = Workspace::checkout<tag_evict, double>(1);
    best = std::max({h1->capacity(), h2->capacity(), h3->capacity(),
                     h4->capacity()});
  }
  EXPECT_GE(best, 5000u);
  Workspace::clear_thread();
}

TEST(Workspace, MeteredAndClearThreadReleases) {
  Workspace::clear_thread();
  const std::size_t meter0 = MemoryMeter::current_bytes();
  { auto h = Workspace::checkout<tag_clear, std::uint64_t>(4096); }
  // Retained by the pool: still visible in the meter.
  EXPECT_GE(MemoryMeter::current_bytes(), meter0 + 4096 * sizeof(std::uint64_t));
  EXPECT_GT(Workspace::thread_stats().cached_bytes, 0u);
  Workspace::clear_thread();
  EXPECT_EQ(MemoryMeter::current_bytes(), meter0);
  EXPECT_EQ(Workspace::thread_stats().cached_bytes, 0u);
  EXPECT_EQ(Workspace::thread_stats().cached_buffers, 0u);
}

TEST(Workspace, FaultInjectedCheckoutUnwindsCleanly) {
  Workspace::clear_thread();
  const std::size_t meter0 = MemoryMeter::current_bytes();
  bool threw = false;
  {
    ScopedFailAfter guard(0);
    try {
      auto h = Workspace::checkout<tag_fault, double>(1 << 16);
      (void)h;
    } catch (const std::bad_alloc&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  // The failed growth must not leak, and the (empty) buffer returned to the
  // pool must hold no storage.
  EXPECT_EQ(MemoryMeter::current_bytes(), meter0);
  // The pool still works afterwards.
  {
    auto h = Workspace::checkout<tag_fault, double>(128);
    EXPECT_EQ(h->size(), 128u);
  }
  Workspace::clear_thread();
  EXPECT_EQ(MemoryMeter::current_bytes(), meter0);
}

TEST(Workspace, ExhaustionGrowsToRequestEachTime) {
  Workspace::clear_thread();
  // Repeated checkouts with growing demand: capacity ratchets up, stats
  // count every checkout, and nothing is lost along the way.
  std::size_t last_cap = 0;
  for (int round = 1; round <= 6; ++round) {
    auto h = Workspace::checkout<tag_exhaust, int>(
        static_cast<std::size_t>(round) * 1000);
    EXPECT_EQ(h->size(), static_cast<std::size_t>(round) * 1000);
    EXPECT_GE(h->capacity(), last_cap);  // monotone warm capacity
    last_cap = h->capacity();
  }
  auto st = Workspace::thread_stats();
  EXPECT_GE(st.checkouts, 6u);
  EXPECT_GE(st.reuses, 5u);
  Workspace::clear_thread();
}

#ifdef _OPENMP
TEST(Workspace, CrossThreadIsolation) {
  // Each OpenMP thread gets its own arena: concurrent checkouts of the SAME
  // site never alias, and per-thread stats see only their own traffic.
  const int nthreads = omp_get_max_threads() >= 2 ? omp_get_max_threads() : 2;
  std::vector<const void*> ptrs(static_cast<std::size_t>(nthreads), nullptr);
  std::vector<std::uint64_t> checkouts(static_cast<std::size_t>(nthreads), 0);
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    Workspace::clear_thread();
    const auto base = Workspace::thread_stats();
    {
      auto h = Workspace::checkout<tag_iso, double>(256);
      (*h)[0] = static_cast<double>(tid);
      ptrs[static_cast<std::size_t>(tid)] = h->data();
#pragma omp barrier
      // All threads hold their buffer at this point; check the value wasn't
      // clobbered by a neighbour.
      EXPECT_EQ((*h)[0], static_cast<double>(tid));
    }
    checkouts[static_cast<std::size_t>(tid)] =
        Workspace::thread_stats().checkouts - base.checkouts;
    Workspace::clear_thread();
  }
  for (int i = 0; i < nthreads; ++i) {
    EXPECT_EQ(checkouts[static_cast<std::size_t>(i)], 1u) << "thread " << i;
    for (int j = i + 1; j < nthreads; ++j) {
      if (ptrs[static_cast<std::size_t>(i)] != nullptr) {
        EXPECT_NE(ptrs[static_cast<std::size_t>(i)],
                  ptrs[static_cast<std::size_t>(j)])
            << "threads " << i << " and " << j << " shared a buffer";
      }
    }
  }
}
#endif  // _OPENMP

TEST(Workspace, KernelCallsReuseScratchAcrossCalls) {
  // End-to-end: after a warm-up mxm, repeating the identical call is served
  // from the pools (reuses grow) and the meter returns to the same level.
  Workspace::clear_thread();
  gb::Matrix<double> a(8, 8), b(8, 8), c(8, 8);
  for (gb::Index i = 0; i < 8; ++i) {
    a.set_element(i, (i + 1) % 8, 1.0);
    b.set_element(i, (i + 3) % 8, 2.0);
  }
  a.wait();
  b.wait();

  gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, b);  // warm
  const auto warm = Workspace::thread_stats();
  const std::size_t meter_warm = gb::platform::MemoryMeter::current_bytes();

  gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, b);
  const auto again = Workspace::thread_stats();
  EXPECT_GT(again.reuses, warm.reuses);
  EXPECT_EQ(gb::platform::MemoryMeter::current_bytes(), meter_warm);
  Workspace::clear_thread();
}

}  // namespace
