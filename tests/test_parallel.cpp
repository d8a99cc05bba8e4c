// The OpenMP parallel kernel paths (§II-A: "an OpenMP implementation is in
// progress" for SuiteSparse; here it exists). Determinism contract: the
// chunked parallel kernels must produce BIT-IDENTICAL results to the serial
// pass — per-chunk buffers concatenated in order, no shared accumulators.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "test_common.hpp"

using gb::Index;
using testutil::ThreadGuard;

TEST(Parallel, PullMxvBitIdenticalAcrossThreadCounts) {
  // Large enough to clear the parallel kernel's row threshold.
  auto a = lagraph::rmat(12, 8, 3);
  auto u = gb::Vector<double>::full(a.nrows(), 1.25);
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::pull;

  gb::Vector<double> serial(a.nrows());
  {
    ThreadGuard guard(1);
    gb::mxv(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, u,
            d);
  }
  for (int threads : {2, 4, 7}) {
    ThreadGuard guard(threads);
    gb::Vector<double> par(a.nrows());
    gb::mxv(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, u, d);
    EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
  }
}

TEST(Parallel, GustavsonMxmBitIdenticalAcrossThreadCounts) {
  auto a = lagraph::rmat(9, 8, 5);
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;

  gb::Matrix<double> serial(a.nrows(), a.ncols());
  {
    ThreadGuard guard(1);
    gb::mxm(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a,
            d);
  }
  for (int threads : {2, 4, 7}) {
    ThreadGuard guard(threads);
    gb::Matrix<double> par(a.nrows(), a.ncols());
    gb::mxm(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
    EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
  }
}

TEST(Parallel, MaskedGustavsonParallelIsCorrect) {
  auto a = lagraph::rmat(9, 8, 6);
  gb::Matrix<bool> mask(a.nrows(), a.ncols());
  gb::apply(mask, gb::no_mask, gb::no_accum, [](double) { return true; },
            lagraph::rmat(9, 2, 7));
  gb::Descriptor d = gb::desc_s;
  d.mxm = gb::MxmMethod::gustavson;

  gb::Matrix<std::int64_t> serial(a.nrows(), a.ncols());
  {
    ThreadGuard guard(1);
    gb::mxm(serial, mask, gb::no_accum, gb::plus_pair<std::int64_t>(), a, a,
            d);
  }
  ThreadGuard guard(4);
  gb::Matrix<std::int64_t> par(a.nrows(), a.ncols());
  gb::mxm(par, mask, gb::no_accum, gb::plus_pair<std::int64_t>(), a, a, d);
  EXPECT_TRUE(lagraph::isequal(serial, par));
}

TEST(Parallel, AlgorithmsUnchangedUnderParallelKernels) {
  auto adj = lagraph::rmat(10, 8, 8);
  lagraph::Graph g(adj.dup(), lagraph::Kind::undirected);
  lagraph::Graph g2(adj.dup(), lagraph::Kind::undirected);

  std::uint64_t tri_serial, tri_par;
  gb::Vector<std::uint64_t> cc_serial, cc_par;
  {
    ThreadGuard guard(1);
    tri_serial = lagraph::triangle_count(g);
    cc_serial = lagraph::connected_components(g);
  }
  {
    ThreadGuard guard(4);
    tri_par = lagraph::triangle_count(g2);
    cc_par = lagraph::connected_components(g2);
  }
  EXPECT_EQ(tri_serial, tri_par);
  EXPECT_TRUE(lagraph::isequal(cc_serial, cc_par));
}

TEST(Parallel, ChunkHelperCoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  gb::platform::parallel_for_chunks(
      1000, 7, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  for (int h : hits) EXPECT_EQ(h, 1);

  // Degenerate shapes.
  gb::platform::parallel_for_chunks(0, 4, [&](std::size_t, std::size_t,
                                              std::size_t) { FAIL(); });
  // Chunks run concurrently, so the tally must be atomic.
  std::atomic<int> calls{0};
  gb::platform::parallel_for_chunks(
      3, 10, [&](std::size_t, std::size_t lo, std::size_t hi) {
        calls += static_cast<int>(hi - lo);
      });
  EXPECT_EQ(calls.load(), 3);
}

TEST(Parallel, ExclusiveScanComputesPointerArray) {
  std::vector<std::int64_t> v{3, 0, 5, 2};
  EXPECT_EQ(gb::platform::exclusive_scan(v), 10);
  EXPECT_EQ(v, (std::vector<std::int64_t>{0, 3, 3, 8}));

  std::vector<std::uint32_t> empty;
  EXPECT_EQ(gb::platform::exclusive_scan(empty), 0u);
}

// --- cost-balanced partitioner ------------------------------------------

TEST(Partitioner, BalancedCutCoversRangeMonotonically) {
  // Prefix of costs {5, 1, 1, 1, 20, 1, 1, 1} (total 31).
  std::vector<std::uint64_t> prefix{0, 5, 6, 7, 8, 28, 29, 30, 31};
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  for (std::size_t nchunks : {1u, 2u, 3u, 5u, 8u}) {
    std::size_t prev = gb::platform::balanced_cut(p, nchunks, 0);
    EXPECT_EQ(prev, 0u);
    for (std::size_t c = 1; c <= nchunks; ++c) {
      std::size_t cut = gb::platform::balanced_cut(p, nchunks, c);
      EXPECT_LE(prev, cut) << "nchunks=" << nchunks << " c=" << c;
      prev = cut;
    }
    EXPECT_EQ(prev, prefix.size() - 1) << "nchunks=" << nchunks;
  }
}

TEST(Partitioner, DominantItemIsIsolated) {
  // One item carries ~all the cost; with 4 chunks it must sit alone in its
  // chunk rather than dragging neighbours along (the equal-row failure).
  std::vector<std::uint64_t> costs{1, 1, 1, 1000, 1, 1, 1, 1};
  std::vector<std::uint64_t> prefix(costs.size() + 1, 0);
  for (std::size_t k = 0; k < costs.size(); ++k) prefix[k + 1] = prefix[k] + costs[k];
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  // The chunk containing item 3 must contain only item 3.
  std::size_t lo = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    std::size_t hi = gb::platform::balanced_cut(p, 4, c + 1);
    if (lo <= 3 && 3 < hi) {
      EXPECT_EQ(hi - lo, 1u) << "dominant item shares a chunk [" << lo << ","
                             << hi << ")";
    }
    lo = hi;
  }
}

TEST(Partitioner, AllZeroCostsFallBackToEqualSplit) {
  std::vector<std::uint64_t> prefix(101, 0);  // 100 items, all cost 0
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  std::size_t prev = 0;
  for (std::size_t c = 1; c <= 4; ++c) {
    std::size_t cut = gb::platform::balanced_cut(p, 4, c);
    EXPECT_EQ(cut, 100 * c / 4);
    EXPECT_LT(prev, cut);
    prev = cut;
  }
}

TEST(Partitioner, FewerItemsThanChunksStillCoversAll) {
  std::vector<std::uint64_t> prefix{0, 7, 9, 10};  // 3 items
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  std::vector<int> hits(3, 0);
  gb::platform::parallel_balanced_chunks_n(
      p, std::size_t{8}, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) ++hits[k];
      });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Partitioner, ChunkCountRespectsForcedOverrideAndClamps) {
  using gb::platform::chunk_count;
  EXPECT_EQ(chunk_count(0, 1000000), 0u);
  EXPECT_EQ(chunk_count(100, 0), 1u);  // below cost grain
  {
    gb::platform::ForcedChunks guard(5);
    EXPECT_EQ(chunk_count(100, 0), 5u);
    EXPECT_EQ(chunk_count(3, 1000000), 3u);  // clamped to item count
  }
  EXPECT_EQ(chunk_count(100, 0), 1u);  // guard restored
}

TEST(Partitioner, BalancedChunksPropagateExceptions) {
  std::vector<std::uint64_t> prefix{0, 1, 2, 3, 4};
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  EXPECT_THROW(gb::platform::parallel_balanced_chunks_n(
                   p, std::size_t{4},
                   [&](std::size_t c, std::size_t, std::size_t) {
                     if (c == 2) throw std::runtime_error("chunk 2");
                   }),
               std::runtime_error);
}

// --- determinism suite: every parallel kernel, 1 / 2 / max threads -------

namespace {

/// Run `body` serially for the reference, then at several thread counts
/// with a forced multi-chunk split (so the chunked code path runs even on
/// a single-core machine), asserting `check` each time.
template <class Body, class Check>
void determinism_sweep(Body&& body, Check&& check) {
  {
    ThreadGuard guard(1);
    body();  // reference fill
  }
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    gb::platform::ForcedChunks force(3);
    check(threads);
  }
}

}  // namespace

TEST(Determinism, DotMxmMaskedAndComplemented) {
  auto a = lagraph::rmat(8, 8, 11);
  gb::Matrix<bool> mask(a.nrows(), a.ncols());
  gb::apply(mask, gb::no_mask, gb::no_accum, [](double) { return true; },
            lagraph::rmat(8, 2, 12));
  for (bool complement : {false, true}) {
    gb::Descriptor d = gb::desc_s;
    d.mxm = gb::MxmMethod::dot;
    d.mask_complement = complement;
    gb::Matrix<double> serial(a.nrows(), a.ncols());
    determinism_sweep(
        [&] {
          gb::mxm(serial, mask, gb::no_accum, gb::plus_times<double>(), a, a,
                  d);
        },
        [&](int threads) {
          gb::Matrix<double> par(a.nrows(), a.ncols());
          gb::mxm(par, mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
          EXPECT_TRUE(lagraph::isequal(serial, par))
              << threads << " threads, complement=" << complement;
        });
  }
}

TEST(Determinism, HeapMxm) {
  auto a = lagraph::rmat(8, 8, 13);
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::heap;
  gb::Matrix<double> serial(a.nrows(), a.ncols());
  determinism_sweep(
      [&] {
        gb::mxm(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a,
                a, d);
      },
      [&](int threads) {
        gb::Matrix<double> par(a.nrows(), a.ncols());
        gb::mxm(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a,
                d);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

TEST(Determinism, MxmMethodsAgreeBitwise) {
  // The three families must agree bitwise on floats — the heap's ord
  // tie-break and the dot's walk reproduce Gustavson's k-ascending
  // combination order.
  auto a = lagraph::rmat(8, 8, 14);
  gb::Matrix<double> ref(a.nrows(), a.ncols());
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  gb::mxm(ref, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
  gb::platform::ForcedChunks force(3);
  for (auto m : {gb::MxmMethod::dot, gb::MxmMethod::heap}) {
    d.mxm = m;
    gb::Matrix<double> c(a.nrows(), a.ncols());
    gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
    EXPECT_TRUE(lagraph::isequal(ref, c));
  }
}

TEST(Determinism, EwiseAddAndMult) {
  auto a = lagraph::rmat(8, 6, 15);
  auto b = lagraph::rmat(8, 6, 16);
  gb::Matrix<double> sum_serial(a.nrows(), a.ncols());
  gb::Matrix<double> prod_serial(a.nrows(), a.ncols());
  determinism_sweep(
      [&] {
        gb::ewise_add(sum_serial, gb::no_mask, gb::no_accum, gb::Plus{}, a, b);
        gb::ewise_mult(prod_serial, gb::no_mask, gb::no_accum, gb::Times{}, a,
                       b);
      },
      [&](int threads) {
        gb::Matrix<double> sum(a.nrows(), a.ncols());
        gb::Matrix<double> prod(a.nrows(), a.ncols());
        gb::ewise_add(sum, gb::no_mask, gb::no_accum, gb::Plus{}, a, b);
        gb::ewise_mult(prod, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
        EXPECT_TRUE(lagraph::isequal(sum_serial, sum)) << threads;
        EXPECT_TRUE(lagraph::isequal(prod_serial, prod)) << threads;
      });
}

TEST(Determinism, ApplyAndSelectAndReduceVector) {
  auto a = lagraph::rmat(8, 8, 17);
  gb::Matrix<double> ap_serial(a.nrows(), a.ncols());
  gb::Matrix<double> idx_serial(a.nrows(), a.ncols());
  gb::Matrix<double> sel_serial(a.nrows(), a.ncols());
  gb::Vector<double> red_serial(a.nrows());
  auto idxop = [](double v, Index i, Index j, std::int64_t t) {
    return v + static_cast<double>(i * 3 + j + static_cast<Index>(t));
  };
  determinism_sweep(
      [&] {
        gb::apply(ap_serial, gb::no_mask, gb::no_accum,
                  [](double v) { return v * 2.5; }, a);
        gb::apply_indexop(idx_serial, gb::no_mask, gb::no_accum, idxop, a,
                          std::int64_t{1});
        gb::select(sel_serial, gb::no_mask, gb::no_accum, gb::SelTril{}, a,
                   std::int64_t{-1});
        gb::reduce(red_serial, gb::no_mask, gb::no_accum,
                   gb::plus_monoid<double>(), a);
      },
      [&](int threads) {
        gb::Matrix<double> ap(a.nrows(), a.ncols());
        gb::Matrix<double> idx(a.nrows(), a.ncols());
        gb::Matrix<double> sel(a.nrows(), a.ncols());
        gb::Vector<double> red(a.nrows());
        gb::apply(ap, gb::no_mask, gb::no_accum,
                  [](double v) { return v * 2.5; }, a);
        gb::apply_indexop(idx, gb::no_mask, gb::no_accum, idxop, a,
                          std::int64_t{1});
        gb::select(sel, gb::no_mask, gb::no_accum, gb::SelTril{}, a,
                   std::int64_t{-1});
        gb::reduce(red, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
                   a);
        EXPECT_TRUE(lagraph::isequal(ap_serial, ap)) << threads;
        EXPECT_TRUE(lagraph::isequal(idx_serial, idx)) << threads;
        EXPECT_TRUE(lagraph::isequal(sel_serial, sel)) << threads;
        EXPECT_TRUE(lagraph::isequal(red_serial, red)) << threads;
      });
}

TEST(Determinism, ReduceScalarFixedTreeAcrossThreadCounts) {
  // nnz >> 8192 so the fixed-width chunking actually splits; the combining
  // tree depends only on nnz, so the double result is EXACTLY equal at any
  // thread count.
  auto a = lagraph::rmat(11, 8, 18);
  double serial;
  {
    ThreadGuard guard(1);
    serial = gb::reduce_scalar(gb::plus_monoid<double>(), a);
  }
  for (int threads : {2, 4}) {
    ThreadGuard guard(threads);
    double par = gb::reduce_scalar(gb::plus_monoid<double>(), a);
    EXPECT_EQ(serial, par) << threads << " threads";
  }
}

TEST(Determinism, TransposeBucketParallel) {
  auto a = lagraph::rmat(9, 8, 19);
  gb::Matrix<double> serial(a.ncols(), a.nrows());
  determinism_sweep(
      [&] {
        auto fresh = a.dup();  // fresh dual-orientation cache each run
        gb::transpose(serial, gb::no_mask, gb::no_accum, fresh);
      },
      [&](int threads) {
        auto fresh = a.dup();
        gb::Matrix<double> par(a.ncols(), a.nrows());
        gb::transpose(par, gb::no_mask, gb::no_accum, fresh);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

TEST(Determinism, KroneckerParallel) {
  auto a = lagraph::rmat(5, 4, 20);
  auto b = lagraph::rmat(4, 4, 21);
  const Index m = a.nrows() * b.nrows();
  const Index n = a.ncols() * b.ncols();
  gb::Matrix<double> serial(m, n);
  determinism_sweep(
      [&] { gb::kronecker(serial, gb::no_mask, gb::no_accum, gb::Times{}, a, b); },
      [&](int threads) {
        gb::Matrix<double> par(m, n);
        gb::kronecker(par, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

// --- auto-select heuristics ----------------------------------------------

TEST(MxmAutoSelect, MaskedDensityCompareDoesNotOverflow) {
  // m * n == 2^64 wraps Index to exactly 0, flipping the density verdict:
  // the buggy compare saw `nvals*4 < 0` and never chose the masked-dot
  // method on huge hypersparse operands. All stores are empty, so only the
  // decision is observable — and it must be `dot`.
  const Index huge = Index{1} << 32;
  gb::Matrix<double> a(huge, huge), b(huge, huge), c(huge, huge);
  gb::Matrix<bool> mask(huge, huge);
  auto method = gb::mxm(c, mask, gb::no_accum, gb::plus_times<double>(), a, b,
                        gb::desc_s);
  EXPECT_EQ(method, gb::MxmMethod::dot);
}

TEST(MxmAutoSelect, VerySparseRowsPickHeap) {
  // A diagonal A (1 entry/row) against a sparse B: flops per row ~ B's row
  // length, far under the dense-accumulator threshold — heap must win.
  const Index n = 128;
  auto a = gb::Matrix<double>::identity(n);
  auto b = gb::Matrix<double>::identity(n);
  gb::Matrix<double> c(n, n);
  auto method = gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(),
                        a, b);
  EXPECT_EQ(method, gb::MxmMethod::heap);

  // A denser operand must keep Gustavson.
  auto dense_a = lagraph::rmat(7, 8, 22);
  gb::Matrix<double> c2(dense_a.nrows(), dense_a.ncols());
  auto method2 = gb::mxm(c2, gb::no_mask, gb::no_accum,
                         gb::plus_times<double>(), dense_a, dense_a);
  EXPECT_EQ(method2, gb::MxmMethod::gustavson);
}

// --- kronecker dimension overflow ---------------------------------------

TEST(Kronecker, OutputDimensionOverflowThrows) {
  const Index big = Index{1} << 40;
  gb::Matrix<double> a(big, 2), b(big, 2), c(4, 4);
  try {
    gb::kronecker(c, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
    FAIL() << "expected gb::Error";
  } catch (const gb::Error& e) {
    EXPECT_EQ(e.info(), gb::Info::index_out_of_bounds);
  }
}

TEST(Parallel, ExclusiveScanDetectsOverflow) {
  // Synthetic near-limit case: a 32-bit pointer array whose total nnz would
  // wrap. Without the check this silently corrupts every row offset; the
  // checked path throws, and the C API maps it to GrB_INDEX_OUT_OF_BOUNDS.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> wraps{kMax - 1, 1, 1};
  EXPECT_THROW(gb::platform::exclusive_scan(wraps), std::overflow_error);

  // Exactly at the limit is representable and must pass.
  std::vector<std::int32_t> fits{kMax - 1, 1};
  EXPECT_EQ(gb::platform::exclusive_scan(fits), kMax);
  EXPECT_EQ(fits, (std::vector<std::int32_t>{0, kMax - 1}));

  // Unsigned index type near 2^32.
  constexpr std::uint32_t kUMax = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> uwraps{kUMax, 1};
  EXPECT_THROW(gb::platform::exclusive_scan(uwraps), std::overflow_error);

  // Negative counts are malformed input, not a wrapped sum in disguise.
  std::vector<std::int32_t> negative{4, -1};
  EXPECT_THROW(gb::platform::exclusive_scan(negative), std::overflow_error);
}
