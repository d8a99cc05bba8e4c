// The operator-fusion layer (graphblas/fused.hpp). Contract under test:
// every fused entry point is BIT-IDENTICAL to its unfused blocking-mode
// composition — the one desc_nofuse selects — at 1/2/4 threads and across
// sparse/bitmap/full storage forms, polls the governor, and commits
// transactionally under injected allocation failures and governor trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/alloc.hpp"
#include "platform/governor.hpp"
#include "platform/memory.hpp"
#include "platform/parallel.hpp"
#include "test_common.hpp"

using gb::FormatMode;
using gb::Index;
using gb::platform::Governor;
using gb::platform::MemoryMeter;
using gb::platform::ScopedFailAfter;
using gb::platform::ScopedTripAfter;
using testutil::ThreadGuard;

namespace {

constexpr FormatMode kForms[] = {FormatMode::sparse, FormatMode::bitmap,
                                 FormatMode::full};

const char* form_name(FormatMode m) {
  switch (m) {
    case FormatMode::sparse: return "sparse";
    case FormatMode::bitmap: return "bitmap";
    case FormatMode::full: return "full";
    default: return "auto";
  }
}

/// Run `fused` and `unfused` under every thread count × input storage form
/// and assert the scalar results are exactly equal. `prep(form)` re-pins the
/// input forms before each run.
template <class Prep, class Fused, class Unfused>
void sweep_scalar(Prep prep, Fused fused, Unfused unfused) {
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    for (FormatMode form : kForms) {
      prep(form);
      const auto want = unfused();
      const auto got = fused();
      EXPECT_EQ(got, want) << threads << " threads, " << form_name(form);
    }
  }
}

}  // namespace

// --------------------------------------------------------------------------
// toggle plumbing
// --------------------------------------------------------------------------

TEST(FusedToggle, DescriptorVetoesFusion) {
  EXPECT_FALSE(gb::fusion_enabled(gb::desc_nofuse));
  gb::Descriptor d;
  d.no_fusion = true;
  EXPECT_FALSE(gb::fusion_enabled(d));
  // With the descriptor silent, the process-wide switch decides.
  EXPECT_EQ(gb::fusion_enabled(gb::desc_default), gb::fusion_env_enabled());
}

// --------------------------------------------------------------------------
// apply + reduce
// --------------------------------------------------------------------------

TEST(FusedApplyReduce, UnmaskedMatchesCompositionEverywhere) {
  auto u = testutil::random_vector(700, 0.4, 81);
  sweep_scalar(
      [&](FormatMode f) { u.set_format(f); },
      [&] {
        return gb::fused_apply_reduce(gb::plus_monoid<double>(), gb::Abs{}, u);
      },
      [&] {
        return gb::fused_apply_reduce(gb::plus_monoid<double>(), gb::Abs{}, u,
                                      gb::desc_nofuse);
      });
}

TEST(FusedApplyReduce, MaskedMatchesCompositionEverywhere) {
  auto u = testutil::random_vector(700, 0.5, 82);
  auto mask = testutil::random_vector(700, 0.3, 83);
  for (const auto& base : testutil::mask_descriptor_sweep()) {
    gb::Descriptor d = base;
    gb::Descriptor d_nofuse = base;
    d_nofuse.no_fusion = true;
    sweep_scalar(
        [&](FormatMode f) {
          u.set_format(f);
          mask.set_format(f);
        },
        [&] {
          return gb::fused_apply_reduce(gb::plus_monoid<double>(),
                                        gb::Identity{}, u, mask, d);
        },
        [&] {
          return gb::fused_apply_reduce(gb::plus_monoid<double>(),
                                        gb::Identity{}, u, mask, d_nofuse);
        });
  }
}

TEST(FusedApplyReduce, MinOverEmptySelectionIsIdentity) {
  // The delta-stepping convergence probe: min over an empty complement must
  // be +inf on both paths so !isfinite checks keep working.
  gb::Vector<double> u(64);
  gb::Vector<double> mask(64);
  for (Index i = 0; i < 64; ++i) {
    u.set_element(i, static_cast<double>(i));
    mask.set_element(i, 1.0);
  }
  const double fused = gb::fused_apply_reduce(
      gb::min_monoid<double>(), gb::Identity{}, u, mask, gb::desc_rsc);
  const double unfused = [&] {
    gb::Descriptor d = gb::desc_rsc;
    d.no_fusion = true;
    return gb::fused_apply_reduce(gb::min_monoid<double>(), gb::Identity{}, u,
                                  mask, d);
  }();
  EXPECT_EQ(fused, unfused);
  EXPECT_EQ(fused, std::numeric_limits<double>::infinity());
}

// --------------------------------------------------------------------------
// ewise + apply + reduce
// --------------------------------------------------------------------------

TEST(FusedEwiseReduce, VectorAddMatchesCompositionEverywhere) {
  auto u = testutil::random_vector(900, 0.45, 84);
  auto v = testutil::random_vector(900, 0.35, 85);
  sweep_scalar(
      [&](FormatMode f) {
        u.set_format(f);
        v.set_format(f);
      },
      [&] {
        return gb::fused_ewise_add_reduce(gb::plus_monoid<double>(), gb::Abs{},
                                          gb::Minus{}, u, v);
      },
      [&] {
        return gb::fused_ewise_add_reduce(gb::plus_monoid<double>(), gb::Abs{},
                                          gb::Minus{}, u, v, gb::desc_nofuse);
      });
}

TEST(FusedEwiseReduce, VectorMultMatchesCompositionEverywhere) {
  auto u = testutil::random_vector(900, 0.5, 86);
  auto v = testutil::random_vector(900, 0.4, 87);
  sweep_scalar(
      [&](FormatMode f) {
        u.set_format(f);
        v.set_format(f);
      },
      [&] {
        return gb::fused_ewise_mult_reduce(gb::plus_monoid<double>(),
                                           gb::Identity{}, gb::Times{}, u, v);
      },
      [&] {
        return gb::fused_ewise_mult_reduce(gb::plus_monoid<double>(),
                                           gb::Identity{}, gb::Times{}, u, v,
                                           gb::desc_nofuse);
      });
}

TEST(FusedEwiseReduce, AnyMismatchShortCircuits) {
  // The cc/peer-pressure flip detector: lor over Isne, full uint64 vectors.
  const Index n = 512;
  gb::Vector<std::uint64_t> x(n), y(n);
  for (Index i = 0; i < n; ++i) {
    x.set_element(i, i);
    y.set_element(i, i == 300 ? i + 1 : i);
  }
  EXPECT_TRUE(gb::fused_ewise_mult_reduce(gb::lor_monoid(), gb::Identity{},
                                          gb::Isne{}, x, y));
  EXPECT_FALSE(gb::fused_ewise_mult_reduce(gb::lor_monoid(), gb::Identity{},
                                           gb::Isne{}, x, x));
  // Flip count (plus over Isne) on both paths.
  const auto fused = gb::fused_ewise_mult_reduce(
      gb::plus_monoid<std::uint64_t>(), gb::Identity{}, gb::Isne{}, x, y);
  const auto unfused = gb::fused_ewise_mult_reduce(
      gb::plus_monoid<std::uint64_t>(), gb::Identity{}, gb::Isne{}, x, y,
      gb::desc_nofuse);
  EXPECT_EQ(fused, unfused);
  EXPECT_EQ(fused, 1u);
}

TEST(FusedEwiseReduce, MatrixAddMatchesCompositionEverywhere) {
  // MCL's L1 distance. nnz spans several fixed reduce chunks and the forced-
  // chunks hook exercises the combining tree at a different width too.
  auto a = testutil::random_matrix(140, 140, 0.55, 88);
  auto b = testutil::random_matrix(140, 140, 0.5, 89);
  sweep_scalar(
      [&](FormatMode f) {
        a.set_format(f);
        b.set_format(f);
      },
      [&] {
        return gb::fused_ewise_add_reduce(gb::plus_monoid<double>(), gb::Abs{},
                                          gb::Minus{}, a, b);
      },
      [&] {
        return gb::fused_ewise_add_reduce(gb::plus_monoid<double>(), gb::Abs{},
                                          gb::Minus{}, a, b, gb::desc_nofuse);
      });
  gb::platform::ForcedChunks force(3);
  const double fused = gb::fused_ewise_add_reduce(
      gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, a, b);
  const double unfused = gb::fused_ewise_add_reduce(
      gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, a, b,
      gb::desc_nofuse);
  EXPECT_EQ(fused, unfused);
}

// --------------------------------------------------------------------------
// ewise + apply
// --------------------------------------------------------------------------

TEST(FusedEwiseMultApply, MatchesCompositionEverywhere) {
  auto u = testutil::random_vector(800, 0.5, 90);
  auto v = testutil::random_vector(800, 0.45, 91);
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    for (FormatMode form : kForms) {
      u.set_format(form);
      v.set_format(form);
      gb::Vector<double> want(800), got(800);
      gb::fused_ewise_mult_apply(want, gb::Div{},
                                 gb::BindSecond<gb::Times, double>{{}, 0.85},
                                 u, v, gb::desc_nofuse);
      gb::fused_ewise_mult_apply(
          got, gb::Div{}, gb::BindSecond<gb::Times, double>{{}, 0.85}, u, v);
      EXPECT_TRUE(lagraph::isequal(want, got))
          << threads << " threads, " << form_name(form);
    }
  }
}

// --------------------------------------------------------------------------
// reduce + apply
// --------------------------------------------------------------------------

TEST(FusedReduceApply, MatchesCompositionEverywhere) {
  auto a = testutil::random_matrix(160, 160, 0.4, 92);
  for (const gb::Descriptor& base : {gb::desc_default, gb::desc_t0}) {
    for (int threads : {1, 2, 4}) {
      ThreadGuard guard(threads);
      for (FormatMode form : kForms) {
        a.set_format(form);
        gb::Descriptor d_nofuse = base;
        d_nofuse.no_fusion = true;
        gb::Vector<double> want(160), got(160);
        gb::fused_reduce_apply(want, gb::plus_monoid<double>(), gb::Minv{}, a,
                               d_nofuse);
        gb::fused_reduce_apply(got, gb::plus_monoid<double>(), gb::Minv{}, a,
                               base);
        EXPECT_TRUE(lagraph::isequal(want, got))
            << threads << " threads, " << form_name(form)
            << ", transpose=" << base.transpose_a;
      }
    }
  }
}

// --------------------------------------------------------------------------
// mxv / vxm epilogues
// --------------------------------------------------------------------------

TEST(FusedMxvEpilogue, FillAccumMatchesCompositionEverywhere) {
  auto a = lagraph::rmat(8, 8, 93);
  const Index n = a.nrows();
  auto u = testutil::random_vector(n, 0.6, 94);
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    for (FormatMode form : kForms) {
      a.set_format(form);
      u.set_format(form);
      for (auto method : {gb::MxvMethod::push, gb::MxvMethod::pull}) {
        gb::Descriptor d;
        d.mxv = method;
        gb::Descriptor d_nofuse = d;
        d_nofuse.no_fusion = true;
        gb::Vector<double> want(n), got(n);
        gb::mxv_fill_accum(want, gb::Plus{}, gb::plus_times<double>(), a, u,
                           0.25, d_nofuse);
        gb::mxv_fill_accum(got, gb::Plus{}, gb::plus_times<double>(), a, u,
                           0.25, d);
        EXPECT_TRUE(lagraph::isequal(want, got))
            << threads << " threads, " << form_name(form) << ", method "
            << static_cast<int>(method);
      }
    }
  }
}

TEST(FusedMxvEpilogue, FillAccumResidualMatchesCompositionEverywhere) {
  // The fused PageRank iteration tail: product, affine fill, and L1
  // residual against the previous iterate in one commit.
  auto a = lagraph::rmat(8, 8, 95);
  const Index n = a.nrows();
  auto u = testutil::random_vector(n, 0.7, 96);
  auto prev = gb::Vector<double>::full(n, 1.0 / static_cast<double>(n));
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    for (FormatMode form : kForms) {
      a.set_format(form);
      u.set_format(form);
      gb::Descriptor d_nofuse = gb::desc_nofuse;
      gb::Vector<double> want(n), got(n);
      const double res_want = gb::vxm_fill_accum_residual(
          want, gb::Plus{}, gb::plus_first<double>(), u, a, 0.15,
          gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, prev, d_nofuse);
      const double res_got = gb::vxm_fill_accum_residual(
          got, gb::Plus{}, gb::plus_first<double>(), u, a, 0.15,
          gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, prev);
      EXPECT_EQ(res_want, res_got)
          << threads << " threads, " << form_name(form);
      EXPECT_TRUE(lagraph::isequal(want, got))
          << threads << " threads, " << form_name(form);
    }
  }
}

TEST(FusedMxvEpilogue, AccumChangedMatchesCompositionEverywhere) {
  // Bellman-Ford's relaxation: min-accum vxm with fused change detection.
  auto a = lagraph::rmat(8, 8, 97);
  const Index n = a.nrows();
  auto dist = testutil::random_vector(n, 0.3, 98);
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    for (FormatMode form : kForms) {
      a.set_format(form);
      dist.set_format(form);
      gb::Vector<double> want = dist;
      gb::Vector<double> got = dist;
      const bool ch_want =
          gb::vxm_accum_changed(want, gb::Min{}, gb::min_plus<double>(), dist,
                                a, gb::desc_nofuse);
      const bool ch_got = gb::vxm_accum_changed(
          got, gb::Min{}, gb::min_plus<double>(), dist, a);
      EXPECT_EQ(ch_want, ch_got) << threads << " threads, " << form_name(form);
      EXPECT_TRUE(lagraph::isequal(want, got))
          << threads << " threads, " << form_name(form);
    }
  }
}

TEST(FusedMxvEpilogue, AccumChangedConvergesToFalse) {
  // At the Bellman-Ford fixpoint a further relaxation reports no change on
  // both paths.
  auto a = lagraph::rmat(7, 8, 99);  // unit weights: no negative cycles
  lagraph::Graph g(a.dup(), lagraph::Kind::directed);
  auto res = lagraph::sssp_bellman_ford(g, 0);
  gb::Vector<double> w1 = res.dist;
  gb::Vector<double> w2 = res.dist;
  EXPECT_FALSE(gb::vxm_accum_changed(w1, gb::Min{}, gb::min_plus<double>(),
                                     res.dist, a));
  EXPECT_FALSE(gb::vxm_accum_changed(w2, gb::Min{}, gb::min_plus<double>(),
                                     res.dist, a, gb::desc_nofuse));
  EXPECT_TRUE(lagraph::isequal(w1, w2));
}

// --------------------------------------------------------------------------
// algorithm-level spot checks (drivers call the fused entries)
// --------------------------------------------------------------------------

TEST(FusedAlgorithms, PagerankBitIdenticalAcrossThreadCounts) {
  auto adj = lagraph::rmat(9, 8, 100);
  lagraph::Graph g(adj.dup(), lagraph::Kind::directed);
  lagraph::PageRankResult serial;
  {
    ThreadGuard guard(1);
    serial = lagraph::pagerank(g);
  }
  for (int threads : {2, 4}) {
    ThreadGuard guard(threads);
    lagraph::Graph g2(adj.dup(), lagraph::Kind::directed);
    auto par = lagraph::pagerank(g2);
    EXPECT_EQ(serial.iterations, par.iterations) << threads << " threads";
    EXPECT_EQ(serial.residual, par.residual) << threads << " threads";
    EXPECT_TRUE(lagraph::isequal(serial.rank, par.rank))
        << threads << " threads";
  }
}

TEST(FusedAlgorithms, OutDegreeFp64IsCachedAndInvalidated) {
  auto adj = lagraph::rmat(6, 8, 101);
  lagraph::Graph g(adj.dup(), lagraph::Kind::directed);
  const auto* first = &g.out_degree_fp64();
  EXPECT_EQ(first, &g.out_degree_fp64());  // cached: same object back
  // Values match the int64 degrees exactly.
  const auto& d64 = g.out_degree();
  EXPECT_EQ(first->nvals(), d64.nvals());
  std::vector<Index> fi, ii;
  std::vector<double> fv;
  std::vector<std::int64_t> iv;
  first->extract_tuples(fi, fv);
  d64.extract_tuples(ii, iv);
  ASSERT_EQ(fv.size(), iv.size());
  for (std::size_t k = 0; k < fv.size(); ++k) {
    EXPECT_EQ(fi[k], ii[k]);
    EXPECT_EQ(fv[k], static_cast<double>(iv[k]));
  }
  g.invalidate_cache();
  EXPECT_TRUE(lagraph::isequal(*first, g.out_degree_fp64()));
}

// --------------------------------------------------------------------------
// governor coverage, fault injection, and trip soaks
// --------------------------------------------------------------------------

TEST(FusedGovernor, FusedKernelsPollTheGovernor) {
  auto a = lagraph::rmat(8, 8, 102);
  auto u = gb::Vector<double>::full(a.nrows(), 0.5);
  auto prev = gb::Vector<double>::full(a.nrows(), 0.25);
  Governor gov;
  gb::platform::GovernorScope scope(&gov);
  Governor::reset_poll_counter();
  gb::Vector<double> w(a.nrows());
  (void)gb::vxm_fill_accum_residual(w, gb::Plus{}, gb::plus_first<double>(),
                                    u, a, 0.1, gb::plus_monoid<double>(),
                                    gb::Abs{}, gb::Minus{}, prev);
  (void)gb::fused_apply_reduce(gb::plus_monoid<double>(), gb::Abs{}, u);
  EXPECT_GT(Governor::total_polls(), 0u)
      << "fused kernels ran without a single governor poll";
}

namespace {

/// C++-level fault-injection soak: run `op` under fail-at-Nth allocation
/// until it survives; after every injected failure the output vector must be
/// bit-identical to its pre-call state and the meter back at baseline.
void fused_alloc_soak(const char* name, const std::function<void()>& op,
                      const gb::Vector<double>& out) {
  ASSERT_NO_THROW(op()) << name << " failed without injection";
  std::vector<Index> bi;
  std::vector<double> bv;
  out.extract_tuples(bi, bv);
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    bool failed = false;
    {
      ScopedFailAfter guard(n);
      try {
        op();
      } catch (const std::bad_alloc&) {
        failed = true;
      }
    }
    if (!failed) return;  // survived injection: done
    std::vector<Index> ai;
    std::vector<double> av;
    out.extract_tuples(ai, av);
    EXPECT_EQ(ai, bi) << name << " pattern changed failing allocation " << n;
    EXPECT_EQ(av, bv) << name << " values changed failing allocation " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes failing at allocation " << n;
  }
  ADD_FAILURE() << name << " never completed under injection";
}

/// Governor trip soak: let N polls pass then trip every later one, for
/// N = 0, 1, 2, ... until the op survives. After every trip the output must
/// be bit-identical to its pre-call state.
void fused_trip_soak(const char* name, const std::function<void()>& op,
                     const gb::Vector<double>& out) {
  Governor gov;
  gb::platform::GovernorScope scope(&gov);
  ASSERT_NO_THROW(op()) << name << " failed under an idle governor";
  std::vector<Index> bi;
  std::vector<double> bv;
  out.extract_tuples(bi, bv);
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    bool tripped = false;
    {
      ScopedTripAfter trip(n, Governor::Trip::cancel);
      try {
        op();
      } catch (const gb::platform::CancelledError&) {
        tripped = true;
      }
    }
    if (!tripped) return;  // survived: every poll point has been hit
    std::vector<Index> ai;
    std::vector<double> av;
    out.extract_tuples(ai, av);
    EXPECT_EQ(ai, bi) << name << " pattern changed tripping at poll " << n;
    EXPECT_EQ(av, bv) << name << " values changed tripping at poll " << n;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace

TEST(FusedFaults, ResidualEpilogueIsTransactionalUnderOom) {
  gb::platform::Alloc::reset_counters();
  auto a = lagraph::rmat(6, 8, 103);
  const Index n = a.nrows();
  auto u = gb::Vector<double>::full(n, 0.5);
  auto prev = gb::Vector<double>::full(n, 0.25);
  gb::Vector<double> w(n);
  w.set_element(0, 9.0);  // pre-existing content the op must not corrupt
  fused_alloc_soak(
      "vxm_fill_accum_residual",
      [&] {
        gb::Vector<double> scratch = w;
        (void)gb::vxm_fill_accum_residual(
            scratch, gb::Plus{}, gb::plus_first<double>(), u, a, 0.1,
            gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, prev);
      },
      w);
}

TEST(FusedFaults, EwiseMultApplyIsTransactionalUnderOom) {
  gb::platform::Alloc::reset_counters();
  auto u = testutil::random_vector(300, 0.5, 104);
  auto v = testutil::random_vector(300, 0.5, 105);
  gb::Vector<double> w(300);
  w.set_element(5, 7.0);
  fused_alloc_soak(
      "fused_ewise_mult_apply",
      [&] {
        gb::Vector<double> scratch = w;
        gb::fused_ewise_mult_apply(
            scratch, gb::Div{}, gb::BindSecond<gb::Times, double>{{}, 0.85},
            u, v);
      },
      w);
}

TEST(FusedFaults, ResidualEpilogueSurvivesTripAtEveryPoll) {
  auto a = lagraph::rmat(6, 8, 106);
  const Index n = a.nrows();
  auto u = gb::Vector<double>::full(n, 0.5);
  auto prev = gb::Vector<double>::full(n, 0.25);
  gb::Vector<double> w(n);
  w.set_element(0, 9.0);
  fused_trip_soak(
      "vxm_fill_accum_residual",
      [&] {
        gb::Vector<double> scratch = w;
        (void)gb::vxm_fill_accum_residual(
            scratch, gb::Plus{}, gb::plus_first<double>(), u, a, 0.1,
            gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, prev);
      },
      w);
}

TEST(FusedFaults, ApplyReduceSurvivesTripAtEveryPoll) {
  auto u = testutil::random_vector(2100, 0.8, 107);
  gb::Vector<double> untouched(4);
  untouched.set_element(1, 3.0);
  fused_trip_soak(
      "fused_apply_reduce",
      [&] {
        (void)gb::fused_apply_reduce(gb::plus_monoid<double>(), gb::Abs{}, u);
      },
      untouched);
}

TEST(FusedFaults, GovernorTripAtNthPollStopsPagerank) {
  // Driver-level: a pagerank run under a tripped governor must stop with
  // the trip reason and still hand back a consistent iterate.
  auto adj = lagraph::rmat(6, 8, 108);
  lagraph::Graph g(adj.dup(), lagraph::Kind::directed);
  {
    Governor gov;
    gb::platform::GovernorScope scope(&gov);
    ScopedTripAfter trip(25, Governor::Trip::cancel);
    auto res = lagraph::pagerank(g);
    EXPECT_EQ(res.stop, lagraph::StopReason::cancelled);
  }
  // Untripped afterwards: the same graph converges normally.
  lagraph::Graph g2(adj.dup(), lagraph::Kind::directed);
  auto res = lagraph::pagerank(g2);
  EXPECT_TRUE(res.converged);
}
