// Allocation-fault soak harness (tentpole of the robustness PR).
//
// Every major operation is driven through the C API while
// gb::platform::Alloc is armed to fail the Nth allocation, for N = 0, 1, 2,
// ... until the operation survives injection. After each injected failure
// the harness asserts the full contract:
//
//   * the C boundary reports GrB_OUT_OF_MEMORY (the bad_alloc mapped by the
//     guarded wrapper) — never a crash, never a wrong code;
//   * every object involved still passes GxB_*_check at GxB_CHECK_FULL
//     (strong guarantee: no half-written structure escapes);
//   * the output object is bit-identical to its pre-call state;
//   * MemoryMeter::current_bytes() returns to the pre-call baseline — the
//     failed operation leaked nothing.
//
// Inputs are deliberately tiny (single-digit dimensions) so every kernel
// runs serially (far below the parallel thresholds) and the allocation
// sequence is deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "capi/graphblas_c.h"
#include "graphblas/graphblas.hpp"
#include "graphblas/validate.hpp"
#include "platform/alloc.hpp"
#include "platform/governor.hpp"
#include "platform/memory.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"
#include "test_common.hpp"

using gb::platform::Alloc;
using gb::platform::Governor;
using gb::platform::MemoryMeter;
using gb::platform::ScopedFailAfter;
using gb::platform::ScopedTripAfter;
using testutil::snapshot;

namespace {

// Objects the harness re-validates after every injected failure.
struct Watched {
  std::vector<GrB_Matrix> matrices;
  std::vector<GrB_Vector> vectors;
};

void expect_all_valid(const Watched& watched, const char* op, GrB_Index n) {
  for (GrB_Matrix m : watched.matrices) {
    EXPECT_EQ(GxB_Matrix_check(m, GxB_CHECK_FULL), GrB_SUCCESS)
        << op << " left a corrupt matrix after failing allocation " << n;
  }
  for (GrB_Vector v : watched.vectors) {
    EXPECT_EQ(GxB_Vector_check(v, GxB_CHECK_FULL), GrB_SUCCESS)
        << op << " left a corrupt vector after failing allocation " << n;
  }
}

// Drives `op` under fail-at-Nth injection until it completes cleanly.
// `out` is the output object (snapshot-compared on failure); extra watched
// objects (inputs, masks) are structurally validated too. Returns the N at
// which the operation first survived.
template <class Handle>
GrB_Index soak(const char* name, const std::function<GrB_Info()>& op,
               Handle out, const Watched& watched) {
  // Warm-up: one clean run so lazily-materialised input state (dual
  // orientation caches, dense/sparse representation flips) exists before
  // bytes are measured — a failed call may legitimately retain those
  // caches, but after warm-up a failure must be exactly memory-neutral.
  const GrB_Info warm = op();
  EXPECT_EQ(warm, GrB_SUCCESS) << name << " failed without injection";
  if (warm != GrB_SUCCESS) return 0;
  const auto before = snapshot(out);
  constexpr GrB_Index kMaxN = 100000;
  for (GrB_Index n = 0; n < kMaxN; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    GrB_Info info;
    {
      ScopedFailAfter guard(n);
      info = op();
    }
    if (info == GrB_SUCCESS) {
      EXPECT_GT(Alloc::total_allocations(), 0u);
      expect_all_valid(watched, name, n);
      return n;
    }
    EXPECT_EQ(info, GrB_OUT_OF_MEMORY)
        << name << " reported the wrong Info for allocation failure " << n;
    expect_all_valid(watched, name, n);
    EXPECT_EQ(snapshot(out), before)
        << name << " modified its output despite failing at allocation " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes after failing at allocation " << n;
  }
  ADD_FAILURE() << name << " never completed under injection";
  return kMaxN;
}

// Shared fixture: small, settled inputs built once per test.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    Alloc::reset_counters();
    ASSERT_EQ(GrB_Matrix_new(&a_, 6, 6), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_new(&b_, 6, 6), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_new(&c_, 6, 6), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_new(&u_, 6), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_new(&w_, 6), GrB_SUCCESS);

    const GrB_Index ar[] = {0, 0, 1, 2, 3, 4, 5};
    const GrB_Index ac[] = {1, 4, 2, 0, 3, 5, 2};
    const double av[] = {1, 2, 3, 4, 5, 6, 7};
    ASSERT_EQ(GrB_Matrix_build_FP64(a_, ar, ac, av, 7, GrB_PLUS_FP64),
              GrB_SUCCESS);
    const GrB_Index br[] = {0, 1, 2, 4, 5};
    const GrB_Index bc[] = {2, 1, 3, 4, 0};
    const double bv[] = {2, -1, 4, 0.5, 3};
    ASSERT_EQ(GrB_Matrix_build_FP64(b_, br, bc, bv, 5, GrB_PLUS_FP64),
              GrB_SUCCESS);
    // A non-empty output so "unchanged on failure" is a real assertion.
    ASSERT_EQ(GrB_Matrix_setElement_FP64(c_, 42.0, 5, 5), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_wait(c_), GrB_SUCCESS);

    const GrB_Index ui[] = {0, 2, 5};
    const double uv[] = {1.0, -2.0, 3.0};
    ASSERT_EQ(GrB_Vector_build_FP64(u_, ui, uv, 3, GrB_PLUS_FP64),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_setElement_FP64(w_, 7.0, 1), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_wait(w_), GrB_SUCCESS);
  }

  void TearDown() override {
    Alloc::disarm();
    GrB_Matrix_free(&a_);
    GrB_Matrix_free(&b_);
    GrB_Matrix_free(&c_);
    GrB_Vector_free(&u_);
    GrB_Vector_free(&w_);
  }

  Watched watch_all() const { return {{a_, b_, c_}, {u_, w_}}; }

  GrB_Matrix a_ = nullptr, b_ = nullptr, c_ = nullptr;
  GrB_Vector u_ = nullptr, w_ = nullptr;
};

}  // namespace

TEST_F(FaultInjection, Mxm) {
  soak(
      "mxm",
      [&] {
        return GrB_mxm(c_, nullptr, GrB_NULL_ACCUM,
                       GrB_PLUS_TIMES_SEMIRING_FP64, a_, b_, nullptr);
      },
      c_, watch_all());
}

TEST_F(FaultInjection, MxmMaskedAccum) {
  soak(
      "mxm<mask,accum>",
      [&] {
        return GrB_mxm(c_, b_, GrB_PLUS_FP64, GrB_PLUS_TIMES_SEMIRING_FP64,
                       a_, b_, nullptr);
      },
      c_, watch_all());
}

TEST_F(FaultInjection, Mxv) {
  soak(
      "mxv",
      [&] {
        return GrB_mxv(w_, nullptr, GrB_NULL_ACCUM,
                       GrB_PLUS_TIMES_SEMIRING_FP64, a_, u_, nullptr);
      },
      w_, watch_all());
}

TEST_F(FaultInjection, EwiseAddMatrix) {
  soak(
      "eWiseAdd",
      [&] {
        return GrB_Matrix_eWiseAdd(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_FP64,
                                   a_, b_, nullptr);
      },
      c_, watch_all());
}

TEST_F(FaultInjection, EwiseMultVector) {
  soak(
      "eWiseMult",
      [&] {
        return GrB_Vector_eWiseMult(w_, nullptr, GrB_NULL_ACCUM,
                                    GrB_TIMES_FP64, u_, u_, nullptr);
      },
      w_, watch_all());
}

TEST_F(FaultInjection, AssignScalarMasked) {
  soak(
      "assign",
      [&] {
        return GrB_Matrix_assign_FP64(c_, a_, GrB_NULL_ACCUM, 3.5, GrB_ALL, 6,
                                      GrB_ALL, 6, nullptr);
      },
      c_, watch_all());
}

TEST_F(FaultInjection, VectorAssignScalar) {
  soak(
      "vector assign",
      [&] {
        return GrB_Vector_assign_FP64(w_, u_, GrB_NULL_ACCUM, 2.0, GrB_ALL, 6,
                                      nullptr);
      },
      w_, watch_all());
}

TEST_F(FaultInjection, Extract) {
  const GrB_Index rows[] = {0, 2, 4};
  GrB_Matrix s = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&s, 3, 6), GrB_SUCCESS);
  soak(
      "extract",
      [&] {
        return GrB_Matrix_extract(s, nullptr, GrB_NULL_ACCUM, a_, rows, 3,
                                  GrB_ALL, 6, nullptr);
      },
      s, {{a_, s}, {}});
  GrB_Matrix_free(&s);
}

TEST_F(FaultInjection, ReduceToVector) {
  soak(
      "reduce",
      [&] {
        return GrB_Matrix_reduce_Vector(w_, nullptr, GrB_NULL_ACCUM,
                                        GrB_PLUS_MONOID_FP64, a_, nullptr);
      },
      w_, watch_all());
}

TEST_F(FaultInjection, Apply) {
  soak(
      "apply",
      [&] {
        return GrB_Vector_apply(w_, nullptr, GrB_NULL_ACCUM, GrB_ABS_FP64, u_,
                                nullptr);
      },
      w_, watch_all());
}

TEST_F(FaultInjection, Transpose) {
  soak(
      "transpose",
      [&] {
        return GrB_transpose(c_, nullptr, GrB_NULL_ACCUM, a_, nullptr);
      },
      c_, watch_all());
}

TEST_F(FaultInjection, Build) {
  // new + build together under injection: a fresh object per round, so a
  // failed round must free *everything* it allocated.
  const GrB_Index tr[] = {5, 0, 3, 0};
  const GrB_Index tc[] = {1, 4, 3, 4};
  const double tv[] = {1, 2, 3, 4};
  constexpr GrB_Index kMaxN = 100000;
  bool succeeded = false;
  for (GrB_Index n = 0; n < kMaxN && !succeeded; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    GrB_Matrix t = nullptr;
    GrB_Info info;
    {
      ScopedFailAfter guard(n);
      info = GrB_Matrix_new(&t, 6, 6);
      if (info == GrB_SUCCESS) {
        info = GrB_Matrix_build_FP64(t, tr, tc, tv, 4, GrB_PLUS_FP64);
      }
    }
    if (info == GrB_SUCCESS) {
      GrB_Index nv = 0;
      EXPECT_EQ(GrB_Matrix_nvals(&nv, t), GrB_SUCCESS);
      // (0,4) appears twice and is combined by GrB_PLUS_FP64.
      EXPECT_EQ(nv, 3u);
      EXPECT_EQ(GxB_Matrix_check(t, GxB_CHECK_FULL), GrB_SUCCESS);
      succeeded = true;
    } else {
      EXPECT_EQ(info, GrB_OUT_OF_MEMORY) << "build round " << n;
      if (t) {
        EXPECT_EQ(GxB_Matrix_check(t, GxB_CHECK_FULL), GrB_SUCCESS)
            << "failed build left a corrupt matrix at round " << n;
      }
    }
    GrB_Matrix_free(&t);
    if (!succeeded) {
      EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
          << "failed build round " << n << " leaked metered bytes";
    }
  }
  EXPECT_TRUE(succeeded) << "build never completed under injection";
}

TEST_F(FaultInjection, WaitWithPendingWork) {
  // setElement parks pending tuples; removeElement makes zombies; wait()
  // must survive injection mid-merge with both intact or fully applied.
  ASSERT_EQ(GrB_Matrix_setElement_FP64(a_, 9.0, 3, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_removeElement(a_, 0, 1), GrB_SUCCESS);
  // wait() cannot be warmed up (success consumes the pending work), and a
  // failed wait may legitimately commit a completed internal stage (the
  // zombie sweep) whose storage differs in size from what it replaced. The
  // leak assertion is therefore idempotence: failing at the same countdown
  // twice in a row must not consume additional bytes.
  constexpr GrB_Index kMaxN = 100000;
  for (GrB_Index n = 0; n < kMaxN; ++n) {
    GrB_Info info;
    {
      ScopedFailAfter guard(n);
      info = GrB_Matrix_wait(a_);
    }
    if (info == GrB_SUCCESS) break;
    ASSERT_EQ(info, GrB_OUT_OF_MEMORY);
    EXPECT_EQ(GxB_Matrix_check(a_, GxB_CHECK_FULL), GrB_SUCCESS)
        << "wait corrupted the matrix failing at allocation " << n;
    const std::size_t after_first = MemoryMeter::current_bytes();
    GrB_Info info2;
    {
      ScopedFailAfter guard(n);
      info2 = GrB_Matrix_wait(a_);
    }
    if (info2 == GrB_SUCCESS) break;
    ASSERT_EQ(info2, GrB_OUT_OF_MEMORY);
    EXPECT_EQ(MemoryMeter::current_bytes(), after_first)
        << "repeated failure at countdown " << n << " accumulated bytes";
    ASSERT_LT(n + 1, kMaxN) << "wait never completed under injection";
  }
  // Both the insertion and the deletion took effect exactly once.
  double x = 0.0;
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a_, 3, 1), GrB_SUCCESS);
  EXPECT_EQ(x, 9.0);
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a_, 0, 1), GrB_NO_VALUE);
}

TEST_F(FaultInjection, ProbabilisticSoak) {
  // Random interleavings: every allocation fails with 10% probability under
  // a fixed seed. Whatever happens, no call may corrupt an object or leak.
  const std::size_t baseline = MemoryMeter::current_bytes();
  for (std::uint64_t round = 0; round < 30; ++round) {
    Alloc::fail_with_probability(0.10, 0x1234 + round);
    GrB_Info info = GrB_mxm(c_, nullptr, GrB_NULL_ACCUM,
                            GrB_PLUS_TIMES_SEMIRING_FP64, a_, b_, nullptr);
    Alloc::disarm();
    EXPECT_TRUE(info == GrB_SUCCESS || info == GrB_OUT_OF_MEMORY)
        << "round " << round << " returned " << info;
    expect_all_valid(watch_all(), "probabilistic mxm", round);
  }
  // With injection off the operation must succeed.
  ASSERT_EQ(GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a_, b_, nullptr),
            GrB_SUCCESS);
  EXPECT_GT(MemoryMeter::current_bytes(), 0u);
  (void)baseline;
}

TEST_F(FaultInjection, MeterTracksObjectLifetime) {
  const std::size_t before = MemoryMeter::current_bytes();
  {
    GrB_Matrix t = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&t, 64, 64), GrB_SUCCESS);
    const GrB_Index tr[] = {0, 9, 33};
    const GrB_Index tc[] = {5, 12, 63};
    const double tv[] = {1, 2, 3};
    ASSERT_EQ(GrB_Matrix_build_FP64(t, tr, tc, tv, 3, GrB_PLUS_FP64),
              GrB_SUCCESS);
    EXPECT_GT(MemoryMeter::current_bytes(), before)
        << "opaque-object storage is not feeding the meter";
    GrB_Matrix_free(&t);
  }
  EXPECT_EQ(MemoryMeter::current_bytes(), before)
      << "freeing the object did not return the meter to baseline";
}

TEST(FaultInjectionUnit, CountdownSemantics) {
  Alloc::reset_counters();
  {
    ScopedFailAfter guard(2);
    gb::Buf<double> ok1(8);   // allocation 1: succeeds
    gb::Buf<double> ok2(8);   // allocation 2: succeeds
    EXPECT_THROW(gb::Buf<double> boom(8), std::bad_alloc);   // 3: fails
    EXPECT_THROW(gb::Buf<double> boom2(8), std::bad_alloc);  // sticky
  }
  // Guard destroyed: injection off again.
  gb::Buf<double> fine(8);
  EXPECT_EQ(fine.size(), 8u);
  EXPECT_GE(Alloc::injected_failures(), 2u);
}

TEST(FaultInjectionUnit, ProbabilisticIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    Alloc::fail_with_probability(0.5, seed);
    std::string pattern;
    for (int k = 0; k < 32; ++k) {
      try {
        gb::Buf<char> b(16);
        pattern += 'S';
      } catch (const std::bad_alloc&) {
        pattern += 'F';
      }
    }
    Alloc::disarm();
    return pattern;
  };
  const auto p1 = run(99);
  const auto p2 = run(99);
  EXPECT_EQ(p1, p2) << "same seed must give the same failure sequence";
  EXPECT_NE(p1.find('F'), std::string::npos);
  EXPECT_NE(p1.find('S'), std::string::npos);
  EXPECT_NE(run(100), p1) << "different seeds should diverge";
}

// ---------------------------------------------------------------------------
// Kernel-scratch soaks: the same injection contract, driven through the C++
// API with the descriptor pinned to each mxm / mxv method, so every
// Workspace checkout site (gustavson acc/present/touched/row and per-chunk
// parts, the dot row buffer, the heap node store, push/pull per-chunk
// buffers) sits directly on the failure path. Workspace retention is part of
// the contract: after the clean warm-up the pools hold their peak per-site
// capacities, a failed run re-requests the same sizes, and an injected
// failure must therefore be exactly memory-neutral.

namespace {

struct CxxMatSnapshot {
  std::vector<gb::Index> r, c;
  std::vector<double> v;
  friend bool operator==(const CxxMatSnapshot&,
                         const CxxMatSnapshot&) = default;
};

CxxMatSnapshot cxx_snapshot(const gb::Matrix<double>& m) {
  CxxMatSnapshot s;
  m.extract_tuples(s.r, s.c, s.v);
  return s;
}

struct CxxVecSnapshot {
  std::vector<gb::Index> i;
  std::vector<double> v;
  friend bool operator==(const CxxVecSnapshot&,
                         const CxxVecSnapshot&) = default;
};

CxxVecSnapshot cxx_snapshot(const gb::Vector<double>& w) {
  CxxVecSnapshot s;
  w.extract_tuples(s.i, s.v);
  return s;
}

// C++-level analogue of soak(): `op` throws std::bad_alloc on an injected
// failure instead of returning GrB_OUT_OF_MEMORY.
template <class Out>
void cxx_soak(const char* name, const std::function<void()>& op,
              const Out& out) {
  ASSERT_NO_THROW(op()) << name << " failed without injection";
  const auto before = cxx_snapshot(out);
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
    EXPECT_TRUE(gb::check(out, gb::CheckLevel::full).ok())
        << name << " corrupted its output failing at allocation " << n;
    EXPECT_EQ(cxx_snapshot(out), before)
        << name << " modified its output despite failing at allocation " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes after failing at allocation " << n;
  }
  ADD_FAILURE() << name << " never completed under injection";
}

class KernelScratchFault : public ::testing::Test {
 protected:
  void SetUp() override {
    Alloc::reset_counters();
    a_ = gb::Matrix<double>(6, 6);
    b_ = gb::Matrix<double>(6, 6);
    c_ = gb::Matrix<double>(6, 6);
    u_ = gb::Vector<double>(6);
    w_ = gb::Vector<double>(6);
    const gb::Index ar[] = {0, 0, 1, 2, 3, 4, 5};
    const gb::Index ac[] = {1, 4, 2, 0, 3, 5, 2};
    const double av[] = {1, 2, 3, 4, 5, 6, 7};
    for (int k = 0; k < 7; ++k) a_.set_element(ar[k], ac[k], av[k]);
    const gb::Index br[] = {0, 1, 2, 4, 5};
    const gb::Index bc[] = {2, 1, 3, 4, 0};
    const double bv[] = {2, -1, 4, 0.5, 3};
    for (int k = 0; k < 5; ++k) b_.set_element(br[k], bc[k], bv[k]);
    c_.set_element(5, 5, 42.0);
    u_.set_element(0, 1.0);
    u_.set_element(2, -2.0);
    u_.set_element(5, 3.0);
    w_.set_element(1, 7.0);
    a_.wait();
    b_.wait();
    c_.wait();
    u_.wait();
    w_.wait();
  }

  void TearDown() override {
    Alloc::disarm();
    EXPECT_TRUE(gb::check(a_, gb::CheckLevel::full).ok());
    EXPECT_TRUE(gb::check(b_, gb::CheckLevel::full).ok());
    EXPECT_TRUE(gb::check(u_, gb::CheckLevel::full).ok());
  }

  gb::Matrix<double> a_{1, 1}, b_{1, 1}, c_{1, 1};
  gb::Vector<double> u_{1}, w_{1};
};

}  // namespace

TEST_F(KernelScratchFault, MxmGustavson) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  cxx_soak(
      "mxm/gustavson",
      [&] {
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmDot) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::dot;
  cxx_soak(
      "mxm/dot",
      [&] {
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmHeap) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::heap;
  cxx_soak(
      "mxm/heap",
      [&] {
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmGustavsonMasked) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  cxx_soak(
      "mxm<mask>/gustavson",
      [&] {
        gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxvPush) {
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::push;
  cxx_soak(
      "mxv/push",
      [&] {
        gb::mxv(w_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                u_, d);
      },
      w_);
}

TEST_F(KernelScratchFault, MxvPull) {
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::pull;
  cxx_soak(
      "mxv/pull",
      [&] {
        gb::mxv(w_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                u_, d);
      },
      w_);
}

// --- forced multi-chunk soaks --------------------------------------------
// platform::ForcedChunks splits every chunked kernel into 3 cost-balanced
// chunks regardless of thread count or problem size, so the per-chunk
// workspace checkouts (and the exception trap that ferries an injected
// bad_alloc out of the OpenMP region) sit on the failure path even with
// these 6x6 fixtures. With one thread every chunk runs on the master, so
// pool warm-up stays deterministic and failures stay memory-neutral.

TEST_F(KernelScratchFault, MxmGustavsonTwoPassForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  cxx_soak(
      "mxm/gustavson forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmGustavsonMaskedForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  cxx_soak(
      "mxm<mask>/gustavson forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmDotMaskedForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::dot;
  cxx_soak(
      "mxm<mask>/dot forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmDotComplementedForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::dot;
  d.mask_complement = true;
  cxx_soak(
      "mxm<!mask>/dot forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxmHeapForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::heap;
  cxx_soak(
      "mxm/heap forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_);
}

TEST_F(KernelScratchFault, MxvPullForcedChunks) {
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::pull;
  cxx_soak(
      "mxv/pull forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxv(w_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                u_, d);
      },
      w_);
}

TEST_F(KernelScratchFault, EwiseMergeForcedChunks) {
  cxx_soak(
      "ewise_add matrix forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::ewise_add(c_, gb::no_mask, gb::no_accum, gb::Plus{}, a_, b_);
      },
      c_);
  cxx_soak(
      "ewise_mult matrix forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::ewise_mult(c_, gb::no_mask, gb::no_accum, gb::Times{}, a_, b_);
      },
      c_);
}

TEST_F(KernelScratchFault, SelectTwoPassForcedChunks) {
  cxx_soak(
      "select matrix forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::select(c_, gb::no_mask, gb::no_accum, gb::SelTril{}, a_,
                   std::int64_t{0});
      },
      c_);
}

TEST_F(KernelScratchFault, ApplyIndexopForcedChunks) {
  cxx_soak(
      "apply_indexop matrix forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::apply_indexop(
            c_, gb::no_mask, gb::no_accum,
            [](double v, gb::Index i, gb::Index j, std::int64_t t) {
              return v + static_cast<double>(i + j) + static_cast<double>(t);
            },
            a_, std::int64_t{2});
      },
      c_);
}

TEST_F(KernelScratchFault, ReduceVectorTwoPassForcedChunks) {
  cxx_soak(
      "reduce rows forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::reduce(w_, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
                   a_);
      },
      w_);
}

TEST_F(KernelScratchFault, ReduceScalarChunkedForcedChunks) {
  // The output is a value, not an object, so the generic soak does not
  // apply: assert the value is stable and failures stay memory-neutral.
  double warm;
  {
    gb::platform::ForcedChunks force(3);
    warm = gb::reduce_scalar(gb::plus_monoid<double>(), a_);
  }
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    bool failed = false;
    double got = 0.0;
    {
      ScopedFailAfter guard(n);
      gb::platform::ForcedChunks force(3);
      try {
        got = gb::reduce_scalar(gb::plus_monoid<double>(), a_);
      } catch (const std::bad_alloc&) {
        failed = true;
      }
    }
    if (!failed) {
      EXPECT_EQ(got, warm) << "countdown " << n;
      return;
    }
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << "failed scalar reduce at countdown " << n << " leaked bytes";
  }
  ADD_FAILURE() << "scalar reduce never completed under injection";
}

TEST_F(KernelScratchFault, TransposeBucketForcedChunks) {
  // A fresh duplicate per round so the by-column cache (which IS the
  // transpose result) cannot be served from warm-up; the 3-phase histogram
  // transpose re-runs — and can fail — on every round.
  cxx_soak(
      "transpose bucket forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        auto fresh = a_.dup();
        gb::transpose(c_, gb::no_mask, gb::no_accum, fresh);
      },
      c_);
}

TEST_F(KernelScratchFault, KroneckerTwoPassForcedChunks) {
  gb::Matrix<double> kc(36, 36);
  kc.set_element(35, 35, 1.5);
  kc.wait();
  cxx_soak(
      "kronecker forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::kronecker(kc, gb::no_mask, gb::no_accum, gb::Times{}, a_, b_);
      },
      kc);
}

TEST_F(KernelScratchFault, PoolsStopGrowingAcrossAllForcedPaths) {
  // Warm every forced-chunk path once, then repeat the whole battery:
  // cached workspace bytes must not grow — the pools reached their
  // steady-state capacities during warm-up.
  auto battery = [&] {
    gb::platform::ForcedChunks force(3);
    for (auto m : {gb::MxmMethod::gustavson, gb::MxmMethod::dot,
                   gb::MxmMethod::heap}) {
      gb::Descriptor d;
      d.mxm = m;
      gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_, b_,
              d);
      gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
    }
    gb::ewise_add(c_, gb::no_mask, gb::no_accum, gb::Plus{}, a_, b_);
    gb::select(c_, gb::no_mask, gb::no_accum, gb::SelTril{}, a_,
               std::int64_t{0});
    gb::reduce(w_, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(), a_);
    (void)gb::reduce_scalar(gb::plus_monoid<double>(), a_);
    auto fresh = a_.dup();
    gb::transpose(c_, gb::no_mask, gb::no_accum, fresh);
  };
  battery();  // warm
  const auto warm = gb::platform::Workspace::thread_stats();
  for (int round = 0; round < 3; ++round) battery();
  const auto after = gb::platform::Workspace::thread_stats();
  EXPECT_LE(after.cached_bytes, warm.cached_bytes)
      << "steady-state batteries grew the workspace pools";
  EXPECT_GT(after.reuses, warm.reuses)
      << "steady-state batteries are not reusing pooled buffers";
}

// --- kronecker dimension overflow at the C boundary ----------------------

TEST(KroneckerOverflow, CBoundaryMapsToIndexOutOfBounds) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr;
  const GrB_Index big = GrB_Index{1} << 40;
  ASSERT_EQ(GrB_Matrix_new(&a, big, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, big, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 4, 4), GrB_SUCCESS);
  EXPECT_EQ(GrB_kronecker(c, nullptr, GrB_NULL_ACCUM, GrB_TIMES_FP64, a, b,
                          nullptr),
            GrB_INDEX_OUT_OF_BOUNDS);
  const char* msg = nullptr;
  EXPECT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  EXPECT_NE(msg, nullptr);
  GrB_Matrix_free(&a);
  GrB_Matrix_free(&b);
  GrB_Matrix_free(&c);
}

TEST_F(FaultInjection, Kronecker) {
  GrB_Matrix kc = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&kc, 36, 36), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(kc, 9.0, 35, 35), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_wait(kc), GrB_SUCCESS);
  soak(
      "kronecker",
      [&] {
        return GrB_kronecker(kc, nullptr, GrB_NULL_ACCUM, GrB_TIMES_FP64, a_,
                             b_, nullptr);
      },
      kc, {{a_, b_, kc}, {}});
  GrB_Matrix_free(&kc);
}

TEST_F(KernelScratchFault, WorkspaceStaysWarmAcrossFailures) {
  // After the warm-up, repeated injected failures must not grow the pools:
  // every failed run requests capacities the warm run already established.
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  auto op = [&] {
    gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_, b_,
            d);
  };
  op();  // warm
  const auto warm_cached = gb::platform::Workspace::thread_stats().cached_bytes;
  for (std::uint64_t n = 0; n < 8; ++n) {
    ScopedFailAfter guard(n);
    try {
      op();
    } catch (const std::bad_alloc&) {
    }
    EXPECT_LE(gb::platform::Workspace::thread_stats().cached_bytes,
              warm_cached)
        << "failed run at countdown " << n << " grew the workspace pools";
  }
}

// ===========================================================================
// Governor soaks: the same transactional contract, with the trip coming from
// the execution governor instead of the allocator. Governor::trip_poll_after
// addresses every poll point by ordinal (exactly like Alloc::fail_after
// addresses every allocation), so for N = 0, 1, 2, ... the Nth poll throws a
// cancellation or deadline, the C boundary reports GxB_CANCELLED /
// GxB_TIMEOUT, and the output must be bit-identical to its pre-call snapshot
// with the meter back at baseline.

namespace {

// C-boundary governor soak: drives `op` with the fixture's context engaged
// and the Nth poll tripping as `kind`, until the op completes without
// hitting a tripped poll. Returns the N at which it first survived (== the
// number of poll points the op executes).
template <class Handle>
GrB_Index governor_soak(const char* name, const std::function<GrB_Info()>& op,
                        Handle out, const Watched& watched,
                        Governor::Trip kind, GrB_Info expected) {
  const GrB_Info warm = op();  // engaged but untripped: must still succeed
  EXPECT_EQ(warm, GrB_SUCCESS) << name << " failed under an idle governor";
  if (warm != GrB_SUCCESS) return 0;
  const auto before = snapshot(out);
  constexpr GrB_Index kMaxN = 100000;
  for (GrB_Index n = 0; n < kMaxN; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    GrB_Info info;
    {
      ScopedTripAfter trip(n, kind);
      info = op();
    }
    if (info == GrB_SUCCESS) {
      expect_all_valid(watched, name, n);
      return n;
    }
    EXPECT_EQ(info, expected)
        << name << " reported the wrong Info for a trip at poll " << n;
    expect_all_valid(watched, name, n);
    EXPECT_EQ(snapshot(out), before)
        << name << " modified its output despite tripping at poll " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes after tripping at poll " << n;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
  return kMaxN;
}

// Fixture: FaultInjection's objects plus an engaged GxB_Context, so every
// C call on this thread runs governed.
class GovernorFault : public FaultInjection {
 protected:
  void SetUp() override {
    FaultInjection::SetUp();
    ASSERT_EQ(GxB_Context_new(&ctx_), GrB_SUCCESS);
    ASSERT_EQ(GxB_Context_engage(ctx_), GrB_SUCCESS);
  }

  void TearDown() override {
    Governor::disarm_trips();
    EXPECT_EQ(GxB_Context_disengage(ctx_), GrB_SUCCESS);
    EXPECT_EQ(GxB_Context_free(&ctx_), GrB_SUCCESS);
    FaultInjection::TearDown();
  }

  GxB_Context ctx_ = nullptr;
};

}  // namespace

TEST_F(GovernorFault, MxmCancelledAtEveryPoll) {
  const GrB_Index polls = governor_soak(
      "mxm cancel",
      [&] {
        return GrB_mxm(c_, nullptr, GrB_NULL_ACCUM,
                       GrB_PLUS_TIMES_SEMIRING_FP64, a_, b_, nullptr);
      },
      c_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
  EXPECT_GT(polls, 0u) << "mxm executed no poll points";
}

TEST_F(GovernorFault, MxmDeadlineAtEveryPoll) {
  governor_soak(
      "mxm deadline",
      [&] {
        return GrB_mxm(c_, nullptr, GrB_NULL_ACCUM,
                       GrB_PLUS_TIMES_SEMIRING_FP64, a_, b_, nullptr);
      },
      c_, watch_all(), Governor::Trip::deadline, GxB_TIMEOUT);
}

TEST_F(GovernorFault, MxmMaskedAccumCancelled) {
  governor_soak(
      "mxm<mask,accum> cancel",
      [&] {
        return GrB_mxm(c_, b_, GrB_PLUS_FP64, GrB_PLUS_TIMES_SEMIRING_FP64,
                       a_, b_, nullptr);
      },
      c_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, MxvCancelled) {
  governor_soak(
      "mxv cancel",
      [&] {
        return GrB_mxv(w_, nullptr, GrB_NULL_ACCUM,
                       GrB_PLUS_TIMES_SEMIRING_FP64, a_, u_, nullptr);
      },
      w_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, EwiseAddCancelled) {
  governor_soak(
      "eWiseAdd cancel",
      [&] {
        return GrB_Matrix_eWiseAdd(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_FP64,
                                   a_, b_, nullptr);
      },
      c_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, AssignScalarMaskedDeadline) {
  governor_soak(
      "assign deadline",
      [&] {
        return GrB_Matrix_assign_FP64(c_, a_, GrB_NULL_ACCUM, 3.5, GrB_ALL, 6,
                                      GrB_ALL, 6, nullptr);
      },
      c_, watch_all(), Governor::Trip::deadline, GxB_TIMEOUT);
}

TEST_F(GovernorFault, ReduceToVectorCancelled) {
  governor_soak(
      "reduce cancel",
      [&] {
        return GrB_Matrix_reduce_Vector(w_, nullptr, GrB_NULL_ACCUM,
                                        GrB_PLUS_MONOID_FP64, a_, nullptr);
      },
      w_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, ApplyCancelled) {
  governor_soak(
      "apply cancel",
      [&] {
        return GrB_Vector_apply(w_, nullptr, GrB_NULL_ACCUM, GrB_ABS_FP64, u_,
                                nullptr);
      },
      w_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, TransposeCancelled) {
  governor_soak(
      "transpose cancel",
      [&] {
        return GrB_transpose(c_, nullptr, GrB_NULL_ACCUM, a_, nullptr);
      },
      c_, watch_all(), Governor::Trip::cancel, GxB_CANCELLED);
}

TEST_F(GovernorFault, KroneckerCancelled) {
  GrB_Matrix kc = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&kc, 36, 36), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(kc, 9.0, 35, 35), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_wait(kc), GrB_SUCCESS);
  governor_soak(
      "kronecker cancel",
      [&] {
        return GrB_kronecker(kc, nullptr, GrB_NULL_ACCUM, GrB_TIMES_FP64, a_,
                             b_, nullptr);
      },
      kc, {{a_, b_, kc}, {}}, Governor::Trip::cancel, GxB_CANCELLED);
  GrB_Matrix_free(&kc);
}

TEST_F(GovernorFault, RealWallClockDeadlineTrips) {
  // A 1 ns timeout: the deadline is already in the past by the first strided
  // clock check. The clock is read every kClockStride-th poll per thread, so
  // a single tiny call may legitimately miss the check — repeat until the
  // stride lands (bounded; each mxm executes at least one poll).
  ASSERT_EQ(GxB_Context_set_timeout_ms(ctx_, 1e-6), GrB_SUCCESS);
  auto before = snapshot(c_);
  GrB_Info info = GrB_SUCCESS;
  for (int k = 0; k < 64 && info == GrB_SUCCESS; ++k) {
    info = GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                   a_, b_, nullptr);
    if (info == GrB_SUCCESS) {
      // Survived this call; the output legitimately changed. Re-snapshot so
      // the post-trip comparison is against the last committed state.
      before = snapshot(c_);
    }
  }
  ASSERT_EQ(GxB_Context_set_timeout_ms(ctx_, 0.0), GrB_SUCCESS);
  EXPECT_EQ(info, GxB_TIMEOUT) << "deadline never tripped in 64 calls";
  EXPECT_EQ(snapshot(c_), before)
      << "timed-out mxm modified its output";
  expect_all_valid(watch_all(), "wall-clock deadline", 0);
}

TEST_F(GovernorFault, BudgetLadderIsTransactionalAtEveryRung) {
  // Walk the byte budget up from 1 byte until mxm fits. Every failing rung
  // must report GrB_OUT_OF_MEMORY (BudgetError rides the OOM path) and be
  // fully transactional; the first passing rung must produce the same result
  // as an ungoverned run.
  ASSERT_EQ(GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a_, b_, nullptr),
            GrB_SUCCESS);  // warm caches + reference output
  const auto want = snapshot(c_);
  // Two passes. Tight budgets reroute auto-selection through the heap
  // fallback, whose workspace pools the ungoverned warm-up never touched;
  // pool growth on a failing rung is retained by design and is not a leak.
  // Pass 0 walks every rung once so each trip path's pools reach their
  // high-water mark; pass 1 repeats the identical walk and holds the strict
  // transactional line: a failing rung must leave the meter untouched.
  for (int pass = 0; pass < 2; ++pass) {
    bool fit = false;
    int failing_rungs = 0;
    for (std::uint64_t budget = 1; budget <= (std::uint64_t{1} << 30) && !fit;
         budget *= 4) {
      const std::size_t baseline = MemoryMeter::current_bytes();
      ASSERT_EQ(GxB_Context_set_budget(ctx_, budget), GrB_SUCCESS);
      const GrB_Info info =
          GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                  a_, b_, nullptr);
      ASSERT_EQ(GxB_Context_set_budget(ctx_, 0), GrB_SUCCESS);
      if (info == GrB_SUCCESS) {
        fit = true;
      } else {
        ++failing_rungs;
        EXPECT_EQ(info, GrB_OUT_OF_MEMORY)
            << "budget " << budget << " reported the wrong Info";
        if (pass == 1) {
          EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
              << "budget " << budget << " leaked metered bytes";
        }
      }
      EXPECT_EQ(snapshot(c_), want)
          << "budget " << budget << " changed the output";
      expect_all_valid(watch_all(), "budget ladder", budget);
    }
    EXPECT_TRUE(fit) << "mxm never fit under a 1 GiB budget";
    EXPECT_GT(failing_rungs, 0) << "a 1-byte budget let mxm through";
  }
}

TEST_F(GovernorFault, CancelFromAnotherThread) {
  // The documented contract: GxB_Context_cancel is safe from any thread
  // while another thread is inside a call under that context, and the flag
  // is sticky until GxB_Context_reset.
  std::atomic<bool> started{false};
  std::atomic<bool> saw_cancel{false};
  std::thread worker([&] {
    ASSERT_EQ(GxB_Context_engage(ctx_), GrB_SUCCESS);
    started.store(true);
    for (int k = 0; k < 1000000 && !saw_cancel.load(); ++k) {
      const GrB_Info info =
          GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                  a_, b_, nullptr);
      if (info == GxB_CANCELLED) {
        saw_cancel.store(true);
      } else {
        ASSERT_EQ(info, GrB_SUCCESS);
      }
    }
    ASSERT_EQ(GxB_Context_disengage(ctx_), GrB_SUCCESS);
  });
  while (!started.load()) std::this_thread::yield();
  ASSERT_EQ(GxB_Context_cancel(ctx_), GrB_SUCCESS);
  worker.join();
  EXPECT_TRUE(saw_cancel.load()) << "worker never observed the cancellation";

  // Sticky on this thread too (the fixture's engagement) ...
  bool flagged = false;
  ASSERT_EQ(GxB_Context_get_cancelled(&flagged, ctx_), GrB_SUCCESS);
  EXPECT_TRUE(flagged);
  EXPECT_EQ(GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a_, b_, nullptr),
            GxB_CANCELLED);
  // ... until reset.
  ASSERT_EQ(GxB_Context_reset(ctx_), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c_, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a_, b_, nullptr),
            GrB_SUCCESS);
  expect_all_valid(watch_all(), "cross-thread cancel", 0);
}

// --- forced-chunk governor soaks (C++ level) ------------------------------
// Chunk boundaries are unconditional poll points, so ForcedChunks(3) puts
// the trip inside the OpenMP region of every chunked kernel; the exception
// trap that ferries an injected bad_alloc out of the region must ferry
// CancelledError / TimeoutError the same way.

namespace {

template <class Out>
void cxx_governor_soak(const char* name, const std::function<void()>& op,
                       const Out& out, Governor::Trip kind) {
  Governor gov;
  {
    gb::platform::GovernorScope governed(&gov);
    ASSERT_NO_THROW(op()) << name << " failed under an idle governor";
  }
  const auto before = cxx_snapshot(out);
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    const std::size_t baseline = MemoryMeter::current_bytes();
    bool failed = false;
    {
      gb::platform::GovernorScope governed(&gov);
      ScopedTripAfter trip(n, kind);
      try {
        op();
      } catch (const gb::platform::CancelledError&) {
        EXPECT_EQ(kind, Governor::Trip::cancel) << name << " poll " << n;
        failed = true;
      } catch (const gb::platform::TimeoutError&) {
        EXPECT_EQ(kind, Governor::Trip::deadline) << name << " poll " << n;
        failed = true;
      }
    }
    if (!failed) return;  // survived every poll: done
    EXPECT_TRUE(gb::check(out, gb::CheckLevel::full).ok())
        << name << " corrupted its output tripping at poll " << n;
    EXPECT_EQ(cxx_snapshot(out), before)
        << name << " modified its output despite tripping at poll " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes after tripping at poll " << n;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace

TEST_F(KernelScratchFault, GovernorMxmGustavsonForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  cxx_governor_soak(
      "governed mxm/gustavson forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_, Governor::Trip::cancel);
}

TEST_F(KernelScratchFault, GovernorMxmDotMaskedForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::dot;
  cxx_governor_soak(
      "governed mxm<mask>/dot forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, b_, gb::no_accum, gb::plus_times<double>(), a_, b_, d);
      },
      c_, Governor::Trip::deadline);
}

TEST_F(KernelScratchFault, GovernorMxmHeapForcedChunks) {
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::heap;
  cxx_governor_soak(
      "governed mxm/heap forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::mxm(c_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                b_, d);
      },
      c_, Governor::Trip::cancel);
}

TEST_F(KernelScratchFault, GovernorEwiseSelectReduceForcedChunks) {
  cxx_governor_soak(
      "governed ewise_add forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::ewise_add(c_, gb::no_mask, gb::no_accum, gb::Plus{}, a_, b_);
      },
      c_, Governor::Trip::cancel);
  cxx_governor_soak(
      "governed select forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::select(c_, gb::no_mask, gb::no_accum, gb::SelTril{}, a_,
                   std::int64_t{0});
      },
      c_, Governor::Trip::deadline);
  cxx_governor_soak(
      "governed reduce forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::reduce(w_, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
                   a_);
      },
      w_, Governor::Trip::cancel);
}

TEST_F(KernelScratchFault, GovernorTransposeKroneckerForcedChunks) {
  cxx_governor_soak(
      "governed transpose forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        auto fresh = a_.dup();
        gb::transpose(c_, gb::no_mask, gb::no_accum, fresh);
      },
      c_, Governor::Trip::cancel);
  gb::Matrix<double> kc(36, 36);
  kc.set_element(35, 35, 1.5);
  kc.wait();
  cxx_governor_soak(
      "governed kronecker forced-chunks",
      [&] {
        gb::platform::ForcedChunks force(3);
        gb::kronecker(kc, gb::no_mask, gb::no_accum, gb::Times{}, a_, b_);
      },
      kc, Governor::Trip::cancel);
}

TEST_F(KernelScratchFault, GovernorMxvBothMethodsForcedChunks) {
  for (auto method : {gb::MxvMethod::push, gb::MxvMethod::pull}) {
    gb::Descriptor d;
    d.mxv = method;
    cxx_governor_soak(
        method == gb::MxvMethod::push ? "governed mxv/push forced-chunks"
                                      : "governed mxv/pull forced-chunks",
        [&] {
          gb::platform::ForcedChunks force(3);
          gb::mxv(w_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                  u_, d);
        },
        w_, Governor::Trip::cancel);
  }
}

// --- budget-aware method fallback -----------------------------------------

TEST(GovernorMxmFallback, AutoSelectFallsBackToHeapUnderTightBudget) {
  // A 65536-wide product whose auto-selection picks Gustavson (one A-row
  // with 8 entries defeats the heap heuristic's annz <= 4*arows test), but
  // whose Gustavson scratch (n * 9 bytes per worker ≈ 590 KiB+) cannot fit
  // a 256 KiB budget. The governor-aware selector must fail over to the
  // heap method up front and still produce the exact ungoverned result.
  const gb::Index n = 65536;
  gb::Matrix<double> a(n, n), b(n, n);
  for (gb::Index k = 0; k < 8; ++k) {
    a.set_element(0, k, static_cast<double>(k + 1));
    b.set_element(k, 2 * k, 1.5);
  }
  a.wait();
  b.wait();

  gb::Matrix<double> want(n, n);
  const gb::MxmMethod ungoverned = gb::mxm(
      want, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, b);
  EXPECT_EQ(ungoverned, gb::MxmMethod::gustavson)
      << "fixture no longer auto-selects gustavson; fallback test is moot";

  Governor gov;
  gov.set_budget(std::size_t{256} * 1024);
  gb::Matrix<double> out(n, n);
  gb::MxmMethod governed = gb::MxmMethod::gustavson;
  {
    gb::platform::GovernorScope governed_scope(&gov);
    governed = gb::mxm(out, gb::no_mask, gb::no_accum,
                       gb::plus_times<double>(), a, b);
  }
  EXPECT_EQ(governed, gb::MxmMethod::heap)
      << "tight budget did not divert auto-selection to the heap method";
  EXPECT_EQ(cxx_snapshot(out), cxx_snapshot(want))
      << "fallback method changed the result";

  // An explicit descriptor choice is honoured — and trips the budget
  // honestly instead of being silently rewritten. The ungoverned run above
  // left every worker's scratch pool warm, which would let Gustavson run
  // without a single metered allocation; drain the pools so the dense
  // accumulator has to be admitted (and charged) afresh.
#pragma omp parallel
  gb::platform::Workspace::clear_thread();
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;
  gb::Matrix<double> out2(n, n);
  {
    gb::platform::GovernorScope governed_scope(&gov);
    EXPECT_THROW(gb::mxm(out2, gb::no_mask, gb::no_accum,
                         gb::plus_times<double>(), a, b, d),
                 std::bad_alloc);
  }
}

// --- storage-form conversions and dense-native commits under injection ----

namespace {

// Conversions never change content, so the contract after any injected
// failure is "content identical and validator-clean". The byte meter cannot
// be compared at an arbitrary failure point — a multi-step round trip
// legitimately changes the resident form (and its footprint) mid-way — so
// the leak check renormalises the form with an uninjected round trip first:
// any bytes still above the settled level were leaked by a temporary.
template <class Obj>
void conversion_soak(const char* name, Obj& o) {
  using gb::FormatMode;
  auto round_trip = [&] {
    o.set_format(FormatMode::sparse);
    o.set_format(FormatMode::bitmap);
    o.set_format(FormatMode::full);  // degrades to bitmap: holes exist
    o.set_format(FormatMode::auto_fmt);
    o.set_format(FormatMode::bitmap);
  };
  ASSERT_NO_THROW(round_trip()) << name << " failed without injection";
  const auto before = cxx_snapshot(o);
  // Reading the snapshot may materialise metered caches on a dense store
  // (tuple extraction goes through a sparse view); renormalise once more so
  // `settled` matches the loop's metering point, which also sits right
  // after a clean round trip.
  round_trip();
  const std::size_t settled = MemoryMeter::current_bytes();
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    bool failed = false;
    {
      ScopedFailAfter guard(n);
      try {
        round_trip();
      } catch (const std::bad_alloc&) {
        failed = true;
      }
    }
    EXPECT_TRUE(gb::check(o, gb::CheckLevel::full).ok())
        << name << " corrupted the object failing at allocation " << n;
    EXPECT_EQ(cxx_snapshot(o), before)
        << name << " changed content converting at allocation " << n;
    round_trip();  // renormalise the resident form before metering
    EXPECT_EQ(MemoryMeter::current_bytes(), settled)
        << name << " leaked metered bytes after failing at allocation " << n;
    if (!failed) return;
  }
  ADD_FAILURE() << name << " never completed under injection";
}

}  // namespace

TEST_F(KernelScratchFault, MatrixFormatConversionRoundTrip) {
  conversion_soak("matrix form round-trip", a_);
}

TEST_F(KernelScratchFault, VectorFormatConversionRoundTrip) {
  conversion_soak("vector form round-trip", u_);
}

TEST_F(KernelScratchFault, MxvPullBitmapNativeOutput) {
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::pull;
  w_.set_format(gb::FormatMode::bitmap);
  cxx_soak(
      "mxv/pull bitmap-native output",
      [&] {
        gb::mxv(w_, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a_,
                u_, d);
      },
      w_);
  EXPECT_NE(w_.format(), gb::Format::sparse);
}

TEST_F(KernelScratchFault, AssignScalarAllFullNative) {
  w_.set_format(gb::FormatMode::full);
  cxx_soak(
      "vector assign_scalar ALL full-native",
      [&] {
        gb::assign_scalar(w_, gb::no_mask, gb::no_accum, 2.5,
                          gb::IndexSel::all(w_.size()));
      },
      w_);
  EXPECT_EQ(w_.format(), gb::Format::full);
}

TEST_F(KernelScratchFault, MatrixAssignScalarAllFullNative) {
  c_.set_format(gb::FormatMode::full);
  cxx_soak(
      "matrix assign_scalar ALL full-native",
      [&] {
        gb::assign_scalar(c_, gb::no_mask, gb::no_accum, -3.0,
                          gb::IndexSel::all(6), gb::IndexSel::all(6));
      },
      c_);
  EXPECT_EQ(c_.format(), gb::Format::full);
}

TEST_F(KernelScratchFault, TransposeDenseNative) {
  a_.set_format(gb::FormatMode::bitmap);
  c_.set_format(gb::FormatMode::bitmap);
  cxx_soak(
      "transpose dense-native",
      [&] { gb::transpose(c_, gb::no_mask, gb::no_accum, a_); }, c_);
}

TEST_F(KernelScratchFault, ApplyDenseNative) {
  a_.set_format(gb::FormatMode::bitmap);
  c_.set_format(gb::FormatMode::bitmap);
  cxx_soak(
      "apply dense-native",
      [&] {
        gb::apply(
            c_, gb::no_mask, gb::no_accum, [](double x) { return x + 1.0; },
            a_);
      },
      c_);
}

// --- In-place masked writes --------------------------------------------------
// A plain masked write into a bitmap or full vector stores straight into its
// arrays. Everything that can fail — polls, the scratch lists, and the
// presence map a full vector needs before it can lose an entry — runs before
// the first store, so an injected bad_alloc or a governor trip at any point
// must leave the vector bit-identical, in its storage form, with the meter
// back at baseline. Each attempt starts from a fresh copy of `start`, so the
// failing path is the in-place one every time (a successful write can change
// the form, e.g. full -> bitmap).

namespace {

using testutil::Form;
using testutil::random_vector_in;

enum class InPlaceFault { alloc, trip };

template <class Op>
void in_place_soak(const char* name, const gb::Vector<double>& start, Op op,
                   InPlaceFault fault) {
  ASSERT_TRUE(start.is_dense_rep()) << name;
  constexpr std::uint64_t kMaxN = 100000;
  for (std::uint64_t n = 0; n < kMaxN; ++n) {
    gb::Vector<double> w = start;
    const auto before = cxx_snapshot(w);
    const bool was_full = w.is_full_rep();
    const std::size_t baseline = MemoryMeter::current_bytes();
    bool failed = false;
    if (fault == InPlaceFault::alloc) {
      ScopedFailAfter guard(n);
      try {
        op(w);
      } catch (const std::bad_alloc&) {
        failed = true;
      }
    } else {
      Governor gov;
      gb::platform::GovernorScope governed(&gov);
      ScopedTripAfter trip(n, Governor::Trip::cancel);
      try {
        op(w);
      } catch (const gb::platform::CancelledError&) {
        failed = true;
      }
    }
    if (!failed) {
      EXPECT_GT(n, 0u) << name << " never reached a fault point";
      EXPECT_TRUE(w.is_dense_rep()) << name << " left the dense form";
      EXPECT_TRUE(gb::check(w, gb::CheckLevel::full).ok()) << name;
      return;
    }
    EXPECT_TRUE(gb::check(w, gb::CheckLevel::full).ok())
        << name << " corrupted its output failing at " << n;
    EXPECT_EQ(cxx_snapshot(w), before)
        << name << " modified its output despite failing at " << n;
    EXPECT_EQ(w.is_full_rep(), was_full) << name << " at " << n;
    EXPECT_EQ(MemoryMeter::current_bytes(), baseline)
        << name << " leaked metered bytes after failing at " << n;
  }
  ADD_FAILURE() << name << " never completed under injection";
}

}  // namespace

TEST(InPlaceMaskedWriteFault, EveryAllocationAndEveryPoll) {
  // 3000 positions: the polls every 1024 mask entries and the growth of the
  // scratch lists both sit on the failure path several times.
  const gb::Index n = 3000;
  const auto bitmap_w = random_vector_in(n, 0.5, 11, Form::bitmap_pref);
  const auto full_w = random_vector_in(n, 1.0, 12, Form::full);
  ASSERT_TRUE(full_w.is_full_rep());
  auto sparse_mask = testutil::random_vector(n, 0.6, 13);
  sparse_mask.set_format(gb::FormatMode::sparse);
  const auto bitmap_mask = random_vector_in(n, 0.6, 14, Form::bitmap_pref);
  auto u = testutil::random_vector(n, 0.3, 15);
  u.set_format(gb::FormatMode::sparse);

  for (auto fault : {InPlaceFault::alloc, InPlaceFault::trip}) {
    in_place_soak(
        "assign_scalar<sparse mask> accum into bitmap", bitmap_w,
        [&](gb::Vector<double>& w) {
          gb::assign_scalar(w, sparse_mask, gb::Plus{}, 2.0,
                            gb::IndexSel::all(n));
        },
        fault);
    in_place_soak(
        "assign_scalar<bitmap mask,s> into full", full_w,
        [&](gb::Vector<double>& w) {
          gb::assign_scalar(w, bitmap_mask, gb::no_accum, -1.0,
                            gb::IndexSel::all(n), gb::desc_s);
        },
        fault);
    // Mask positions u lacks delete entries of the full vector: its
    // presence map must be materialised before the first store.
    in_place_soak(
        "apply<sparse mask> deleting from full", full_w,
        [&](gb::Vector<double>& w) {
          gb::apply(w, sparse_mask, gb::no_accum, gb::Identity{}, u);
        },
        fault);
    in_place_soak(
        "apply<bitmap mask> accum into bitmap", bitmap_w,
        [&](gb::Vector<double>& w) {
          gb::apply(w, bitmap_mask, gb::Plus{}, gb::Identity{}, u);
        },
        fault);
  }
}

TEST(InPlaceMaskedWriteFault, MaskedPushIntoBitmap) {
  // The push kernel keeps its accumulator at size between calls; a failure
  // inside it must hand the buffers back cleared, and the next clean call
  // must still give the same answer as the first.
  const gb::Index n = 300;
  const auto a = testutil::random_matrix(n, n, 0.02, 21);
  auto u = testutil::random_vector(n, 0.05, 22);
  u.set_format(gb::FormatMode::sparse);
  const auto mask = random_vector_in(n, 0.5, 23, Form::bitmap_pref);
  const auto start = random_vector_in(n, 0.4, 24, Form::bitmap_pref);
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::push;
  auto op = [&](gb::Vector<double>& w) {
    gb::vxm(w, mask, gb::no_accum, gb::plus_times<double>(), u, a, d);
  };
  gb::Vector<double> want = start;
  op(want);
  for (auto fault : {InPlaceFault::alloc, InPlaceFault::trip}) {
    in_place_soak("vxm<mask>/push into bitmap", start, op, fault);
    gb::Vector<double> again = start;
    op(again);
    EXPECT_EQ(cxx_snapshot(again), cxx_snapshot(want));
  }
}
