// The C API front end (§II-B architecture): error-code mapping, object
// lifetime, operations — culminating in the paper's Fig. 2(d): the
// level-BFS written verbatim against the C API, validated against both the
// C++ LAGraph implementation and the textbook reference.
#include <gtest/gtest.h>

#include "capi/capi_internal.hpp"
#include "capi/graphblas_c.h"
#include "capi/lagraph_c.h"
#include "graphblas/validate.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "reference/simple_graph.hpp"

TEST(CApi, LifetimeAndElements) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 4, 5), GrB_SUCCESS);
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Matrix_nrows(&n, a), GrB_SUCCESS);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(GrB_Matrix_ncols(&n, a), GrB_SUCCESS);
  EXPECT_EQ(n, 5u);

  EXPECT_EQ(GrB_Matrix_setElement_FP64(a, 2.5, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&n, a), GrB_SUCCESS);
  EXPECT_EQ(n, 1u);
  double x = 0.0;
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(x, 2.5);
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a, 0, 0), GrB_NO_VALUE);
  EXPECT_EQ(GrB_Matrix_removeElement(a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&n, a), GrB_SUCCESS);
  EXPECT_EQ(n, 0u);

  EXPECT_EQ(GrB_Matrix_free(&a), GrB_SUCCESS);
  EXPECT_EQ(a, nullptr);
}

TEST(CApi, ErrorCodeMapping) {
  // API errors: explicit front-end checks.
  EXPECT_EQ(GrB_Matrix_new(nullptr, 2, 2), GrB_NULL_POINTER);

  // Execution errors: back-end exceptions mapped by the try/catch wrapper.
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 2, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_setElement_FP64(a, 1.0, 5, 0), GrB_INVALID_INDEX);

  GrB_Matrix b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&b, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 2, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, nullptr),
            GrB_DIMENSION_MISMATCH);
  GrB_Matrix_free(&a);
  GrB_Matrix_free(&b);
  GrB_Matrix_free(&c);
}

TEST(CApi, BuildAndExtractTuples) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 3, 3), GrB_SUCCESS);
  GrB_Index rows[] = {0, 1, 0};
  GrB_Index cols[] = {1, 2, 1};
  double vals[] = {1.0, 2.0, 3.0};
  ASSERT_EQ(GrB_Matrix_build_FP64(a, rows, cols, vals, 3, GrB_PLUS_FP64),
            GrB_SUCCESS);
  GrB_Index n = 0;
  GrB_Matrix_nvals(&n, a);
  EXPECT_EQ(n, 2u);  // duplicate (0,1) combined

  GrB_Index out_r[4], out_c[4];
  double out_v[4];
  GrB_Index cap = 1;
  EXPECT_EQ(GrB_Matrix_extractTuples_FP64(out_r, out_c, out_v, &cap, a),
            GrB_INSUFFICIENT_SPACE);
  cap = 4;
  ASSERT_EQ(GrB_Matrix_extractTuples_FP64(out_r, out_c, out_v, &cap, a),
            GrB_SUCCESS);
  EXPECT_EQ(cap, 2u);
  EXPECT_EQ(out_v[0], 4.0);  // 1 + 3
  GrB_Matrix_free(&a);
}

TEST(CApi, MxmMatchesCppLayer) {
  auto rnd = lagraph::random_matrix(8, 8, 20, 5);
  GrB_Matrix a = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 8, 8), GrB_SUCCESS);
  std::vector<gb::Index> r, cc;
  std::vector<double> v;
  rnd.extract_tuples(r, cc, v);
  ASSERT_EQ(GrB_Matrix_build_FP64(a, r.data(), cc.data(), v.data(), r.size(),
                                  GrB_SECOND_FP64),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, a, nullptr),
            GrB_SUCCESS);

  gb::Matrix<double> expect(8, 8);
  gb::mxm(expect, gb::no_mask, gb::no_accum, gb::plus_times<double>(), rnd,
          rnd);
  std::vector<gb::Index> er, ec;
  std::vector<double> ev;
  expect.extract_tuples(er, ec, ev);

  GrB_Index cap = 64;
  std::vector<GrB_Index> gr(64), gc(64);
  std::vector<double> gv(64);
  ASSERT_EQ(
      GrB_Matrix_extractTuples_FP64(gr.data(), gc.data(), gv.data(), &cap, c),
      GrB_SUCCESS);
  ASSERT_EQ(cap, er.size());
  for (std::size_t k = 0; k < cap; ++k) {
    EXPECT_EQ(gr[k], er[k]);
    EXPECT_EQ(gc[k], ec[k]);
    EXPECT_EQ(gv[k], ev[k]);
  }
  GrB_Matrix_free(&a);
  GrB_Matrix_free(&c);
}

TEST(CApi, DescriptorSettings) {
  GrB_Descriptor d = nullptr;
  ASSERT_EQ(GrB_Descriptor_new(&d), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_OUTP, GrB_REPLACE), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_MASK, GrB_COMP_STRUCTURE), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_INP0, GrB_TRAN), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_OUTP, GrB_TRAN), GrB_INVALID_VALUE);
  GrB_Descriptor_free(&d);
}

// --- Fig. 2(d): the paper's C API BFS, transcribed ---------------------------

namespace {

/// The level-BFS of Fig. 2(d): levels[frontier] = depth;
/// frontier<¬levels,replace> = graph' lor.land frontier.
GrB_Info c_api_bfs(GrB_Matrix graph, GrB_Vector frontier, GrB_Vector* levels) {
  GrB_Index n, nvals;
  GrB_Matrix_nrows(&n, graph);
  GrB_Vector_nvals(&nvals, frontier);

  GrB_Descriptor desc_tran_scmp_replace;
  GrB_Descriptor_new(&desc_tran_scmp_replace);
  GrB_Descriptor_set(desc_tran_scmp_replace, GrB_INP0, GrB_TRAN);
  GrB_Descriptor_set(desc_tran_scmp_replace, GrB_MASK, GrB_COMP_STRUCTURE);
  GrB_Descriptor_set(desc_tran_scmp_replace, GrB_OUTP, GrB_REPLACE);
  GrB_Descriptor desc_struct;
  GrB_Descriptor_new(&desc_struct);
  GrB_Descriptor_set(desc_struct, GrB_MASK, GrB_STRUCTURE);

  GrB_Index depth = 0;
  while (nvals > 0) {
    ++depth;
    GrB_Vector_assign_FP64(*levels, frontier, GrB_NULL_ACCUM,
                           static_cast<double>(depth), GrB_ALL, n,
                           desc_struct);
    GrB_mxv(frontier, *levels, GrB_NULL_ACCUM, GrB_LOR_LAND_SEMIRING, graph,
            frontier, desc_tran_scmp_replace);
    GrB_Vector_nvals(&nvals, frontier);
  }
  GrB_Descriptor_free(&desc_tran_scmp_replace);
  GrB_Descriptor_free(&desc_struct);
  return GrB_SUCCESS;
}

}  // namespace

TEST(CApi, Fig2dBfsMatchesReference) {
  auto adj = lagraph::rmat(8, 6, 44);
  auto sg = ref::SimpleGraph::from_matrix(adj);
  const gb::Index n = adj.nrows();

  GrB_Matrix graph = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&graph, n, n), GrB_SUCCESS);
  std::vector<gb::Index> r, c;
  std::vector<double> v;
  adj.extract_tuples(r, c, v);
  ASSERT_EQ(GrB_Matrix_build_FP64(graph, r.data(), c.data(), v.data(),
                                  r.size(), GrB_SECOND_FP64),
            GrB_SUCCESS);

  // Pick a source inside the giant component.
  gb::Index source = 0;
  {
    std::int64_t best = -1;
    for (gb::Index u = 0; u < n; ++u) {
      auto d = static_cast<std::int64_t>(sg.adj[u].size());
      if (d > best) {
        best = d;
        source = u;
      }
    }
  }

  GrB_Vector frontier = nullptr, levels = nullptr;
  ASSERT_EQ(GrB_Vector_new(&frontier, n), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&levels, n), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement_FP64(frontier, 1.0, source), GrB_SUCCESS);

  ASSERT_EQ(c_api_bfs(graph, frontier, &levels), GrB_SUCCESS);

  auto want = ref::bfs_levels(sg, source);
  for (gb::Index u = 0; u < n; ++u) {
    double lvl = 0.0;
    GrB_Info info = GrB_Vector_extractElement_FP64(&lvl, levels, u);
    if (want[u] == ref::kUnreached) {
      EXPECT_EQ(info, GrB_NO_VALUE) << "vertex " << u;
    } else {
      ASSERT_EQ(info, GrB_SUCCESS) << "vertex " << u;
      // Fig. 2(d) levels start at 1 for the source.
      EXPECT_EQ(static_cast<std::int64_t>(lvl), want[u] + 1) << "vertex " << u;
    }
  }
  GrB_Matrix_free(&graph);
  GrB_Vector_free(&frontier);
  GrB_Vector_free(&levels);
}

TEST(CApi, ReduceAndApply) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, 5), GrB_SUCCESS);
  GrB_Vector_setElement_FP64(v, -3.0, 1);
  GrB_Vector_setElement_FP64(v, 4.0, 3);

  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_apply(w, nullptr, GrB_NULL_ACCUM, GrB_ABS_FP64, v,
                             nullptr),
            GrB_SUCCESS);
  double total = 0.0;
  ASSERT_EQ(GrB_Vector_reduce_FP64(&total, GrB_PLUS_MONOID_FP64, w),
            GrB_SUCCESS);
  EXPECT_EQ(total, 7.0);

  double mx = 0.0;
  ASSERT_EQ(GrB_Vector_reduce_FP64(&mx, GrB_MAX_MONOID_FP64, v), GrB_SUCCESS);
  EXPECT_EQ(mx, 4.0);
  GrB_Vector_free(&v);
  GrB_Vector_free(&w);
}

TEST(CApi, TransposeExtractEwise) {
  GrB_Matrix a = nullptr, t = nullptr, s = nullptr, e = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 4, 4), GrB_SUCCESS);
  GrB_Matrix_setElement_FP64(a, 1.0, 0, 2);
  GrB_Matrix_setElement_FP64(a, 2.0, 3, 1);

  // Transpose.
  ASSERT_EQ(GrB_Matrix_new(&t, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_transpose(t, nullptr, GrB_NULL_ACCUM, a, nullptr),
            GrB_SUCCESS);
  double x = 0.0;
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, t, 2, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 1.0);

  // Sub-matrix extract with GrB_ALL rows.
  GrB_Index cols[] = {2, 1};
  ASSERT_EQ(GrB_Matrix_new(&s, 4, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_extract(s, nullptr, GrB_NULL_ACCUM, a, GrB_ALL, 4,
                               cols, 2, nullptr),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, s, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 1.0);  // a(0,2) landed at (0,0)
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, s, 3, 1), GrB_SUCCESS);
  EXPECT_EQ(x, 2.0);

  // eWiseAdd with itself doubles values on the union pattern.
  ASSERT_EQ(GrB_Matrix_new(&e, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_eWiseAdd(e, nullptr, GrB_NULL_ACCUM, GrB_PLUS_FP64, a,
                                a, nullptr),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, e, 3, 1), GrB_SUCCESS);
  EXPECT_EQ(x, 4.0);
  // eWiseMult over the intersection.
  ASSERT_EQ(GrB_Matrix_eWiseMult(e, nullptr, GrB_NULL_ACCUM, GrB_TIMES_FP64,
                                 a, a, nullptr),
            GrB_SUCCESS);
  GrB_Index nv = 0;
  GrB_Matrix_nvals(&nv, e);
  EXPECT_EQ(nv, 2u);

  GrB_Matrix_free(&a);
  GrB_Matrix_free(&t);
  GrB_Matrix_free(&s);
  GrB_Matrix_free(&e);
}

TEST(CApi, ReduceVectorAndVectorOps) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 3, 3), GrB_SUCCESS);
  GrB_Matrix_setElement_FP64(a, 1.0, 0, 0);
  GrB_Matrix_setElement_FP64(a, 2.0, 0, 2);
  GrB_Matrix_setElement_FP64(a, 5.0, 2, 1);

  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_reduce_Vector(w, nullptr, GrB_NULL_ACCUM,
                                     GrB_PLUS_MONOID_FP64, a, nullptr),
            GrB_SUCCESS);
  double x = 0.0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 3.0);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 1), GrB_NO_VALUE);

  // Vector eWise ops and build.
  GrB_Vector u = nullptr, v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, 3), GrB_SUCCESS);
  GrB_Index idx[] = {0, 1};
  double vals[] = {2.0, 3.0};
  ASSERT_EQ(GrB_Vector_build_FP64(u, idx, vals, 2, GrB_PLUS_FP64),
            GrB_SUCCESS);
  GrB_Vector_setElement_FP64(v, 10.0, 1);
  GrB_Vector ew = nullptr;
  ASSERT_EQ(GrB_Vector_new(&ew, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_eWiseMult(ew, nullptr, GrB_NULL_ACCUM, GrB_TIMES_FP64,
                                 u, v, nullptr),
            GrB_SUCCESS);
  GrB_Index nv = 0;
  GrB_Vector_nvals(&nv, ew);
  EXPECT_EQ(nv, 1u);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, ew, 1), GrB_SUCCESS);
  EXPECT_EQ(x, 30.0);

  GrB_Matrix_free(&a);
  GrB_Vector_free(&w);
  GrB_Vector_free(&u);
  GrB_Vector_free(&v);
  GrB_Vector_free(&ew);
}

TEST(CApiError, NullPointerPaths) {
  // Uninitialized (null) handles are API errors detected before dispatch.
  GrB_Index n = 0;
  double x = 0.0;
  EXPECT_EQ(GrB_Matrix_nrows(&n, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Matrix_nrows(nullptr, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Vector_size(&n, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, nullptr, 0, 0),
            GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Vector_setElement_FP64(nullptr, 1.0, 0), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Matrix_error(nullptr, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Vector_error(nullptr, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GxB_Matrix_check(nullptr, GxB_CHECK_FULL), GrB_NULL_POINTER);
  EXPECT_EQ(GxB_Vector_check(nullptr, GxB_CHECK_FULL), GrB_NULL_POINTER);

  const char* msg = nullptr;
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 2, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_error(&msg, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Matrix_error(nullptr, a), GrB_NULL_POINTER);
  GrB_Matrix_free(&a);
}

TEST(CApiError, MatrixErrorRecordsLastFailure) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, 2, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 3, 3), GrB_SUCCESS);

  // A fresh object reports an empty message.
  const char* msg = nullptr;
  ASSERT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_STREQ(msg, "");

  // The error is recorded on the output object of the failing call.
  ASSERT_EQ(GrB_mxm(c, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, nullptr),
            GrB_DIMENSION_MISMATCH);
  ASSERT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(std::string(msg).find("dimension"), std::string::npos) << msg;

  // A subsequent successful call on the same object clears the message.
  ASSERT_EQ(GrB_mxm(c, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, a, nullptr),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  EXPECT_STREQ(msg, "");

  GrB_Matrix_free(&a);
  GrB_Matrix_free(&b);
  GrB_Matrix_free(&c);
}

TEST(CApiError, VectorErrorRecordsLastFailure) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, 4), GrB_SUCCESS);

  ASSERT_EQ(GrB_Vector_setElement_FP64(v, 1.0, 99), GrB_INVALID_INDEX);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_Vector_error(&msg, v), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(std::string(msg).find("invalid_index"), std::string::npos) << msg;

  ASSERT_EQ(GrB_Vector_setElement_FP64(v, 1.0, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_error(&msg, v), GrB_SUCCESS);
  EXPECT_STREQ(msg, "");
  GrB_Vector_free(&v);
}

TEST(CApiError, ChecksPassOnHealthyObjects) {
  GrB_Matrix a = nullptr;
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, 4), GrB_SUCCESS);
  GrB_Matrix_setElement_FP64(a, 1.5, 0, 3);
  GrB_Matrix_setElement_FP64(a, -2.0, 2, 1);
  GrB_Vector_setElement_FP64(v, 7.0, 1);

  // Both levels, both with pending work and after wait.
  EXPECT_EQ(GxB_Matrix_check(a, GxB_CHECK_QUICK), GrB_SUCCESS);
  EXPECT_EQ(GxB_Matrix_check(a, GxB_CHECK_FULL), GrB_SUCCESS);
  EXPECT_EQ(GxB_Vector_check(v, GxB_CHECK_QUICK), GrB_SUCCESS);
  EXPECT_EQ(GxB_Vector_check(v, GxB_CHECK_FULL), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_wait(a), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_wait(v), GrB_SUCCESS);
  EXPECT_EQ(GxB_Matrix_check(a, GxB_CHECK_FULL), GrB_SUCCESS);
  EXPECT_EQ(GxB_Vector_check(v, GxB_CHECK_FULL), GrB_SUCCESS);

  GrB_Matrix_free(&a);
  GrB_Vector_free(&v);
}

TEST(CApi, AccumAndMaskedAssign) {
  GrB_Vector w = nullptr, mask = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&mask, 4), GrB_SUCCESS);
  GrB_Vector_setElement_FP64(w, 10.0, 0);
  GrB_Vector_setElement_FP64(mask, 1.0, 0);
  GrB_Vector_setElement_FP64(mask, 1.0, 2);

  // w<mask> += 5 everywhere.
  ASSERT_EQ(GrB_Vector_assign_FP64(w, mask, GrB_PLUS_FP64, 5.0, GrB_ALL, 4,
                                   nullptr),
            GrB_SUCCESS);
  double x = 0.0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 15.0);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 2), GrB_SUCCESS);
  EXPECT_EQ(x, 5.0);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 1), GrB_NO_VALUE);
  GrB_Vector_free(&w);
  GrB_Vector_free(&mask);
}

// ---------------------------------------------------------------------------
// Per-object error attribution (C API §4.5): when an *input* object is
// structurally invalid, the failing call must record its message on that
// object — not on the output the call happens to name first. These tests
// hand-corrupt objects through the opaque handle (white-box, via
// capi_internal.hpp + DebugAccess) with header-detectable, repairable
// mutations.

TEST(CApiError, CorruptMaskRecordsErrorOnMask) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr, mask = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&mask, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(a, 1.0, 0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(b, 2.0, 1, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(mask, 1.0, 0, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_wait(mask), GrB_SUCCESS);

  // Header-detectable corruption: an index entry with no matching value.
  auto& ms = gb::DebugAccess<double>::store(mask->m);
  ms.i.push_back(0);

  EXPECT_EQ(GrB_mxm(c, mask, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, nullptr),
            GrB_INVALID_OBJECT);

  // The message lands on the MASK, the offending object...
  const char* msg = nullptr;
  ASSERT_EQ(GrB_Matrix_error(&msg, mask), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(std::string(msg).find("index and value array sizes differ"),
            std::string::npos)
      << msg;
  // ...and the output, which never ran, is untouched.
  ASSERT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  EXPECT_STREQ(msg, "");

  // Repair the mask; the same call now goes through.
  ms.i.pop_back();
  EXPECT_EQ(GrB_mxm(c, mask, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, nullptr),
            GrB_SUCCESS);

  GrB_Matrix_free(&a);
  GrB_Matrix_free(&b);
  GrB_Matrix_free(&c);
  GrB_Matrix_free(&mask);
}

TEST(CApiError, CorruptOperandRecordsErrorOnOperand) {
  GrB_Matrix a = nullptr;
  GrB_Vector u = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&u, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(a, 1.0, 0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement_FP64(u, 3.0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_wait(u), GrB_SUCCESS);

  // Corrupt the vector operand: sparse index array outgrows the values.
  auto& ind = gb::DebugAccess<double>::ind(u->v);
  const bool was_sparse = !ind.empty();
  if (was_sparse) {
    ind.push_back(0);
  } else {
    gb::DebugAccess<double>::dpresent(u->v).push_back(1);
  }

  EXPECT_EQ(GrB_mxv(w, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, nullptr),
            GrB_INVALID_OBJECT);

  const char* msg = nullptr;
  ASSERT_EQ(GrB_Vector_error(&msg, u), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_STRNE(msg, "");  // the operand carries the report
  ASSERT_EQ(GrB_Vector_error(&msg, w), GrB_SUCCESS);
  EXPECT_STREQ(msg, "");  // the output does not

  // Repair; the operation succeeds again.
  if (was_sparse) {
    ind.pop_back();
  } else {
    gb::DebugAccess<double>::dpresent(u->v).pop_back();
  }
  EXPECT_EQ(GrB_mxv(w, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, nullptr),
            GrB_SUCCESS);
  double x = 0.0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, w, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 3.0);

  GrB_Matrix_free(&a);
  GrB_Vector_free(&u);
  GrB_Vector_free(&w);
}

TEST(CApiError, CorruptOutputCaughtBeforeDispatch) {
  // The output object is validated too: a corrupt C must fail cleanly with
  // the message on C rather than crash inside a kernel.
  GrB_Matrix a = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 2, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, 2, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement_FP64(c, 1.0, 0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_wait(c), GrB_SUCCESS);

  auto& cs = gb::DebugAccess<double>::store(c->m);
  cs.i.push_back(1);

  EXPECT_EQ(GrB_transpose(c, nullptr, GrB_NULL_ACCUM, a, nullptr),
            GrB_INVALID_OBJECT);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_Matrix_error(&msg, c), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_STRNE(msg, "");

  cs.i.pop_back();
  EXPECT_EQ(GrB_transpose(c, nullptr, GrB_NULL_ACCUM, a, nullptr),
            GrB_SUCCESS);

  GrB_Matrix_free(&a);
  GrB_Matrix_free(&c);
}

TEST(CApi, RunnerSeesAResizedMatrix) {
  // A Runner reuses its graph while the matrix is unchanged; a resize is a
  // change. White-box: the matrix behind the handle is resized directly
  // (test_capi_c drives the same steps through GrB_Matrix_resize).
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, 8, 8), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < 8; ++i)
    ASSERT_EQ(GrB_Matrix_setElement_FP64(a, 1.0, i, i + 1), GrB_SUCCESS);
  LAGraph_Runner r = nullptr;
  ASSERT_EQ(LAGraph_Runner_new(&r), GrB_SUCCESS);
  GrB_Vector got = nullptr, want = nullptr;
  ASSERT_EQ(GrB_Vector_new(&got, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&want, 1), GrB_SUCCESS);
  ASSERT_EQ(LAGraph_Runner_bfs_level(got, r, a, 0), GrB_SUCCESS);
  EXPECT_EQ(got->v.size(), 8u);
  EXPECT_EQ(got->v.nvals(), 8u);

  for (const GrB_Index n : {GrB_Index{12}, GrB_Index{5}}) {
    a->m.resize(n, n);
    ASSERT_EQ(LAGraph_Runner_bfs_level(got, r, a, 0), GrB_SUCCESS);
    LAGraph_Runner fresh = nullptr;
    ASSERT_EQ(LAGraph_Runner_new(&fresh), GrB_SUCCESS);
    ASSERT_EQ(LAGraph_Runner_bfs_level(want, fresh, a, 0), GrB_SUCCESS);
    ASSERT_EQ(LAGraph_Runner_free(&fresh), GrB_SUCCESS);
    EXPECT_EQ(got->v.size(), n);
    std::vector<gb::Index> gi, wi;
    std::vector<double> gv, wv;
    got->v.extract_tuples(gi, gv);
    want->v.extract_tuples(wi, wv);
    EXPECT_EQ(gi, wi);
    EXPECT_EQ(gv, wv);
    EXPECT_EQ(gi.size(), std::min<GrB_Index>(n, 8));
  }

  LAGraph_Runner_free(&r);
  GrB_Vector_free(&got);
  GrB_Vector_free(&want);
  GrB_Matrix_free(&a);
}
