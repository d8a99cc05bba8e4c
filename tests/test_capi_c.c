/* A pure C11 translation unit against the GraphBLAS C API — §II-B's
 * fundamental promise: "The API methods are declared to have a C interface,
 * so that C user programs can bind to them as specified." This file is
 * compiled as C (not C++), links against the C++ back end, and exercises
 * the polymorphic macro layer (_Generic dispatch + argument-count
 * selection). It is a plain main() so no C++ test framework leaks in.
 */
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "capi/graphblas_c.h"
#include "capi/graphblas_poly.h"
#include "capi/lagraph_c.h"

static int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++failures;                                                       \
      fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
    }                                                                   \
  } while (0)

static void test_lifetime_polymorphic(void) {
  GrB_Matrix a = NULL;
  GrB_Vector v = NULL;
  CHECK(GrB_Matrix_new(&a, 4, 4) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&v, 4) == GrB_SUCCESS);

  /* Polymorphic setElement: 4 args -> matrix, 3 args -> vector. */
  CHECK(GrB_setElement(a, 2.5, 1, 2) == GrB_SUCCESS);
  CHECK(GrB_setElement(v, 7.0, 3) == GrB_SUCCESS);

  GrB_Index n = 0;
  CHECK(GrB_nvals(&n, a) == GrB_SUCCESS && n == 1);
  CHECK(GrB_nvals(&n, v) == GrB_SUCCESS && n == 1);

  double x = 0.0;
  CHECK(GrB_extractElement(&x, a, 1, 2) == GrB_SUCCESS && x == 2.5);
  CHECK(GrB_extractElement(&x, v, 3) == GrB_SUCCESS && x == 7.0);
  CHECK(GrB_extractElement(&x, v, 0) == GrB_NO_VALUE);

  CHECK(GrB_wait(a) == GrB_SUCCESS);
  CHECK(GrB_wait(v) == GrB_SUCCESS);

  /* Polymorphic free dispatches on the handle pointer type. */
  CHECK(GrB_free(&a) == GrB_SUCCESS && a == NULL);
  CHECK(GrB_free(&v) == GrB_SUCCESS && v == NULL);
}

static void test_polymorphic_operations(void) {
  GrB_Vector u = NULL, v = NULL, w = NULL;
  CHECK(GrB_Vector_new(&u, 3) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&v, 3) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&w, 3) == GrB_SUCCESS);
  CHECK(GrB_setElement(u, 2.0, 0) == GrB_SUCCESS);
  CHECK(GrB_setElement(u, 3.0, 1) == GrB_SUCCESS);
  CHECK(GrB_setElement(v, 10.0, 1) == GrB_SUCCESS);

  CHECK(GrB_eWiseAdd(w, NULL, GrB_NULL_ACCUM, GrB_PLUS_FP64, u, v, NULL) ==
        GrB_SUCCESS);
  double x = 0.0;
  CHECK(GrB_extractElement(&x, w, 1) == GrB_SUCCESS && x == 13.0);

  CHECK(GrB_eWiseMult(w, NULL, GrB_NULL_ACCUM, GrB_TIMES_FP64, u, v, NULL) ==
        GrB_SUCCESS);
  GrB_Index n = 0;
  CHECK(GrB_nvals(&n, w) == GrB_SUCCESS && n == 1);
  CHECK(GrB_extractElement(&x, w, 1) == GrB_SUCCESS && x == 30.0);

  CHECK(GrB_apply(w, NULL, GrB_NULL_ACCUM, GrB_AINV_FP64, u, NULL) ==
        GrB_SUCCESS);
  CHECK(GrB_extractElement(&x, w, 0) == GrB_SUCCESS && x == -2.0);

  CHECK(GrB_free(&u) == GrB_SUCCESS);
  CHECK(GrB_free(&v) == GrB_SUCCESS);
  CHECK(GrB_free(&w) == GrB_SUCCESS);
}

static void test_typed_variants(void) {
  /* Value-type _Generic dispatch: bool values route to the _BOOL variants,
   * integers to _INT64, floating point to _FP64 — all coercing through the
   * shared FP64 storage, so cross-typed reads see the same entry. */
  GrB_Matrix a = NULL;
  GrB_Vector v = NULL;
  CHECK(GrB_Matrix_new(&a, 3, 3) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&v, 3) == GrB_SUCCESS);

  bool b = true;
  int64_t k = 41;
  CHECK(GrB_setElement(a, b, 0, 1) == GrB_SUCCESS);
  CHECK(GrB_setElement(a, k, 1, 2) == GrB_SUCCESS);
  CHECK(GrB_setElement(a, 2, 2, 0) == GrB_SUCCESS); /* int literal -> INT64 */

  bool rb = false;
  int64_t rk = 0;
  double rd = 0.0;
  CHECK(GrB_extractElement(&rb, a, 0, 1) == GrB_SUCCESS && rb == true);
  CHECK(GrB_extractElement(&rk, a, 1, 2) == GrB_SUCCESS && rk == 41);
  CHECK(GrB_extractElement(&rd, a, 2, 0) == GrB_SUCCESS && rd == 2.0);
  /* Cross-typed reads of the same entries. */
  CHECK(GrB_extractElement(&rd, a, 0, 1) == GrB_SUCCESS && rd == 1.0);
  CHECK(GrB_extractElement(&rb, a, 1, 2) == GrB_SUCCESS && rb == true);
  CHECK(GrB_extractElement(&rk, a, 2, 0) == GrB_SUCCESS && rk == 2);

  /* A stored false is an explicit entry reading back as false, not
   * NO_VALUE — structure and value stay distinct. */
  CHECK(GrB_Matrix_setElement_BOOL(a, false, 0, 0) == GrB_SUCCESS);
  CHECK(GrB_Matrix_extractElement_BOOL(&rb, a, 0, 0) == GrB_SUCCESS &&
        rb == false);
  CHECK(GrB_Matrix_extractElement_BOOL(&rb, a, 2, 2) == GrB_NO_VALUE);

  /* Vector forms through the 3-argument arm of the polymorphic macros. */
  CHECK(GrB_setElement(v, b, 0) == GrB_SUCCESS);
  CHECK(GrB_setElement(v, (int64_t)9, 1) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&rb, v, 0) == GrB_SUCCESS && rb == true);
  CHECK(GrB_extractElement(&rk, v, 1) == GrB_SUCCESS && rk == 9);
  CHECK(GrB_extractElement(&rd, v, 1) == GrB_SUCCESS && rd == 9.0);

  /* Typed scalar assigns delegate to the FP64 storage as well. */
  CHECK(GrB_Vector_assign_BOOL(v, NULL, GrB_NULL_ACCUM, true, GrB_ALL, 3,
                               NULL) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&rb, v, 2) == GrB_SUCCESS && rb == true);
  CHECK(GrB_Vector_assign_INT64(v, NULL, GrB_NULL_ACCUM, 5, GrB_ALL, 3,
                                NULL) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&rk, v, 2) == GrB_SUCCESS && rk == 5);

  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&v) == GrB_SUCCESS);
}

static void test_runner_drivers(void) {
  /* The resumable-execution binding: configure a runner, drive PageRank
   * and BFS over a symmetric 8-ring, and read the telemetry back. */
  const GrB_Index n = 8;
  GrB_Matrix a = NULL;
  GrB_Vector rank = NULL, level = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i) {
    CHECK(GrB_setElement(a, 1.0, i, (i + 1) % n) == GrB_SUCCESS);
    CHECK(GrB_setElement(a, 1.0, (i + 1) % n, i) == GrB_SUCCESS);
  }
  CHECK(GrB_Vector_new(&rank, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&level, n) == GrB_SUCCESS);

  LAGraph_Runner r = NULL;
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_set_slice_ms(r, 50.0) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_set_max_slices(r, 0) == GrB_INVALID_VALUE);
  CHECK(LAGraph_Runner_set_max_slices(r, 100) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_set_retry(r, 3, 0.5, 2.0, 2.0) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_set_retry(r, -1, 0.5, 2.0, 2.0) == GrB_INVALID_VALUE);

  int32_t iters = 0;
  CHECK(LAGraph_Runner_pagerank(rank, r, a, 0.85, 1e-9, 100, &iters) ==
        GrB_SUCCESS);
  CHECK(iters > 0);
  double sum = 0.0;
  for (GrB_Index i = 0; i < n; ++i) {
    double x = 0.0;
    CHECK(GrB_extractElement(&x, rank, i) == GrB_SUCCESS);
    sum += x;
  }
  CHECK(fabs(sum - 1.0) < 1e-6); /* a PageRank vector is a distribution */

  int32_t slices = 0, retries = 0, degradations = 0;
  bool gave_up = true;
  LAGraph_StopReason stop = LAGraph_STOP_NONE;
  CHECK(LAGraph_Runner_stats(r, &slices, &retries, &degradations, &gave_up,
                             &stop) == GrB_SUCCESS);
  CHECK(slices >= 1);
  CHECK(!gave_up);
  CHECK(stop == LAGraph_STOP_CONVERGED);

  /* BFS levels are 0-based hop counts; on the ring both neighbours of the
   * source sit one hop out. */
  CHECK(LAGraph_Runner_bfs_level(level, r, a, 0) == GrB_SUCCESS);
  double hop = -1.0;
  CHECK(GrB_extractElement(&hop, level, 0) == GrB_SUCCESS && hop == 0.0);
  CHECK(GrB_extractElement(&hop, level, 1) == GrB_SUCCESS && hop == 1.0);
  CHECK(GrB_extractElement(&hop, level, n - 1) == GrB_SUCCESS && hop == 1.0);
  CHECK(GrB_extractElement(&hop, level, 4) == GrB_SUCCESS && hop == 4.0);

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS && r == NULL);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&rank) == GrB_SUCCESS);
  CHECK(GrB_free(&level) == GrB_SUCCESS);
}

static void test_runner_sssp_cc(void) {
  /* The SSSP and CC driven entry points over an 8-vertex graph made of two
   * disjoint 4-cycles (0-1-2-3 and 4-5-6-7), unit weights, symmetric. */
  const GrB_Index n = 8;
  GrB_Matrix a = NULL;
  GrB_Vector dist = NULL, labels = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index c = 0; c < 2; ++c) {
    const GrB_Index base = c * 4;
    for (GrB_Index i = 0; i < 4; ++i) {
      const GrB_Index u = base + i, v = base + (i + 1) % 4;
      CHECK(GrB_setElement(a, 1.0, u, v) == GrB_SUCCESS);
      CHECK(GrB_setElement(a, 1.0, v, u) == GrB_SUCCESS);
    }
  }
  CHECK(GrB_Vector_new(&dist, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&labels, n) == GrB_SUCCESS);

  LAGraph_Runner r = NULL;
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);

  /* Null-pointer contracts. */
  CHECK(LAGraph_Runner_sssp_bellman_ford(NULL, r, a, 0, NULL) ==
        GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_cc(NULL, r, a, NULL) == GrB_NULL_POINTER);

  /* SSSP from 0: its own 4-cycle is reachable (0,1,2,1 hops), the other
   * component is not (absent entries). */
  int32_t iters = 0;
  CHECK(LAGraph_Runner_sssp_bellman_ford(dist, r, a, 0, &iters) ==
        GrB_SUCCESS);
  CHECK(iters > 0);
  double d = -1.0;
  CHECK(GrB_extractElement(&d, dist, 0) == GrB_SUCCESS && d == 0.0);
  CHECK(GrB_extractElement(&d, dist, 1) == GrB_SUCCESS && d == 1.0);
  CHECK(GrB_extractElement(&d, dist, 2) == GrB_SUCCESS && d == 2.0);
  CHECK(GrB_extractElement(&d, dist, 3) == GrB_SUCCESS && d == 1.0);
  CHECK(GrB_extractElement(&d, dist, 5) == GrB_NO_VALUE);

  int32_t slices = 0;
  bool gave_up = true;
  LAGraph_StopReason stop = LAGraph_STOP_NONE;
  CHECK(LAGraph_Runner_stats(r, &slices, NULL, NULL, &gave_up, &stop) ==
        GrB_SUCCESS);
  CHECK(slices >= 1);
  CHECK(!gave_up);

  /* CC: each vertex labels with the minimum id of its component. */
  int32_t rounds = 0;
  CHECK(LAGraph_Runner_cc(labels, r, a, &rounds) == GrB_SUCCESS);
  CHECK(rounds > 0);
  for (GrB_Index v = 0; v < n; ++v) {
    double lab = -1.0;
    CHECK(GrB_extractElement(&lab, labels, v) == GrB_SUCCESS);
    CHECK(lab == (v < 4 ? 0.0 : 4.0));
  }

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS && r == NULL);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&dist) == GrB_SUCCESS);
  CHECK(GrB_free(&labels) == GrB_SUCCESS);
}

static void test_runner_clustering_bc(void) {
  /* The MCL, peer-pressure, and betweenness driven entry points over the
   * same two disjoint 4-cycles: both clusterings must separate the two
   * components, and bc from sources {0, 4} must score the cycle vertices
   * symmetrically. */
  const GrB_Index n = 8;
  GrB_Matrix a = NULL;
  GrB_Vector labels = NULL, centrality = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index c = 0; c < 2; ++c) {
    const GrB_Index base = c * 4;
    for (GrB_Index i = 0; i < 4; ++i) {
      const GrB_Index u = base + i, v = base + (i + 1) % 4;
      CHECK(GrB_setElement(a, 1.0, u, v) == GrB_SUCCESS);
      CHECK(GrB_setElement(a, 1.0, v, u) == GrB_SUCCESS);
    }
  }
  CHECK(GrB_Vector_new(&labels, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&centrality, n) == GrB_SUCCESS);

  LAGraph_Runner r = NULL;
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);

  /* Null-pointer and argument contracts. */
  CHECK(LAGraph_Runner_mcl(NULL, r, a, 2.0, 100, 1e-6, NULL) ==
        GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_peer_pressure(NULL, r, a, 50, NULL) ==
        GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_bc(NULL, r, a, NULL, 0) == GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_bc(centrality, r, a, NULL, 2) == GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_mcl(labels, r, a, 0.5, 100, 1e-6, NULL) ==
        GrB_INVALID_VALUE);
  CHECK(LAGraph_Runner_peer_pressure(labels, r, a, 0, NULL) ==
        GrB_INVALID_VALUE);

  /* MCL: the two components must land in different clusters. */
  int32_t iters = 0;
  CHECK(LAGraph_Runner_mcl(labels, r, a, 2.0, 100, 1e-6, &iters) ==
        GrB_SUCCESS);
  CHECK(iters > 0);
  double l0 = -1.0, l4 = -1.0, lv = -1.0;
  CHECK(GrB_extractElement(&l0, labels, 0) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&l4, labels, 4) == GrB_SUCCESS);
  for (GrB_Index v = 1; v < 4; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l0);
  }
  for (GrB_Index v = 5; v < n; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l4);
  }
  CHECK(l0 != l4);

  /* Peer pressure: likewise component-separating on this graph. */
  iters = 0;
  CHECK(LAGraph_Runner_peer_pressure(labels, r, a, 50, &iters) ==
        GrB_SUCCESS);
  CHECK(iters > 0);
  CHECK(GrB_extractElement(&l0, labels, 0) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&l4, labels, 4) == GrB_SUCCESS);
  for (GrB_Index v = 1; v < 4; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l0);
  }
  for (GrB_Index v = 5; v < n; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l4);
  }
  CHECK(l0 != l4);

  /* BC from {0, 4}: by cycle symmetry the two neighbours of each source
   * carry equal centrality, and the sources' own scores are zero. */
  const GrB_Index sources[2] = {0, 4};
  CHECK(LAGraph_Runner_bc(centrality, r, a, sources, 2) == GrB_SUCCESS);
  double c1 = -1.0, c3 = -2.0, c5 = -1.0, c7 = -2.0;
  CHECK(GrB_extractElement(&c1, centrality, 1) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&c3, centrality, 3) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&c5, centrality, 5) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&c7, centrality, 7) == GrB_SUCCESS);
  CHECK(c1 == c3 && c5 == c7 && c1 == c5);

  int32_t slices = 0;
  bool gave_up = true;
  CHECK(LAGraph_Runner_stats(r, &slices, NULL, NULL, &gave_up, NULL) ==
        GrB_SUCCESS);
  CHECK(slices >= 1);
  CHECK(!gave_up);

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS && r == NULL);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&labels) == GrB_SUCCESS);
  CHECK(GrB_free(&centrality) == GrB_SUCCESS);
}

static void test_runner_sssp_delta_scc_coloring(void) {
  /* The delta-stepping, SCC, and coloring driven entry points over the same
   * two disjoint symmetric 4-cycles used above. */
  const GrB_Index n = 8;
  GrB_Matrix a = NULL;
  GrB_Vector dist = NULL, labels = NULL, colors = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index c = 0; c < 2; ++c) {
    const GrB_Index base = c * 4;
    for (GrB_Index i = 0; i < 4; ++i) {
      const GrB_Index u = base + i, v = base + (i + 1) % 4;
      CHECK(GrB_setElement(a, 1.0, u, v) == GrB_SUCCESS);
      CHECK(GrB_setElement(a, 1.0, v, u) == GrB_SUCCESS);
    }
  }
  CHECK(GrB_Vector_new(&dist, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&labels, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&colors, n) == GrB_SUCCESS);

  LAGraph_Runner r = NULL;
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);

  /* Null-pointer contracts. */
  CHECK(LAGraph_Runner_sssp_delta_stepping(NULL, r, a, 0, 1.0, NULL) ==
        GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_scc(NULL, r, a, NULL) == GrB_NULL_POINTER);
  CHECK(LAGraph_Runner_coloring(NULL, r, a, 42, NULL) == GrB_NULL_POINTER);

  /* Delta-stepping from 0 must agree with Bellman-Ford on this graph:
   * distances 0,1,2,1 in its own cycle, the other component unreached. */
  int32_t iters = 0;
  CHECK(LAGraph_Runner_sssp_delta_stepping(dist, r, a, 0, 1.0, &iters) ==
        GrB_SUCCESS);
  CHECK(iters > 0);
  double d = -1.0;
  CHECK(GrB_extractElement(&d, dist, 0) == GrB_SUCCESS && d == 0.0);
  CHECK(GrB_extractElement(&d, dist, 1) == GrB_SUCCESS && d == 1.0);
  CHECK(GrB_extractElement(&d, dist, 2) == GrB_SUCCESS && d == 2.0);
  CHECK(GrB_extractElement(&d, dist, 3) == GrB_SUCCESS && d == 1.0);
  CHECK(GrB_extractElement(&d, dist, 6) == GrB_NO_VALUE);

  /* SCC: a symmetric 4-cycle is one strongly connected component, so the
   * two components must get two distinct shared labels. */
  int32_t pivots = 0;
  CHECK(LAGraph_Runner_scc(labels, r, a, &pivots) == GrB_SUCCESS);
  CHECK(pivots > 0);
  double l0 = -1.0, l4 = -1.0, lv = -1.0;
  CHECK(GrB_extractElement(&l0, labels, 0) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&l4, labels, 4) == GrB_SUCCESS);
  for (GrB_Index v = 1; v < 4; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l0);
  }
  for (GrB_Index v = 5; v < n; ++v) {
    CHECK(GrB_extractElement(&lv, labels, v) == GrB_SUCCESS && lv == l4);
  }
  CHECK(l0 != l4);

  /* Coloring: every vertex colored with a 1-based color, and no edge joins
   * two equal colors — checked against the known edge set. */
  int32_t rounds = 0;
  CHECK(LAGraph_Runner_coloring(colors, r, a, 42, &rounds) == GrB_SUCCESS);
  CHECK(rounds > 0);
  double col[8];
  for (GrB_Index v = 0; v < n; ++v) {
    col[v] = 0.0;
    CHECK(GrB_extractElement(&col[v], colors, v) == GrB_SUCCESS);
    CHECK(col[v] >= 1.0 && col[v] <= (double)n);
  }
  for (GrB_Index c = 0; c < 2; ++c) {
    const GrB_Index base = c * 4;
    for (GrB_Index i = 0; i < 4; ++i) {
      CHECK(col[base + i] != col[base + (i + 1) % 4]);
    }
  }

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS && r == NULL);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&dist) == GrB_SUCCESS);
  CHECK(GrB_free(&labels) == GrB_SUCCESS);
  CHECK(GrB_free(&colors) == GrB_SUCCESS);
}

static void test_service(void) {
  /* The concurrent serving surface: publish a graph, submit algorithm jobs,
   * wait for bit-exact results, and read the stats counters back. */
  const GrB_Index n = 8;
  GrB_Matrix a = NULL;
  GrB_Vector rank = NULL, level = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i) {
    CHECK(GrB_setElement(a, 1.0, i, (i + 1) % n) == GrB_SUCCESS);
    CHECK(GrB_setElement(a, 1.0, (i + 1) % n, i) == GrB_SUCCESS);
  }
  CHECK(GrB_Vector_new(&rank, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&level, n) == GrB_SUCCESS);

  LAGraph_Service svc = NULL;
  CHECK(LAGraph_Service_new(NULL, 2, 64, 0, 0, 0, 0) == GrB_NULL_POINTER);
  CHECK(LAGraph_Service_new(&svc, 0, 64, 0, 0, 0, 0) == GrB_INVALID_VALUE);
  CHECK(LAGraph_Service_new(&svc, 2, 64, 0, 0, 0, 0) == GrB_SUCCESS);

  uint64_t version = 99;
  CHECK(LAGraph_Service_version(svc, "g", &version) == GrB_SUCCESS);
  CHECK(version == 0); /* never published */
  CHECK(LAGraph_Service_publish(svc, "g", a) == GrB_SUCCESS);
  CHECK(LAGraph_Service_version(svc, "g", &version) == GrB_SUCCESS);
  CHECK(version == 1);

  /* Unknown names are rejected up front, not at execution time. */
  uint64_t job = 0;
  CHECK(LAGraph_Service_submit(svc, "pagerank", "nope", 0, &job) ==
        GrB_INVALID_VALUE);
  CHECK(LAGraph_Service_submit(svc, "quantum", "g", 0, &job) ==
        GrB_INVALID_VALUE);

  /* PageRank through the service matches the distribution invariant. */
  CHECK(LAGraph_Service_submit(svc, "pagerank", "g", 0, &job) == GrB_SUCCESS);
  CHECK(LAGraph_Service_wait(rank, svc, job) == GrB_SUCCESS);
  LAGraph_JobState state = LAGraph_JOB_QUEUED;
  CHECK(LAGraph_Service_poll(svc, job, &state) == GrB_SUCCESS);
  CHECK(state == LAGraph_JOB_DONE);
  double sum = 0.0;
  for (GrB_Index i = 0; i < n; ++i) {
    double x = 0.0;
    CHECK(GrB_extractElement(&x, rank, i) == GrB_SUCCESS);
    sum += x;
  }
  CHECK(fabs(sum - 1.0) < 1e-6);
  CHECK(LAGraph_Service_release(svc, job) == GrB_SUCCESS);
  CHECK(LAGraph_Service_poll(svc, job, &state) == GrB_INVALID_VALUE);

  /* BFS through the service: ring hop counts from vertex 0. */
  uint64_t bfs_job = 0;
  CHECK(LAGraph_Service_submit(svc, "bfs", "g", 0, &bfs_job) == GrB_SUCCESS);
  CHECK(LAGraph_Service_wait(level, svc, bfs_job) == GrB_SUCCESS);
  double hop = -1.0;
  CHECK(GrB_extractElement(&hop, level, 0) == GrB_SUCCESS && hop == 0.0);
  CHECK(GrB_extractElement(&hop, level, 1) == GrB_SUCCESS && hop == 1.0);
  CHECK(GrB_extractElement(&hop, level, n - 1) == GrB_SUCCESS && hop == 1.0);
  CHECK(GrB_extractElement(&hop, level, 4) == GrB_SUCCESS && hop == 4.0);

  uint64_t submitted = 0, shed = 0, completed = 0, failed = 0;
  uint64_t cancelled = 0, watchdog = 0, depth = 0, running = 0;
  CHECK(LAGraph_Service_stats(svc, &submitted, &shed, &completed, &failed,
                              &cancelled, &watchdog, &depth,
                              &running) == GrB_SUCCESS);
  CHECK(submitted == 2);
  CHECK(completed == 2);
  CHECK(shed == 0 && failed == 0 && cancelled == 0 && watchdog == 0);

  CHECK(LAGraph_Service_free(&svc) == GrB_SUCCESS && svc == NULL);

  /* Overload shedding: a 1-byte shed watermark with live objects in the
   * process sheds every submission as GxB_OVERLOADED — deterministically,
   * with nothing enqueued and the handle still fully usable. */
  LAGraph_Service tiny = NULL;
  CHECK(LAGraph_Service_new(&tiny, 1, 4, 0, 0, 1, 0) == GrB_SUCCESS);
  CHECK(LAGraph_Service_publish(tiny, "g", a) == GrB_SUCCESS);
  CHECK(LAGraph_Service_submit(tiny, "pagerank", "g", 0, &job) ==
        GxB_OVERLOADED);
  CHECK(LAGraph_Service_submit(tiny, "bfs", "g", 0, &job) == GxB_OVERLOADED);
  CHECK(LAGraph_Service_stats(tiny, &submitted, &shed, NULL, NULL, NULL, NULL,
                              &depth, NULL) == GrB_SUCCESS);
  CHECK(submitted == 0);
  CHECK(shed == 2);
  CHECK(depth == 0);
  CHECK(LAGraph_Service_free(&tiny) == GrB_SUCCESS);

  /* Batched execution: same client surface, coalesced kernels. Every bfs
   * submission flows through the coalescing stage (batched_requests counts
   * members no matter how the window groups them into batches), and each
   * client's levels match the unbatched contract. */
  LAGraph_Service bsvc = NULL;
  CHECK(LAGraph_Service_new_ex(&bsvc, 0, 64, 0, 0, 0, 0, 4, 50000.0) ==
        GrB_INVALID_VALUE); /* workers must be >= 1 */
  CHECK(LAGraph_Service_new_ex(&bsvc, 1, 64, 0, 0, 0, 0, 4, -1.0) ==
        GrB_INVALID_VALUE); /* negative window */
  CHECK(LAGraph_Service_new_ex(&bsvc, 1, 64, 0, 0, 0, 0, 4, 50000.0) ==
        GrB_SUCCESS);
  CHECK(LAGraph_Service_publish(bsvc, "g", a) == GrB_SUCCESS);
  uint64_t bjobs[3];
  for (int i = 0; i < 3; ++i) {
    CHECK(LAGraph_Service_submit(bsvc, "bfs", "g", (GrB_Index)i,
                                 &bjobs[i]) == GrB_SUCCESS);
  }
  for (int i = 0; i < 3; ++i) {
    CHECK(LAGraph_Service_wait(level, bsvc, bjobs[i]) == GrB_SUCCESS);
    double h = -1.0;
    CHECK(GrB_extractElement(&h, level, (GrB_Index)i) == GrB_SUCCESS &&
          h == 0.0);
    CHECK(GrB_extractElement(&h, level, (GrB_Index)(i + 1)) == GrB_SUCCESS &&
          h == 1.0);
    CHECK(LAGraph_Service_release(bsvc, bjobs[i]) == GrB_SUCCESS);
  }
  uint64_t batches = 0, batched = 0;
  CHECK(LAGraph_Service_batch_stats(NULL, &batches, &batched) ==
        GrB_NULL_POINTER);
  CHECK(LAGraph_Service_batch_stats(bsvc, &batches, &batched) == GrB_SUCCESS);
  CHECK(batched == 3);
  CHECK(batches >= 1 && batches <= 3);
  CHECK(LAGraph_Service_free(&bsvc) == GrB_SUCCESS);

  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&rank) == GrB_SUCCESS);
  CHECK(GrB_free(&level) == GrB_SUCCESS);
}

/* Tuples of `v` (caller frees *idx and *vals); returns the entry count. */
static GrB_Index vector_tuples(GrB_Vector v, GrB_Index** idx, double** vals) {
  GrB_Index nv = 0;
  CHECK(GrB_Vector_nvals(&nv, v) == GrB_SUCCESS);
  *idx = malloc((nv + 1) * sizeof(GrB_Index));
  *vals = malloc((nv + 1) * sizeof(double));
  GrB_Index got = nv;
  CHECK(GrB_Vector_extractTuples_FP64(*idx, *vals, &got, v) == GrB_SUCCESS);
  CHECK(got == nv);
  return nv;
}

/* 1 when `a` and `b` have the same dimension and the same tuples, bit for
 * bit. */
static int same_vector(GrB_Vector a, GrB_Vector b) {
  GrB_Index na = 0, nb = 0;
  CHECK(GrB_Vector_size(&na, a) == GrB_SUCCESS);
  CHECK(GrB_Vector_size(&nb, b) == GrB_SUCCESS);
  GrB_Index *ia = NULL, *ib = NULL;
  double *va = NULL, *vb = NULL;
  const GrB_Index ea = vector_tuples(a, &ia, &va);
  const GrB_Index eb = vector_tuples(b, &ib, &vb);
  const int same = na == nb && ea == eb &&
                   memcmp(ia, ib, ea * sizeof(GrB_Index)) == 0 &&
                   memcmp(va, vb, ea * sizeof(double)) == 0;
  free(ia);
  free(ib);
  free(va);
  free(vb);
  return same;
}

static void test_service_matches_runner(void) {
  /* Every served algorithm, through LAGraph_Service_wait, gives the tuples
   * its LAGraph_Runner_* call gives on the same matrix, bit for bit — so the
   * typed results (levels, labels, colors) reach C through the same FP64
   * conversion on both paths. A directed graph with random weights: 64
   * vertices, 4 out-edges each from a fixed LCG. */
  const GrB_Index n = 64;
  GrB_Matrix a = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  uint64_t state = 12345;
  for (GrB_Index i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const GrB_Index j = (state >> 33) % n;
      const double w = 1.0 + (double)((state >> 20) % 8) / 4.0;
      CHECK(GrB_setElement(a, w, i, j) == GrB_SUCCESS);
    }
  }

  LAGraph_Runner r = NULL;
  LAGraph_Service svc = NULL;
  GrB_Vector direct = NULL, served = NULL, again = NULL;
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);
  CHECK(LAGraph_Service_new(&svc, 2, 64, 0, 0, 0, 0) == GrB_SUCCESS);
  CHECK(LAGraph_Service_publish(svc, "g", a) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&direct, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&served, 1) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&again, 1) == GrB_SUCCESS);

  const char* algos[] = {"pagerank", "bfs", "sssp", "cc", "scc", "coloring"};
  const GrB_Index args[] = {0, 3, 5, 0, 0, 42};
  for (int k = 0; k < 6; ++k) {
    const char* algo = algos[k];
    GrB_Info info = GrB_PANIC;
    if (k == 0) {
      info = LAGraph_Runner_pagerank(direct, r, a, 0.85, 1e-9, 100, NULL);
    } else if (k == 1) {
      info = LAGraph_Runner_bfs_level(direct, r, a, args[k]);
    } else if (k == 2) {
      info = LAGraph_Runner_sssp_bellman_ford(direct, r, a, args[k], NULL);
    } else if (k == 3) {
      info = LAGraph_Runner_cc(direct, r, a, NULL);
    } else if (k == 4) {
      info = LAGraph_Runner_scc(direct, r, a, NULL);
    } else {
      info = LAGraph_Runner_coloring(direct, r, a, args[k], NULL);
    }
    CHECK(info == GrB_SUCCESS);

    uint64_t job = 0;
    CHECK(LAGraph_Service_submit(svc, algo, "g", args[k], &job) ==
          GrB_SUCCESS);
    CHECK(LAGraph_Service_wait(served, svc, job) == GrB_SUCCESS);
    if (!same_vector(direct, served)) {
      ++failures;
      fprintf(stderr, "FAIL: served %s differs from its Runner call\n", algo);
    }
    /* The job stays readable until release: a second wait gives the same
     * vector again. */
    CHECK(LAGraph_Service_wait(again, svc, job) == GrB_SUCCESS);
    CHECK(same_vector(served, again));
    CHECK(LAGraph_Service_release(svc, job) == GrB_SUCCESS);
  }

  CHECK(LAGraph_Service_free(&svc) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&direct) == GrB_SUCCESS);
  CHECK(GrB_free(&served) == GrB_SUCCESS);
  CHECK(GrB_free(&again) == GrB_SUCCESS);
}

/* BFS from 0 and CC of `a` through `r`, each compared bit for bit with a
 * fresh Runner's result on the same matrix; `step` names the step that led
 * here. A copy of the BFS result replaces *level (when level is not NULL)
 * for spot checks. */
static void check_runner_matches_fresh(LAGraph_Runner r, GrB_Matrix a,
                                       const char* step, GrB_Vector* level) {
  GrB_Index n = 0;
  CHECK(GrB_Matrix_nrows(&n, a) == GrB_SUCCESS);
  LAGraph_Runner fresh = NULL;
  GrB_Vector got = NULL, want = NULL;
  CHECK(LAGraph_Runner_new(&fresh) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&got, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&want, n) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_bfs_level(got, r, a, 0) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_bfs_level(want, fresh, a, 0) == GrB_SUCCESS);
  if (!same_vector(got, want)) {
    ++failures;
    fprintf(stderr, "FAIL: bfs after %s differs from a fresh Runner's\n",
            step);
  }
  if (level != NULL) {
    CHECK(GrB_free(level) == GrB_SUCCESS);
    CHECK(GrB_Vector_dup(level, got) == GrB_SUCCESS);
  }
  CHECK(LAGraph_Runner_cc(got, r, a, NULL) == GrB_SUCCESS);
  CHECK(LAGraph_Runner_cc(want, fresh, a, NULL) == GrB_SUCCESS);
  if (!same_vector(got, want)) {
    ++failures;
    fprintf(stderr, "FAIL: cc after %s differs from a fresh Runner's\n",
            step);
  }
  CHECK(LAGraph_Runner_free(&fresh) == GrB_SUCCESS);
  CHECK(GrB_free(&got) == GrB_SUCCESS);
  CHECK(GrB_free(&want) == GrB_SUCCESS);
}

/* The BFS level of vertex v in `level`, or -1 when v was not reached. */
static double level_of(GrB_Vector level, GrB_Index v) {
  double x = -1.0;
  return GrB_extractElement(&x, level, v) == GrB_SUCCESS ? x : -1.0;
}

static void test_runner_reuses_graph_until_matrix_changes(void) {
  /* A Runner keeps the graph of the matrix it last ran on. After every kind
   * of change to that matrix its results must still equal a fresh Runner's,
   * and each step below changes the BFS levels, so a stale graph would
   * show. The graph starts as the directed chain 0 -> 1 -> ... -> 15. */
  const GrB_Index n = 16;
  GrB_Index rows[16], cols[16];
  double vals[16];
  for (GrB_Index i = 0; i + 1 < n; ++i) {
    rows[i] = i;
    cols[i] = i + 1;
    vals[i] = 1.0;
  }
  GrB_Matrix a = NULL, b = NULL, d = NULL;
  GrB_Vector level = NULL, level_d = NULL;
  LAGraph_Runner r = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  CHECK(GrB_Matrix_build_FP64(a, rows, cols, vals, n - 1, GrB_PLUS_FP64) ==
        GrB_SUCCESS);
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);

  check_runner_matches_fresh(r, a, "the first call", &level);
  CHECK(level_of(level, 15) == 15.0);
  check_runner_matches_fresh(r, a, "a repeat call", &level);
  CHECK(level_of(level, 15) == 15.0);

  CHECK(GrB_setElement(a, 1.0, 0, 15) == GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "setElement", &level);
  CHECK(level_of(level, 15) == 1.0);

  CHECK(GrB_Matrix_removeElement(a, 7, 8) == GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "removeElement", &level);
  CHECK(level_of(level, 8) == -1.0);

  CHECK(GrB_Matrix_clear(a) == GrB_SUCCESS);
  CHECK(GrB_Matrix_build_FP64(a, rows, cols, vals, n - 1, GrB_PLUS_FP64) ==
        GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "clear and build", &level);
  CHECK(level_of(level, 8) == 8.0 && level_of(level, 15) == 15.0);

  /* a = a*a: the chain of two-hop edges i -> i+2; odd vertices drop out. */
  CHECK(GrB_Matrix_dup(&b, a) == GrB_SUCCESS);
  CHECK(GrB_mxm(a, NULL, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64, b, b,
                NULL) == GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "mxm into the matrix", &level);
  CHECK(level_of(level, 2) == 1.0 && level_of(level, 1) == -1.0);

  /* Assign the edge 0 -> 1: vertex 1, then 3, 5, ... come back. */
  const GrB_Index zero = 0, one = 1;
  CHECK(GrB_Matrix_assign_FP64(a, NULL, GrB_NULL_ACCUM, 1.0, &zero, 1, &one, 1,
                               NULL) == GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "assign into the matrix", &level);
  CHECK(level_of(level, 1) == 1.0 && level_of(level, 3) == 2.0);

  /* A dup has the same value, so the same results. */
  CHECK(GrB_Matrix_dup(&d, a) == GrB_SUCCESS);
  check_runner_matches_fresh(r, d, "dup", &level_d);
  CHECK(same_vector(level, level_d));

  /* A new matrix, perhaps at the freed one's address: the star 0 -> i. */
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index i = 1; i < n; ++i) {
    CHECK(GrB_setElement(a, 1.0, 0, i) == GrB_SUCCESS);
  }
  check_runner_matches_fresh(r, a, "free and new", &level);
  CHECK(level_of(level, 15) == 1.0 && level_of(level, 8) == 1.0);

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&b) == GrB_SUCCESS);
  CHECK(GrB_free(&d) == GrB_SUCCESS);
  CHECK(GrB_free(&level) == GrB_SUCCESS);
  CHECK(GrB_free(&level_d) == GrB_SUCCESS);
}

/* A directed graph of n vertices with 4 out-edges each from a fixed LCG. */
static void fill_lcg_graph(GrB_Matrix a, GrB_Index n, uint64_t state) {
  for (GrB_Index i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const GrB_Index j = (state >> 33) % n;
      CHECK(GrB_setElement(a, 1.0, i, j) == GrB_SUCCESS);
    }
  }
}

struct canceller {
  LAGraph_Runner r;
  atomic_int started, stop;
};

static void* cancel_until_stopped(void* arg) {
  struct canceller* c = arg;
  atomic_store(&c->started, 1);
  while (!atomic_load(&c->stop)) LAGraph_Runner_cancel(c->r);
  return NULL;
}

static void test_runner_interrupted_cold_call(void) {
  /* A trip during the first call of a Runner stops the algorithms while
   * they are still building the graph's properties. The next call must give
   * what an uninterrupted run gives, bit for bit. */
  const GrB_Index n = 1024;
  GrB_Matrix a = NULL;
  GrB_Vector out = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  fill_lcg_graph(a, n, 777);
  CHECK(GrB_Vector_new(&out, n) == GrB_SUCCESS);

  /* Slice budgets from one byte up trip at different points of the cold
   * call, and with no retries the Runner gives up at the first trip. */
  for (uint64_t budget = 1; budget <= (1u << 20); budget *= 16) {
    LAGraph_Runner r = NULL;
    CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);
    CHECK(LAGraph_Runner_set_retry(r, 0, 0.0, 1.0, 1.0) == GrB_SUCCESS);
    CHECK(LAGraph_Runner_set_slice_budget(r, budget) == GrB_SUCCESS);
    const GrB_Info cc_info = LAGraph_Runner_cc(out, r, a, NULL);
    const GrB_Info bfs_info = LAGraph_Runner_bfs_level(out, r, a, 0);
    CHECK(cc_info == GrB_SUCCESS || cc_info == GrB_OUT_OF_MEMORY);
    CHECK(bfs_info == GrB_SUCCESS || bfs_info == GrB_OUT_OF_MEMORY);
    if (budget == 1) CHECK(cc_info == GrB_OUT_OF_MEMORY);
    CHECK(LAGraph_Runner_set_slice_budget(r, 0) == GrB_SUCCESS);
    check_runner_matches_fresh(r, a, "a budget trip", NULL);
    CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS);
  }

  /* A cancel from another thread, repeated until the call has returned. The
   * canceller may not get a core before a short call ends, so each
   * algorithm gets fresh Runners until one cold call is cancelled. */
  const char* algos[] = {"cc", "bfs"};
  for (int k = 0; k < 2; ++k) {
    int cancelled = 0;
    for (int attempt = 0; attempt < 100 && !cancelled; ++attempt) {
      struct canceller c;
      CHECK(LAGraph_Runner_new(&c.r) == GrB_SUCCESS);
      atomic_init(&c.started, 0);
      atomic_init(&c.stop, 0);
      pthread_t t;
      CHECK(pthread_create(&t, NULL, cancel_until_stopped, &c) == 0);
      while (!atomic_load(&c.started)) {
      }
      const GrB_Info info = k == 0 ? LAGraph_Runner_cc(out, c.r, a, NULL)
                                   : LAGraph_Runner_bfs_level(out, c.r, a, 0);
      atomic_store(&c.stop, 1);
      CHECK(pthread_join(t, NULL) == 0);
      CHECK(info == GrB_SUCCESS || info == GxB_CANCELLED);
      cancelled = info == GxB_CANCELLED;
      check_runner_matches_fresh(c.r, a, "a cancel", NULL);
      CHECK(LAGraph_Runner_free(&c.r) == GrB_SUCCESS);
    }
    if (!cancelled) {
      ++failures;
      fprintf(stderr, "FAIL: no cold %s call was cancelled\n", algos[k]);
    }
  }

  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&out) == GrB_SUCCESS);
}

static void test_runner_after_resize(void) {
  /* A resize is a change to the matrix: a Runner that reused its graph
   * must see the new shape. The chain 0 -> 1 -> ... -> 7 grows to 12
   * vertices (4 unreached) and shrinks to 5 (the chain 0 -> ... -> 4). */
  GrB_Matrix a = NULL;
  GrB_Vector level = NULL, v = NULL;
  LAGraph_Runner r = NULL;
  CHECK(GrB_Matrix_new(&a, 8, 8) == GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < 8; ++i) {
    CHECK(GrB_setElement(a, 1.0, i, i + 1) == GrB_SUCCESS);
  }
  CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);
  check_runner_matches_fresh(r, a, "the first call", &level);
  CHECK(level_of(level, 7) == 7.0);

  const GrB_Index sizes[] = {12, 5};
  for (int k = 0; k < 2; ++k) {
    const GrB_Index n = sizes[k];
    CHECK(GrB_Matrix_resize(a, n, n) == GrB_SUCCESS);
    GrB_Index nrows = 0, ncols = 0, size = 0, nvals = 0;
    CHECK(GrB_Matrix_nrows(&nrows, a) == GrB_SUCCESS && nrows == n);
    CHECK(GrB_Matrix_ncols(&ncols, a) == GrB_SUCCESS && ncols == n);
    check_runner_matches_fresh(r, a, "a resize", &level);
    CHECK(GrB_Vector_size(&size, level) == GrB_SUCCESS && size == n);
    CHECK(GrB_Vector_nvals(&nvals, level) == GrB_SUCCESS);
    CHECK(nvals == (n < 8 ? n : 8));
    CHECK(level_of(level, n < 8 ? n - 1 : 7) == (n < 8 ? n - 1.0 : 7.0));
  }

  /* The vector call: entries past the new size go, growing adds none. */
  CHECK(GrB_Vector_new(&v, 6) == GrB_SUCCESS);
  CHECK(GrB_setElement(v, 2.0, 1) == GrB_SUCCESS);
  CHECK(GrB_setElement(v, 3.0, 5) == GrB_SUCCESS);
  CHECK(GrB_Vector_resize(v, 4) == GrB_SUCCESS);
  GrB_Index vsize = 0, vnvals = 0;
  CHECK(GrB_Vector_size(&vsize, v) == GrB_SUCCESS && vsize == 4);
  CHECK(GrB_Vector_nvals(&vnvals, v) == GrB_SUCCESS && vnvals == 1);
  CHECK(GrB_Vector_resize(v, 9) == GrB_SUCCESS);
  CHECK(GrB_Vector_size(&vsize, v) == GrB_SUCCESS && vsize == 9);
  CHECK(GrB_Vector_nvals(&vnvals, v) == GrB_SUCCESS && vnvals == 1);
  CHECK(level_of(v, 1) == 2.0);
  CHECK(GrB_Matrix_resize(NULL, 1, 1) == GrB_NULL_POINTER);
  CHECK(GrB_Vector_resize(NULL, 1) == GrB_NULL_POINTER);

  CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS);
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&level) == GrB_SUCCESS);
  CHECK(GrB_free(&v) == GrB_SUCCESS);
}

static void test_cc_budget_trip_climbs_the_ladder(void) {
  /* A trip while cc builds its undirected view is a governed step like any
   * other: with a 1-byte slice budget and no retries, cc must climb the
   * degradation ladder and give up exactly as bfs does, not escape as a
   * bare out-of-memory with untouched telemetry. */
  const GrB_Index n = 64;
  GrB_Matrix a = NULL;
  GrB_Vector out = NULL;
  CHECK(GrB_Matrix_new(&a, n, n) == GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i) {
    CHECK(GrB_setElement(a, 1.0, i, i + 1) == GrB_SUCCESS);
  }
  CHECK(GrB_Vector_new(&out, n) == GrB_SUCCESS);
  for (int k = 0; k < 2; ++k) {
    LAGraph_Runner r = NULL;
    CHECK(LAGraph_Runner_new(&r) == GrB_SUCCESS);
    CHECK(LAGraph_Runner_set_retry(r, 0, 0.0, 1.0, 1.0) == GrB_SUCCESS);
    CHECK(LAGraph_Runner_set_slice_budget(r, 1) == GrB_SUCCESS);
    const GrB_Info info = k == 0 ? LAGraph_Runner_cc(out, r, a, NULL)
                                 : LAGraph_Runner_bfs_level(out, r, a, 0);
    int32_t slices = 0, degradations = 0;
    bool gave_up = false;
    LAGraph_StopReason stop = LAGraph_STOP_NONE;
    CHECK(LAGraph_Runner_stats(r, &slices, NULL, &degradations, &gave_up,
                               &stop) == GrB_SUCCESS);
    if (info != GrB_OUT_OF_MEMORY || !gave_up ||
        stop != LAGraph_STOP_OUT_OF_MEMORY || slices < 1) {
      ++failures;
      fprintf(stderr,
              "FAIL: %s under a 1-byte budget: info %d, slices %d, "
              "degradations %d, gave_up %d, stop %d\n",
              k == 0 ? "cc" : "bfs", (int)info, (int)slices,
              (int)degradations, (int)gave_up, (int)stop);
    }
    CHECK(LAGraph_Runner_free(&r) == GrB_SUCCESS);
  }
  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&out) == GrB_SUCCESS);
}

static void test_storage_format_options(void) {
  /* GxB sparsity control: pin forms, read status back, and confirm the
   * stored values never depend on the form. */
  GrB_Matrix a = NULL;
  GrB_Vector v = NULL;
  CHECK(GrB_Matrix_new(&a, 4, 4) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&v, 4) == GrB_SUCCESS);
  CHECK(GrB_setElement(a, 1.5, 0, 1) == GrB_SUCCESS);
  CHECK(GrB_setElement(a, 2.5, 2, 3) == GrB_SUCCESS);

  int32_t s = 0;
  CHECK(GxB_Matrix_Option_get(a, GxB_SPARSITY_CONTROL, &s) == GrB_SUCCESS);
  if (getenv("LAGRAPH_FORCE_FORMAT") == NULL) {
    /* The untouched default is auto — unless the CI leg forces a form
     * process-wide, in which case the forced control is the default. */
    CHECK(s == GxB_AUTO_SPARSITY);
  }

  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_CONTROL, GxB_BITMAP) ==
        GrB_SUCCESS);
  CHECK(GxB_Matrix_Option_get(a, GxB_SPARSITY_STATUS, &s) == GrB_SUCCESS);
  CHECK(s == GxB_BITMAP);
  CHECK(GxB_Matrix_check(a, GxB_CHECK_FULL) == GrB_SUCCESS);
  GrB_Index nv = 0;
  double x = 0.0;
  CHECK(GrB_nvals(&nv, a) == GrB_SUCCESS && nv == 2);
  CHECK(GrB_extractElement(&x, a, 0, 1) == GrB_SUCCESS && x == 1.5);
  CHECK(GrB_extractElement(&x, a, 2, 3) == GrB_SUCCESS && x == 2.5);
  CHECK(GrB_extractElement(&x, a, 1, 1) == GrB_NO_VALUE);

  /* Full is a preference: with absent entries the matrix degrades to
   * bitmap rather than erroring or inventing values. */
  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_CONTROL, GxB_FULL) ==
        GrB_SUCCESS);
  CHECK(GxB_Matrix_Option_get(a, GxB_SPARSITY_STATUS, &s) == GrB_SUCCESS);
  CHECK(s == GxB_BITMAP);
  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_CONTROL, GxB_AUTO_SPARSITY) ==
        GrB_SUCCESS);
  CHECK(GxB_Matrix_check(a, GxB_CHECK_FULL) == GrB_SUCCESS);
  CHECK(GrB_nvals(&nv, a) == GrB_SUCCESS && nv == 2);

  /* A vector with every position present really goes full. */
  CHECK(GrB_Vector_assign_FP64(v, NULL, GrB_NULL_ACCUM, 3.0, GrB_ALL, 4,
                               NULL) == GrB_SUCCESS);
  CHECK(GxB_Vector_Option_set(v, GxB_SPARSITY_CONTROL, GxB_FULL) ==
        GrB_SUCCESS);
  CHECK(GxB_Vector_Option_get(v, GxB_SPARSITY_STATUS, &s) == GrB_SUCCESS);
  CHECK(s == GxB_FULL);
  CHECK(GxB_Vector_check(v, GxB_CHECK_FULL) == GrB_SUCCESS);
  CHECK(GrB_extractElement(&x, v, 2) == GrB_SUCCESS && x == 3.0);

  /* Bad arguments. */
  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_CONTROL, 0) ==
        GrB_INVALID_VALUE);
  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_CONTROL, 16) ==
        GrB_INVALID_VALUE);
  CHECK(GxB_Matrix_Option_set(a, GxB_SPARSITY_STATUS, GxB_BITMAP) ==
        GrB_INVALID_VALUE);
  CHECK(GxB_Vector_Option_get(v, GxB_SPARSITY_CONTROL, NULL) ==
        GrB_NULL_POINTER);

  CHECK(GrB_free(&a) == GrB_SUCCESS);
  CHECK(GrB_free(&v) == GrB_SUCCESS);
}

static void test_c_bfs(void) {
  /* The Fig. 2(d) loop, written in plain C: a 5-cycle. */
  const GrB_Index n = 5;
  GrB_Matrix graph = NULL;
  GrB_Vector frontier = NULL, levels = NULL;
  CHECK(GrB_Matrix_new(&graph, n, n) == GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i) {
    CHECK(GrB_setElement(graph, 1.0, i, (i + 1) % n) == GrB_SUCCESS);
  }
  CHECK(GrB_Vector_new(&frontier, n) == GrB_SUCCESS);
  CHECK(GrB_Vector_new(&levels, n) == GrB_SUCCESS);
  CHECK(GrB_setElement(frontier, 1.0, 0) == GrB_SUCCESS);

  GrB_Descriptor desc = NULL, desc_s = NULL;
  CHECK(GrB_Descriptor_new(&desc) == GrB_SUCCESS);
  CHECK(GrB_Descriptor_set(desc, GrB_INP0, GrB_TRAN) == GrB_SUCCESS);
  CHECK(GrB_Descriptor_set(desc, GrB_MASK, GrB_COMP_STRUCTURE) ==
        GrB_SUCCESS);
  CHECK(GrB_Descriptor_set(desc, GrB_OUTP, GrB_REPLACE) == GrB_SUCCESS);
  CHECK(GrB_Descriptor_new(&desc_s) == GrB_SUCCESS);
  CHECK(GrB_Descriptor_set(desc_s, GrB_MASK, GrB_STRUCTURE) == GrB_SUCCESS);

  GrB_Index nvals = 0, depth = 0;
  CHECK(GrB_nvals(&nvals, frontier) == GrB_SUCCESS);
  while (nvals > 0) {
    ++depth;
    CHECK(GrB_Vector_assign_FP64(levels, frontier, GrB_NULL_ACCUM,
                                 (double)depth, GrB_ALL, n,
                                 desc_s) == GrB_SUCCESS);
    CHECK(GrB_mxv(frontier, levels, GrB_NULL_ACCUM, GrB_LOR_LAND_SEMIRING,
                  graph, frontier, desc) == GrB_SUCCESS);
    CHECK(GrB_nvals(&nvals, frontier) == GrB_SUCCESS);
  }
  /* On a directed 5-cycle from 0: levels are 1,2,3,4,5. */
  for (GrB_Index v = 0; v < n; ++v) {
    double lvl = 0.0;
    CHECK(GrB_extractElement(&lvl, levels, v) == GrB_SUCCESS);
    CHECK(fabs(lvl - (double)(v + 1)) < 1e-12);
  }

  CHECK(GrB_free(&graph) == GrB_SUCCESS);
  CHECK(GrB_free(&frontier) == GrB_SUCCESS);
  CHECK(GrB_free(&levels) == GrB_SUCCESS);
  CHECK(GrB_free(&desc) == GrB_SUCCESS);
  CHECK(GrB_free(&desc_s) == GrB_SUCCESS);
}

int main(void) {
  test_lifetime_polymorphic();
  test_polymorphic_operations();
  test_typed_variants();
  test_runner_drivers();
  test_runner_sssp_cc();
  test_runner_clustering_bc();
  test_runner_sssp_delta_scc_coloring();
  test_service();
  test_service_matches_runner();
  test_runner_reuses_graph_until_matrix_changes();
  test_runner_interrupted_cold_call();
  test_runner_after_resize();
  test_cc_budget_trip_climbs_the_ladder();
  test_storage_format_options();
  test_c_bfs();
  if (failures == 0) {
    printf("test_capi_c: all C-language API checks passed\n");
    return 0;
  }
  printf("test_capi_c: %d failures\n", failures);
  return 1;
}
