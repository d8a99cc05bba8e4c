// C8 (§III): "Algorithm designers will naturally wonder how much
// performance is lost due to the use of a high level API such as the
// GraphBLAS... Testing this hypothesis ... is a major outcome we anticipate
// from the LAGraph project."
//
// Three implementations of the same work, stacked:
//   1. direct      — textbook queue BFS / hand-rolled CSR SpMV;
//   2. C++ GraphBLAS — templated kernels, operators fully inlined
//      (the GBTL-style layer, §II-C);
//   3. C API       — the same back end behind runtime-dispatched operator
//      handles (the IBM-style layered front end, §II-B).
#include <cstdio>
#include <vector>

#include "capi/graphblas_c.h"
#include "lagraph/lagraph.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/timer.hpp"
#include "reference/simple_graph.hpp"

namespace {

using gb::Index;

// Each BFS keeps its level vector in bitmap form (Fig. 3's dense side), as
// lagraph::bfs does, so the masked level record stores only at the
// frontier's positions in both front ends.

struct BfsTime {
  double ms = 0;
  Index depth = 0;
};

BfsTime bfs_c_api(GrB_Matrix graph, Index n, Index source, int reps) {
  BfsTime out;
  gb::platform::Timer t;
  for (int r = 0; r < reps; ++r) {
    GrB_Vector frontier = nullptr, levels = nullptr;
    GrB_Vector_new(&frontier, n);
    GrB_Vector_new(&levels, n);
    GxB_Vector_Option_set(levels, GxB_SPARSITY_CONTROL, GxB_BITMAP);
    GrB_Vector_setElement_FP64(frontier, 1.0, source);
    GrB_Descriptor desc = nullptr, desc_s = nullptr;
    GrB_Descriptor_new(&desc);
    GrB_Descriptor_set(desc, GrB_INP0, GrB_TRAN);
    GrB_Descriptor_set(desc, GrB_MASK, GrB_COMP_STRUCTURE);
    GrB_Descriptor_set(desc, GrB_OUTP, GrB_REPLACE);
    GrB_Descriptor_new(&desc_s);
    GrB_Descriptor_set(desc_s, GrB_MASK, GrB_STRUCTURE);

    GrB_Index nvals = 1, depth = 0;
    while (nvals > 0) {
      ++depth;
      GrB_Vector_assign_FP64(levels, frontier, GrB_NULL_ACCUM,
                             static_cast<double>(depth), GrB_ALL, n, desc_s);
      GrB_mxv(frontier, levels, GrB_NULL_ACCUM, GrB_LOR_LAND_SEMIRING, graph,
              frontier, desc);
      GrB_Vector_nvals(&nvals, frontier);
    }
    out.depth = depth;
    GrB_Vector_free(&frontier);
    GrB_Vector_free(&levels);
    GrB_Descriptor_free(&desc);
    GrB_Descriptor_free(&desc_s);
  }
  out.ms = t.millis() / reps;
  return out;
}

BfsTime bfs_cpp(const lagraph::Graph& g, Index source, int reps) {
  // The exact Fig. 2 levels-only loop via the C++ layer, so all three
  // contenders run the same algorithm (lagraph::bfs would also compute
  // parents).
  const Index n = g.nrows();
  BfsTime out;
  gb::platform::Timer t;
  for (int r = 0; r < reps; ++r) {
    gb::Vector<double> levels(n);
    levels.set_format(gb::FormatMode::bitmap);
    gb::Vector<bool> frontier(n);
    frontier.set_element(source, true);
    Index depth = 0;
    while (frontier.nvals() > 0) {
      ++depth;
      gb::assign_scalar(levels, frontier, gb::no_accum,
                        static_cast<double>(depth), gb::IndexSel::all(n),
                        gb::desc_s);
      gb::vxm(frontier, levels, gb::no_accum, gb::lor_land(), frontier,
              g.adj(), gb::desc_rsc);
    }
    out.depth = depth;
  }
  out.ms = t.millis() / reps;
  return out;
}

double bfs_direct(const ref::SimpleGraph& sg, Index source, int reps) {
  gb::platform::Timer t;
  for (int r = 0; r < reps; ++r) ref::bfs_levels(sg, source);
  return t.millis() / reps;
}

struct Workload {
  const char* name;
  gb::Matrix<double> adj;
  bool hub_source;  // start at the highest-degree vertex, else at vertex 0
};

}  // namespace

int main() {
  std::printf("C8 (§III): performance cost of API layers — direct vs C++ "
              "GraphBLAS vs C API\n\n");
  std::printf("BFS, same graph, same algorithm family (times in ms; the "
              "per-level column is the C++ time / depth):\n");
  std::printf("%-18s %10s %12s %10s %12s %12s %6s %12s\n", "graph", "direct",
              "C++ (gb::)", "C API", "C++/direct", "C-API/C++", "depth",
              "C++ us/lvl");

  std::vector<Workload> graphs;
  graphs.push_back({"rmat-10 ef=8", lagraph::rmat(10, 8, 77), true});
  graphs.push_back({"rmat-12 ef=8", lagraph::rmat(12, 8, 77), true});
  graphs.push_back({"rmat-13 ef=8", lagraph::rmat(13, 8, 77), true});
  graphs.push_back({"grid 128x128", lagraph::grid2d(128, 128), false});
  graphs.push_back({"grid 256x256", lagraph::grid2d(256, 256), false});

  for (auto& w : graphs) {
    const Index n = w.adj.nrows();
    lagraph::Graph g(w.adj.dup(), lagraph::Kind::undirected);
    auto sg = ref::SimpleGraph::from_matrix(g.adj());

    Index source = 0;
    if (w.hub_source) {
      for (Index v = 1; v < n; ++v) {
        if (sg.adj[v].size() > sg.adj[source].size()) source = v;
      }
    }

    GrB_Matrix cg = nullptr;
    GrB_Matrix_new(&cg, n, n);
    {
      std::vector<Index> r, c;
      std::vector<double> v;
      w.adj.extract_tuples(r, c, v);
      GrB_Matrix_build_FP64(cg, r.data(), c.data(), v.data(), r.size(),
                            GrB_SECOND_FP64);
      GrB_Matrix_wait(cg);
    }

    const int reps = 5;
    const double direct = bfs_direct(sg, source, reps);
    const BfsTime cpp = bfs_cpp(g, source, reps);
    const BfsTime capi = bfs_c_api(cg, n, source, reps);
    std::printf("%-18s %10.3f %12.3f %10.3f %11.1fx %11.1fx %6llu %12.1f\n",
                w.name, direct, cpp.ms, capi.ms, cpp.ms / direct,
                capi.ms / cpp.ms, static_cast<unsigned long long>(cpp.depth),
                1000.0 * cpp.ms / static_cast<double>(cpp.depth));
    GrB_Matrix_free(&cg);
  }

  // Microkernel view: one dense mxv through both front ends.
  std::printf("\nsingle plus_times mxv (dense input vector), rmat-13 "
              "ef=16:\n");
  {
    auto a = lagraph::rmat(13, 16, 78);
    const Index n = a.nrows();
    auto u = gb::Vector<double>::full(n, 1.0);
    const int reps = 20;

    gb::Descriptor d;
    d.mxv = gb::MxvMethod::pull;
    gb::platform::Timer t;
    for (int r = 0; r < reps; ++r) {
      gb::Vector<double> w(n);
      gb::mxv(w, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, u, d);
    }
    double cpp_ms = t.millis() / reps;

    GrB_Matrix ca = nullptr;
    GrB_Matrix_new(&ca, n, n);
    std::vector<Index> ri, ci;
    std::vector<double> vi;
    a.extract_tuples(ri, ci, vi);
    GrB_Matrix_build_FP64(ca, ri.data(), ci.data(), vi.data(), ri.size(),
                          GrB_SECOND_FP64);
    GrB_Vector cu = nullptr, cw = nullptr;
    GrB_Vector_new(&cu, n);
    for (Index i = 0; i < n; ++i) GrB_Vector_setElement_FP64(cu, 1.0, i);
    GrB_Vector_new(&cw, n);
    t.reset();
    for (int r = 0; r < reps; ++r) {
      GrB_mxv(cw, nullptr, GrB_NULL_ACCUM, GrB_PLUS_TIMES_SEMIRING_FP64, ca,
              cu, nullptr);
    }
    double capi_ms = t.millis() / reps;
    std::printf("  C++ inlined: %8.3f ms    C API (runtime-dispatched ops): "
                "%8.3f ms    ratio %.2fx\n",
                cpp_ms, capi_ms, capi_ms / cpp_ms);
    GrB_Matrix_free(&ca);
    GrB_Vector_free(&cu);
    GrB_Vector_free(&cw);
  }

  std::printf("\nexpected shape: the C++ GraphBLAS within a small constant "
              "of the direct\nimplementation (the §III hypothesis — the "
              "structured-access advantage\noffsets the abstraction); the C "
              "front end pays a further constant for\nruntime operator "
              "dispatch, the cost the paper's layered implementations\n(IBM, "
              "§II-B) accept for language interoperability.\n");
  return 0;
}
