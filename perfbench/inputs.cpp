#include "inputs.hpp"

#include <stdexcept>
#include <unordered_set>

#include "graphblas/graphblas.hpp"
#include "harness.hpp"
#include "lagraph/util/generator.hpp"

namespace perfbench {

namespace {

std::uint64_t edge_key(GrB_Index r, GrB_Index c) { return (r << 32) | c; }

void check(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS) throw std::runtime_error(what);
}

}  // namespace

Inputs make_inputs(int scale, std::uint64_t graph_seed, bool with_rewired) {
  const std::uint64_t seed = graph_seed;
  Inputs in;
  in.scale = scale;
  in.n = GrB_Index{1} << scale;

  // Directed R-MAT, Graph500 a/b/c, edge factor 16: duplicates and
  // self-loops are dropped by the generator, so the tuples are unique.
  const gb::Matrix<double> a =
      lagraph::rmat(scale, 16, derive_seed(seed, 1), /*symmetric=*/false);
  std::vector<gb::Index> r, c;
  std::vector<double> v;
  a.extract_tuples(r, c, v);
  Rng wr(derive_seed(seed, 2));
  in.base.rows.assign(r.begin(), r.end());
  in.base.cols.assign(c.begin(), c.end());
  in.base.vals.resize(r.size());
  for (double& w : in.base.vals) w = static_cast<double>(1 + wr.below(8));

  std::vector<std::uint8_t> has_out(in.n, 0);
  for (GrB_Index row : in.base.rows) has_out[row] = 1;
  for (GrB_Index i = 0; i < in.n; ++i)
    if (has_out[i]) in.eligible.push_back(i);

  if (with_rewired) {
    // Move 1% of the edges to a new target (same source, so out-degrees and
    // the eligible set are unchanged while BFS, SSSP, PageRank and CC
    // results all depend on which version a request saw).
    std::unordered_set<std::uint64_t> present;
    present.reserve(in.base.size() * 2);
    for (std::size_t k = 0; k < in.base.size(); ++k)
      present.insert(edge_key(in.base.rows[k], in.base.cols[k]));
    in.rewired = in.base;
    Rng rr(derive_seed(seed, 3));
    const std::size_t moves = in.base.size() / 100;
    for (std::size_t m = 0; m < moves; ++m) {
      const std::size_t k = rr.below(in.base.size());
      const GrB_Index row = in.rewired.rows[k];
      GrB_Index col = rr.below(in.n);
      if (col == row || present.count(edge_key(row, col))) continue;
      present.erase(edge_key(row, in.rewired.cols[k]));
      present.insert(edge_key(row, col));
      in.rewired.cols[k] = col;
      in.rewired.vals[k] = static_cast<double>(1 + rr.below(8));
    }
  }
  return in;
}

Tuples erdos_renyi_like(GrB_Index n, std::size_t edges, std::uint64_t seed) {
  Tuples t;
  std::unordered_set<std::uint64_t> present;
  present.reserve(edges * 2);
  Rng rng(seed);
  while (t.size() < edges) {
    const GrB_Index r = rng.below(n), c = rng.below(n);
    if (r == c || !present.insert(edge_key(r, c)).second) continue;
    t.rows.push_back(r);
    t.cols.push_back(c);
    t.vals.push_back(static_cast<double>(1 + rng.below(8)));
  }
  return t;
}

GrB_Matrix build_c_matrix(GrB_Index n, const Tuples& t) {
  GrB_Matrix a = nullptr;
  check(GrB_Matrix_new(&a, n, n), "GrB_Matrix_new");
  check(GrB_Matrix_build_FP64(a, t.rows.data(), t.cols.data(), t.vals.data(),
                              t.size(), GrB_PLUS_FP64),
        "GrB_Matrix_build_FP64");
  return a;
}

lagraph::Graph make_graph(GrB_Index n, const Tuples& t) {
  gb::Matrix<double> a(n, n);
  std::vector<gb::Index> r(t.rows.begin(), t.rows.end());
  std::vector<gb::Index> c(t.cols.begin(), t.cols.end());
  a.build(r, c, t.vals, gb::Plus{});
  return lagraph::Graph(std::move(a), lagraph::Kind::directed);
}

std::vector<GrB_Index> draw_sources(const std::vector<GrB_Index>& eligible,
                                    std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GrB_Index> out(count);
  for (auto& s : out) s = eligible[rng.below(eligible.size())];
  return out;
}

}  // namespace perfbench
