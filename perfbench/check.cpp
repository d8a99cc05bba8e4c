#include "check.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "reference/simple_graph.hpp"

namespace perfbench {

namespace {

template <class T>
Result from_gb(const gb::Vector<T>& v) {
  Result r;
  std::vector<gb::Index> idx;
  std::vector<T> vals;
  v.extract_tuples(idx, vals);
  r.idx.assign(idx.begin(), idx.end());
  r.vals.assign(vals.begin(), vals.end());
  r.n = v.size();
  return r;
}

/// Dense view of a result: absent entries read as `missing`.
std::vector<double> densify(const Result& r, double missing) {
  std::vector<double> d(r.n, missing);
  for (std::size_t k = 0; k < r.idx.size(); ++k) d[r.idx[k]] = r.vals[k];
  return d;
}

}  // namespace

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::bfs: return "bfs";
    case Algo::sssp: return "sssp";
    case Algo::pagerank: return "pagerank";
    case Algo::cc: return "cc";
  }
  return "?";
}

Result read_vector(GrB_Vector v) {
  Result r;
  GrB_Index nv = 0;
  if (GrB_Vector_size(&r.n, v) != GrB_SUCCESS ||
      GrB_Vector_nvals(&nv, v) != GrB_SUCCESS) {
    throw std::runtime_error("read_vector: size/nvals");
  }
  r.idx.resize(nv);
  r.vals.resize(nv);
  GrB_Index got = nv;
  if (GrB_Vector_extractTuples_FP64(r.idx.data(), r.vals.data(), &got, v) !=
          GrB_SUCCESS ||
      got != nv) {
    throw std::runtime_error("read_vector: extractTuples");
  }
  return r;
}

bool identical(const Result& a, const Result& b) {
  return a.n == b.n && a.idx == b.idx && a.vals.size() == b.vals.size() &&
         (a.vals.empty() ||
          std::memcmp(a.vals.data(), b.vals.data(),
                      a.vals.size() * sizeof(double)) == 0);
}

Result solo_run(const lagraph::Graph& g, Algo a, GrB_Index src) {
  switch (a) {
    case Algo::bfs:
      return from_gb(lagraph::bfs(g, src).level);
    case Algo::sssp:
      return from_gb(lagraph::sssp_bellman_ford(g, src).dist);
    case Algo::pagerank:
      return from_gb(lagraph::pagerank(g, 0.85, 1e-9, 100).rank);
    case Algo::cc:
      return from_gb(lagraph::connected_components_run(g).labels);
  }
  throw std::logic_error("solo_run: algorithm");
}

std::size_t Reservoir::offer(Algo a) {
  const int k = static_cast<int>(a);
  const std::uint64_t seen = seen_[k]++;
  if (kept_[k].size() < cap_) {
    kept_[k].emplace_back();
    return kept_[k].size() - 1;
  }
  const std::uint64_t j = rng_.below(seen + 1);
  return j < cap_ ? static_cast<std::size_t>(j) : kSkip;
}

void Reservoir::put(std::size_t slot, Sample s) {
  kept_[static_cast<int>(s.algo)][slot] = std::move(s);
}

std::vector<Sample> Reservoir::take() {
  std::vector<Sample> out;
  for (auto& v : kept_)
    for (auto& s : v) out.push_back(std::move(s));
  for (auto& v : kept_) v.clear();
  return out;
}

const Result& Oracle::expected(std::uint64_t version, Algo a, GrB_Index src) {
  const std::size_t which = (version - 1) % graphs_.size();
  if (!takes_source(a)) src = 0;
  auto key = std::make_tuple(which, static_cast<int>(a), src);
  auto& slot = cache_[key];
  if (!slot) slot = std::make_unique<Result>(solo_run(*graphs_[which], a, src));
  return *slot;
}

bool Oracle::verify(const Sample& s) {
  if (s.v_lo < 1 || s.v_hi < s.v_lo) return false;
  bool ok = false;
  for (std::uint64_t v = s.v_lo; v <= s.v_hi && !ok; ++v)
    ok = identical(s.got, expected(v, s.algo, s.src));
  return ok;
}

bool Oracle::discriminates(Algo a, GrB_Index src) {
  return graphs_.size() > 1 &&
         !identical(expected(1, a, src), expected(2, a, src));
}

bool Oracle::reference_check(GrB_Index bfs_src, GrB_Index sssp_src,
                             std::vector<std::string>& why) {
  const lagraph::Graph& g = *graphs_[0];
  const ref::SimpleGraph sg = ref::SimpleGraph::from_matrix(g.adj());
  bool ok = true;

  const auto levels = ref::bfs_levels(sg, bfs_src);
  const auto bfs = densify(expected(1, Algo::bfs, bfs_src), -1.0);
  for (GrB_Index i = 0; i < sg.n; ++i) {
    if (bfs[i] != static_cast<double>(levels[i])) {
      why.push_back("bfs differs from the queue BFS at vertex " +
                    std::to_string(i));
      ok = false;
      break;
    }
  }

  const auto dist = ref::dijkstra(sg, sssp_src);
  const auto sssp = densify(expected(1, Algo::sssp, sssp_src),
                            std::numeric_limits<double>::infinity());
  for (GrB_Index i = 0; i < sg.n; ++i) {
    if (sssp[i] != dist[i]) {
      why.push_back("sssp differs from Dijkstra at vertex " +
                    std::to_string(i));
      ok = false;
      break;
    }
  }

  const auto comp = ref::connected_components(sg);
  const auto cc = densify(expected(1, Algo::cc, 0), -1.0);
  for (GrB_Index i = 0; i < sg.n; ++i) {
    if (cc[i] != static_cast<double>(comp[i])) {
      why.push_back("cc differs from union-find at vertex " +
                    std::to_string(i));
      ok = false;
      break;
    }
  }

  const auto pr_ref = ref::pagerank(sg, 0.85, 100, 1e-9);
  const auto pr = densify(expected(1, Algo::pagerank, 0), 0.0);
  double l1 = 0.0;
  for (GrB_Index i = 0; i < sg.n; ++i) l1 += std::abs(pr[i] - pr_ref[i]);
  if (!(l1 < 1e-6)) {
    why.push_back("pagerank L1 distance to power iteration is " +
                  std::to_string(l1));
    ok = false;
  }
  return ok;
}

CheckCounts verify_samples(Oracle& oracle, const std::vector<Sample>& samples) {
  CheckCounts c;
  for (const Sample& s : samples) {
    ++c.checked;
    if (!oracle.verify(s)) ++c.failed;
    if (oracle.discriminates(s.algo, s.src)) ++c.discriminating;
  }
  if (!samples.empty()) {
    Sample broken = samples.front();
    if (broken.got.vals.empty()) {
      broken.got.idx.push_back(0);
      broken.got.vals.push_back(1.0);
    } else {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &broken.got.vals.back(), sizeof bits);
      bits ^= 1;
      std::memcpy(&broken.got.vals.back(), &bits, sizeof bits);
    }
    c.selftest_caught = !oracle.verify(broken);
  }
  return c;
}

}  // namespace perfbench
