// Connected components (FastSV) vs union-find.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/governor.hpp"
#include "platform/parallel.hpp"
#include "reference/simple_graph.hpp"
#include "test_common.hpp"

using gb::Index;
using namespace lagraph;
using testutil::ThreadGuard;

namespace {

void expect_cc_matches(const Graph& g) {
  auto got = connected_components(g);
  auto sg = ref::SimpleGraph::from_matrix(g.undirected_view());
  auto want = ref::connected_components(sg);
  auto dense = to_dense_std(got, std::uint64_t{0});
  ASSERT_EQ(dense.size(), want.size());
  for (Index v = 0; v < sg.n; ++v) {
    EXPECT_EQ(dense[v], want[v]) << "vertex " << v;
  }
}

using Tuples = std::pair<std::vector<Index>, std::vector<std::uint64_t>>;

Tuples tuples(const gb::Vector<std::uint64_t>& v) {
  Tuples t;
  v.extract_tuples(t.first, t.second);
  return t;
}

gb::Matrix<double> from_edges(Index n,
                              const std::vector<std::pair<Index, Index>>& e) {
  gb::Matrix<double> a(n, n);
  for (auto [u, v] : e) a.set_element(u, v, 1.0);
  return a;
}

/// Directed path n-1 -> n-2 -> ... -> 0: ids run against the path, so the
/// first hook leaves a parent chain of length n for pointer jumping.
gb::Matrix<double> reversed_path(Index n) {
  std::vector<std::pair<Index, Index>> e;
  for (Index v = n - 1; v > 0; --v) e.emplace_back(v, v - 1);
  return from_edges(n, e);
}

/// Star whose centre is the largest id, n-1.
gb::Matrix<double> star_at_last(Index n) {
  std::vector<std::pair<Index, Index>> e;
  for (Index v = 0; v + 1 < n; ++v) {
    e.emplace_back(n - 1, v);
    e.emplace_back(v, n - 1);
  }
  return from_edges(n, e);
}

/// Sparse random graph with a self-loop on every third vertex.
gb::Matrix<double> with_self_loops(Index n, std::uint64_t seed) {
  auto a = erdos_renyi(n, n / 2, seed);
  for (Index v = 0; v < n; v += 3) a.set_element(v, v, 1.0);
  return a;
}

/// Edges among the first third of the vertices only; the rest are isolated.
gb::Matrix<double> with_isolated(Index n, std::uint64_t seed) {
  auto core = erdos_renyi(n / 3, n / 3, seed);
  std::vector<Index> r, c;
  std::vector<double> x;
  core.extract_tuples(r, c, x);
  gb::Matrix<double> a(n, n);
  a.build(r, c, x, gb::Second{});
  return a;
}

struct Case {
  const char* name;
  Graph g;
  int rounds;  ///< FastSV rounds this seeded input takes
};

std::vector<Case> shaped_cases() {
  std::vector<Case> cases;
  cases.push_back({"rmat12 directed",
                   Graph(rmat(12, 8, 5, false), Kind::directed), 3});
  cases.push_back(
      {"rmat12 undirected", Graph(rmat(12, 8, 6), Kind::undirected), 3});
  cases.push_back({"grid64", Graph(grid2d(64, 64), Kind::undirected), 2});
  cases.push_back(
      {"reversed path", Graph(reversed_path(3000), Kind::directed), 2});
  cases.push_back(
      {"star at n-1", Graph(star_at_last(500), Kind::undirected), 3});
  cases.push_back(
      {"self-loops", Graph(with_self_loops(400, 21), Kind::undirected), 4});
  cases.push_back(
      {"isolated", Graph(with_isolated(600, 22), Kind::undirected), 4});
  cases.push_back({"n = 1", Graph(gb::Matrix<double>(1, 1), Kind::undirected), 1});
  cases.push_back({"n = 1, self-loop",
                   Graph(from_edges(1, {{0, 0}}), Kind::undirected), 1});
  return cases;
}

}  // namespace

TEST(ConnectedComponents, SingleComponent) {
  expect_cc_matches(Graph(path_graph(20), Kind::undirected));
  expect_cc_matches(Graph(cycle_graph(9), Kind::undirected));
  expect_cc_matches(Graph(complete_graph(6), Kind::undirected));
}

TEST(ConnectedComponents, ManyComponents) {
  // Three disjoint pieces + isolated vertices.
  gb::Matrix<double> a(12, 12);
  auto add = [&a](Index u, Index v) {
    a.set_element(u, v, 1.0);
    a.set_element(v, u, 1.0);
  };
  add(0, 1);
  add(1, 2);
  add(4, 5);
  add(7, 8);
  add(8, 9);
  add(9, 7);
  Graph g(std::move(a), Kind::undirected);
  expect_cc_matches(g);
  auto labels = to_dense_std(connected_components(g), std::uint64_t{0});
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[5], 4u);
  EXPECT_EQ(labels[9], 7u);
  EXPECT_EQ(labels[3], 3u);   // isolated: own label
  EXPECT_EQ(labels[11], 11u);
}

TEST(ConnectedComponents, RandomGraphs) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    // Sparse enough to have several components.
    expect_cc_matches(Graph(erdos_renyi(300, 150, seed), Kind::undirected));
  }
  expect_cc_matches(Graph(rmat(9, 2, 13), Kind::undirected));
}

TEST(ConnectedComponents, DirectedInputTreatedUndirected) {
  gb::Matrix<double> a(4, 4);
  a.set_element(0, 1, 1.0);  // one-way edge still connects the component
  a.set_element(2, 3, 1.0);
  Graph g(std::move(a), Kind::directed);
  auto labels = to_dense_std(connected_components(g), std::uint64_t{0});
  EXPECT_EQ(labels[1], 0u);
  EXPECT_EQ(labels[3], 2u);
}

TEST(ConnectedComponents, LabelsAreComponentMinima) {
  Graph g(erdos_renyi(100, 80, 14), Kind::undirected);
  auto labels = to_dense_std(connected_components(g), std::uint64_t{0});
  for (Index v = 0; v < 100; ++v) {
    EXPECT_LE(labels[v], v);               // min label property
    EXPECT_EQ(labels[labels[v]], labels[v]);  // representative is a root
  }
}

TEST(ConnectedComponents, ShapesAtEveryThreadCountAndChunking) {
  // Labels equal union-find's, the round count is pinned, and every thread
  // count and forced chunking gives the same bits.
  struct Config {
    int threads;
    int chunks;  // 0: the platform's own chunk count
  };
  const Config configs[] = {{1, 0}, {2, 0}, {4, 0}, {4, 3}, {4, 7}};
  for (const auto& c : shaped_cases()) {
    Tuples first;
    for (const Config& cfg : configs) {
      SCOPED_TRACE(::testing::Message() << c.name << " threads " << cfg.threads
                                        << " chunks " << cfg.chunks);
      ThreadGuard threads(cfg.threads);
      gb::platform::ForcedChunks chunks(cfg.chunks);
      expect_cc_matches(c.g);
      const auto res = connected_components_run(c.g);
      EXPECT_EQ(res.stop, StopReason::converged);
      EXPECT_EQ(res.rounds, c.rounds);
      EXPECT_TRUE(res.checkpoint.empty());
      if (cfg.threads == 1) {
        first = tuples(res.labels);
      } else {
        EXPECT_EQ(tuples(res.labels), first) << "differs from the 1-thread run";
      }
    }
  }
}

TEST(ConnectedComponents, EmptyGraphIsRejected) {
  Graph g(gb::Matrix<double>(0, 0), Kind::undirected);
  EXPECT_THROW((void)connected_components_run(g), gb::Error);
}

TEST(ConnectedComponents, CapsuleAfterEachRoundResumesToTheSameLabels) {
  // Trip the run at successive poll ordinals; each capsule holds the parent
  // vector of a round boundary, and resuming from it must finish with the
  // uninterrupted run's labels and round count.
  using gb::platform::Governor;
  Graph g(erdos_renyi(5000, 2500, 3), Kind::undirected);
  const auto base = connected_components_run(g);
  ASSERT_EQ(base.rounds, 6);
  std::vector<bool> seen(static_cast<std::size_t>(base.rounds), false);
  for (std::uint64_t n = 0;; ++n) {
    Checkpoint cp;
    {
      Governor gov;
      gb::platform::GovernorScope governed(&gov);
      gb::platform::ScopedTripAfter trip(n, Governor::Trip::cancel);
      auto part = connected_components_run(g);
      if (!is_interruption(part.stop)) break;
      cp = std::move(part.checkpoint);
    }
    if (cp.empty()) continue;  // tripped in setup
    const auto k = cp.get_i64("rounds");
    ASSERT_LT(k, base.rounds);
    seen[static_cast<std::size_t>(k)] = true;
    // f only ever lowers a vertex's parent, within its component.
    const auto f = to_dense_std(cp.get_vector<std::uint64_t>("f"),
                                std::uint64_t{0});
    const auto want = to_dense_std(base.labels, std::uint64_t{0});
    for (Index v = 0; v < f.size(); ++v) {
      ASSERT_LE(f[v], v) << "round " << k;
      ASSERT_EQ(want[f[v]], want[v]) << "round " << k;
    }
    const auto resumed = connected_components_run(g, &cp);
    ASSERT_EQ(resumed.stop, StopReason::converged) << "poll " << n;
    EXPECT_EQ(resumed.rounds, base.rounds) << "poll " << n;
    EXPECT_EQ(tuples(resumed.labels), tuples(base.labels)) << "poll " << n;
  }
  for (std::size_t k = 0; k < seen.size(); ++k)
    EXPECT_TRUE(seen[k]) << "no capsule after round " << k;
}

TEST(ConnectedComponents, ResumeRejectsAParentOutOfRange) {
  Graph g(path_graph(8), Kind::undirected);
  Checkpoint cp;
  cp.set_algorithm("connected_components");
  gb::Vector<std::uint64_t> f(8);
  for (Index v = 0; v < 8; ++v) f.set_element(v, v == 5 ? 8 : v);
  cp.put_vector("f", f);
  cp.put_i64("rounds", 1);
  EXPECT_THROW((void)connected_components_run(g, &cp), gb::Error);
  gb::Vector<std::uint64_t> holed(8);
  holed.set_element(0, 0);
  cp.put_vector("f", holed);
  EXPECT_THROW((void)connected_components_run(g, &cp), gb::Error);
}
