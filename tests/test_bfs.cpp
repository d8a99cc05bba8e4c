// BFS (Fig. 2): all three variants must produce textbook levels and a valid
// parent tree, and the direction optimiser must actually switch on
// scale-free inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/governor.hpp"
#include "reference/simple_graph.hpp"
#include "test_common.hpp"

using gb::Index;
using namespace lagraph;
using testutil::ThreadGuard;

namespace {

void expect_bfs_correct(const Graph& g, Index src, BfsVariant variant) {
  auto res = bfs(g, src, variant);
  auto sg = ref::SimpleGraph::from_matrix(g.adj());
  auto want = ref::bfs_levels(sg, src);

  auto levels = to_dense_std(res.level, std::int64_t{-1});
  ASSERT_EQ(levels.size(), want.size());
  for (Index v = 0; v < sg.n; ++v) {
    EXPECT_EQ(levels[v], want[v]) << "vertex " << v;
  }
  auto parents = to_dense_std(res.parent, std::int64_t{-1});
  EXPECT_TRUE(ref::valid_bfs_parents(sg, src, parents, want));
}

}  // namespace

class BfsVariants : public ::testing::TestWithParam<BfsVariant> {};

TEST_P(BfsVariants, PathGraph) {
  Graph g(path_graph(10), Kind::undirected);
  expect_bfs_correct(g, 0, GetParam());
  expect_bfs_correct(g, 5, GetParam());
}

TEST_P(BfsVariants, StarGraph) {
  Graph g(star_graph(50), Kind::undirected);
  expect_bfs_correct(g, 0, GetParam());
  expect_bfs_correct(g, 17, GetParam());
}

TEST_P(BfsVariants, DisconnectedGraph) {
  gb::Matrix<double> a(6, 6);
  a.set_element(0, 1, 1.0);
  a.set_element(1, 0, 1.0);
  a.set_element(3, 4, 1.0);
  a.set_element(4, 3, 1.0);
  Graph g(std::move(a), Kind::undirected);
  auto res = bfs(g, 0, GetParam());
  EXPECT_EQ(res.level.nvals(), 2u);  // only {0, 1} reached
  EXPECT_FALSE(res.level.extract_element(3).has_value());
  expect_bfs_correct(g, 0, GetParam());
}

TEST_P(BfsVariants, DirectedGraph) {
  gb::Matrix<double> a(4, 4);
  a.set_element(0, 1, 1.0);
  a.set_element(1, 2, 1.0);
  a.set_element(2, 3, 1.0);
  a.set_element(3, 0, 1.0);  // cycle
  Graph g(std::move(a), Kind::directed);
  expect_bfs_correct(g, 2, GetParam());
}

TEST_P(BfsVariants, RmatGraph) {
  Graph g(rmat(9, 8, 3), Kind::undirected);
  expect_bfs_correct(g, 0, GetParam());
  expect_bfs_correct(g, 100, GetParam());
}

TEST_P(BfsVariants, GridGraph) {
  Graph g(grid2d(12, 12), Kind::undirected);
  expect_bfs_correct(g, 0, GetParam());
  expect_bfs_correct(g, 77, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BfsVariants,
                         ::testing::Values(BfsVariant::push, BfsVariant::pull,
                                           BfsVariant::direction_optimizing));

TEST(Bfs, SingleVertexSourceOnly) {
  gb::Matrix<double> a(1, 1);
  Graph g(std::move(a), Kind::undirected);
  auto res = bfs(g, 0);
  EXPECT_EQ(res.level.extract_element(0).value(), 0);
  EXPECT_EQ(res.parent.extract_element(0).value(), 0);
  EXPECT_EQ(res.depth, 1);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  Graph g(path_graph(4), Kind::undirected);
  EXPECT_THROW(bfs(g, 4), gb::Error);
}

TEST(Bfs, DirectionOptimizerSwitchesOnScaleFree) {
  // On a dense-frontier graph (star from the hub), DO must pull at least
  // once; on a path it should stay push the whole way.
  Graph star(star_graph(2000), Kind::undirected);
  auto res = bfs(star, 0, BfsVariant::direction_optimizing);
  bool pulled = false;
  for (auto d : res.directions) pulled |= (d == gb::MxvMethod::pull);
  EXPECT_TRUE(pulled);

  Graph path(path_graph(200), Kind::undirected);
  auto res2 = bfs(path, 0, BfsVariant::direction_optimizing);
  for (auto d : res2.directions) EXPECT_EQ(d, gb::MxvMethod::push);
}

TEST(Bfs, DepthMatchesEccentricity) {
  Graph g(path_graph(16), Kind::undirected);
  auto res = bfs(g, 0);
  EXPECT_EQ(res.depth, 16);  // levels 0..15
  auto res2 = bfs(g, 8);
  EXPECT_EQ(res2.depth, 9);  // max level 8 (vertex 0 or 15)
}

TEST(Bfs, ParentCarriesMinimumIdWithMinFirst) {
  // Vertex 3 reachable from both 0 and 1 at the same level: min_first must
  // record parent 0 deterministically... (0 and 1 are both sources' children)
  gb::Matrix<double> a(4, 4);
  a.set_element(0, 1, 1.0);
  a.set_element(0, 2, 1.0);
  a.set_element(1, 3, 1.0);
  a.set_element(2, 3, 1.0);
  Graph g(std::move(a), Kind::directed);
  auto res = bfs(g, 0);
  EXPECT_EQ(res.parent.extract_element(3).value(), 1);  // min(1, 2)
}

// --- Frontier-cost traversal: same bits at every thread count ----------------
//
// level and parent are held in bitmap form for the whole traversal, so each
// level's records store only at the frontier's positions. The result must
// still equal the textbook queue BFS, carry a valid parent tree, and be
// bit-identical at 1, 2 and 4 threads. (ctest also runs this binary with
// every container's storage form forced and with fusion off.)

namespace {

using Tuples = std::pair<std::vector<Index>, std::vector<std::int64_t>>;

Tuples tuples(const gb::Vector<std::int64_t>& v) {
  Tuples t;
  v.extract_tuples(t.first, t.second);
  return t;
}

}  // namespace

TEST(BfsFrontierCost, LevelsAndParentsAtOneTwoFourThreads) {
  struct Case {
    const char* name;
    Graph g;
    Index src;
  };
  std::vector<Case> cases;
  cases.push_back({"rmat", Graph(rmat(10, 8, 5), Kind::undirected), 3});
  cases.push_back({"path", Graph(path_graph(300), Kind::undirected), 17});
  cases.push_back({"grid64", Graph(grid2d(64, 64), Kind::undirected), 0});
  for (const auto& c : cases) {
    for (BfsVariant variant :
         {BfsVariant::push, BfsVariant::pull,
          BfsVariant::direction_optimizing}) {
      std::tuple<Tuples, Tuples, std::int64_t> first;
      for (int threads : {1, 2, 4}) {
        ThreadGuard scoped(threads);
        SCOPED_TRACE(::testing::Message()
                     << c.name << " variant " << static_cast<int>(variant)
                     << " threads " << threads);
        expect_bfs_correct(c.g, c.src, variant);
        auto res = bfs(c.g, c.src, variant);
        auto got = std::make_tuple(tuples(res.level), tuples(res.parent),
                                   res.depth);
        if (threads == 1) {
          first = got;
        } else {
          EXPECT_EQ(got, first) << "differs from the 1-thread run";
        }
      }
    }
  }
}

TEST(BfsFrontierCost, ResumedRunGivesTheSameBits) {
  using gb::platform::Governor;
  Graph g(grid2d(64, 64), Kind::undirected);
  const auto base = bfs(g, 5, BfsVariant::direction_optimizing);
  ASSERT_EQ(base.stop, StopReason::none);
  int resumed_mid_traversal = 0;
  for (std::uint64_t n : {0, 1, 3, 10, 40, 120, 300, 700}) {
    Checkpoint cp;
    {
      Governor gov;
      gb::platform::GovernorScope governed(&gov);
      gb::platform::ScopedTripAfter trip(n, Governor::Trip::cancel);
      auto part = bfs(g, 5, BfsVariant::direction_optimizing);
      if (!is_interruption(part.stop)) continue;
      cp = std::move(part.checkpoint);
    }
    if (!cp.empty()) ++resumed_mid_traversal;
    auto resumed = cp.empty()
                       ? bfs(g, 5, BfsVariant::direction_optimizing)
                       : bfs(g, 5, BfsVariant::direction_optimizing, &cp);
    ASSERT_EQ(resumed.stop, StopReason::none) << "poll " << n;
    EXPECT_EQ(tuples(resumed.level), tuples(base.level)) << "poll " << n;
    EXPECT_EQ(tuples(resumed.parent), tuples(base.parent)) << "poll " << n;
    EXPECT_EQ(resumed.depth, base.depth) << "poll " << n;
    EXPECT_EQ(resumed.directions, base.directions) << "poll " << n;
  }
  EXPECT_GE(resumed_mid_traversal, 3);
}
