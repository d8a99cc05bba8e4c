// Tests for the resumable-execution layer:
//
//   * Checkpoint — stream/file round-trips, and rejection of corrupt, torn,
//     truncated, and trailing-garbage capsules (load() validates sizes and
//     the CRC before unpacking, so a bad file never becomes a bad object);
//   * resume determinism — for every resumable driver, single- and
//     multi-source, an interrupted run resumed from its capsule must be
//     bit-identical to an uninterrupted run, for every poll ordinal the trip
//     can land on, on a warm graph and on a fresh (cold) one, and at
//     several OpenMP widths;
//   * capsule compatibility — each driver's tag, slot names, slot kinds and
//     element types are pinned, so capsules written earlier still load;
//   * Runner — slicing cadence, the degradation ladder, retry-with-backoff
//     recovery from budget trips, give-up semantics, cancellation, and the
//     crash-safe checkpoint file (persist on interrupt / resume on start /
//     retire on completion; a corrupt file restarts instead of failing).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graphblas/graphblas.hpp"
#include "lagraph/checkpoint.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/governor.hpp"
#include "test_common.hpp"

using gb::platform::Governor;
using gb::platform::GovernorScope;
using gb::platform::ScopedTripAfter;
using lagraph::Checkpoint;
using lagraph::StopReason;

namespace {

// Set the env cap before any metered allocation caches the parse (same
// priming as test_governor.cpp: the ambient cap must never interfere).
const bool env_primed = [] {
  ::setenv("LAGRAPH_MEM_BUDGET", "109951162777600", 1);  // 100 TiB
  return true;
}();

lagraph::Graph ring(gb::Index n) {
  return lagraph::Graph(lagraph::cycle_graph(n), lagraph::Kind::undirected);
}

lagraph::Graph path(gb::Index n) {
  return lagraph::Graph(lagraph::path_graph(n), lagraph::Kind::undirected);
}

template <class T>
std::pair<std::vector<gb::Index>, std::vector<T>> tuples(
    const gb::Vector<T>& v) {
  std::pair<std::vector<gb::Index>, std::vector<T>> p;
  v.extract_tuples(p.first, p.second);
  return p;
}

template <class T>
std::tuple<std::vector<gb::Index>, std::vector<gb::Index>, std::vector<T>>
tuples(const gb::Matrix<T>& m) {
  std::tuple<std::vector<gb::Index>, std::vector<gb::Index>, std::vector<T>> t;
  m.extract_tuples(std::get<0>(t), std::get<1>(t), std::get<2>(t));
  return t;
}

Checkpoint sample_capsule() {
  Checkpoint cp;
  cp.set_algorithm("sample");
  cp.put_u64("iter", 7);
  cp.put_i64("delta", -3);
  cp.put_f64("resid", 0.125);
  cp.put_array("order", std::vector<std::uint64_t>{5, 4, 3, 2, 1});
  gb::Vector<double> v(8);
  v.build(std::vector<gb::Index>{1, 3, 6}, std::vector<double>{0.5, 1.5, 2.5},
          gb::Second{});
  cp.put_vector("v", v);
  gb::Matrix<double> m(4, 4);
  m.set_element(0, 1, 2.0);
  m.set_element(3, 2, -1.0);
  m.wait();
  cp.put_matrix("m", m);
  return cp;
}

std::string serialized_sample() {
  std::ostringstream out;
  sample_capsule().save(out);
  return out.str();
}

}  // namespace

// --- Checkpoint serialization ----------------------------------------------

TEST(Checkpoint, StreamRoundTripPreservesEverySlot) {
  const std::string bytes = serialized_sample();
  std::istringstream in(bytes);
  Checkpoint cp = Checkpoint::load(in);
  EXPECT_EQ(cp.algorithm(), "sample");
  EXPECT_EQ(cp.get_u64("iter"), 7u);
  EXPECT_EQ(cp.get_i64("delta"), -3);
  EXPECT_EQ(cp.get_f64("resid"), 0.125);
  EXPECT_EQ(cp.get_array<std::uint64_t>("order"),
            (std::vector<std::uint64_t>{5, 4, 3, 2, 1}));
  EXPECT_EQ(tuples(cp.get_vector<double>("v")),
            tuples(sample_capsule().get_vector<double>("v")));
  EXPECT_EQ(tuples(cp.get_matrix<double>("m")),
            tuples(sample_capsule().get_matrix<double>("m")));
}

TEST(Checkpoint, FileRoundTripAndAtomicReplace) {
  const std::string file = ::testing::TempDir() + "lagraph_ckpt_roundtrip.lacp";
  std::remove(file.c_str());
  const Checkpoint orig = sample_capsule();
  orig.save(file);
  // Saving over an existing capsule replaces it whole (temp file + rename).
  orig.save(file);
  Checkpoint cp = Checkpoint::load(file);
  EXPECT_EQ(cp.algorithm(), "sample");
  EXPECT_EQ(cp.get_u64("iter"), 7u);
  std::remove(file.c_str());
}

TEST(Checkpoint, RejectsEveryBitFlip) {
  // Flip one bit at a sample of positions across the whole image (header,
  // directory, payload, CRC footer): each must be rejected as malformed,
  // never silently accepted.
  const std::string good = serialized_sample();
  ASSERT_GT(good.size(), 16u);
  for (std::size_t pos = 0; pos < good.size();
       pos += 1 + good.size() / 97) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    std::istringstream in(bad);
    EXPECT_THROW(Checkpoint::load(in), gb::Error)
        << "bit flip at byte " << pos << " was not rejected";
  }
}

TEST(Checkpoint, RejectsTornAndTruncatedImages) {
  // A torn write — any strict prefix of the image — must be rejected: the
  // declared payload sizes no longer match what the stream can deliver, and
  // load() notices before allocating payload storage.
  const std::string good = serialized_sample();
  for (std::size_t len = 0; len < good.size();
       len += 1 + good.size() / 61) {
    std::istringstream in(good.substr(0, len));
    EXPECT_THROW(Checkpoint::load(in), gb::Error)
        << "prefix of " << len << " bytes was not rejected";
  }
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  std::string bad = serialized_sample();
  bad += "extra";
  std::istringstream in(bad);
  EXPECT_THROW(Checkpoint::load(in), gb::Error);
}

TEST(Checkpoint, RejectsWrongAlgorithmOnResume) {
  Checkpoint cp = sample_capsule();
  EXPECT_NO_THROW(lagraph::check_resume(cp, "sample"));
  EXPECT_THROW(lagraph::check_resume(cp, "pagerank"), gb::Error);
}

TEST(Checkpoint, MissingFileThrowsAndDoesNotCreate) {
  const std::string file = ::testing::TempDir() + "lagraph_ckpt_missing.lacp";
  std::remove(file.c_str());
  EXPECT_THROW(Checkpoint::load(file), gb::Error);
  std::ifstream probe(file);
  EXPECT_FALSE(probe.good());
}

// --- Resume determinism ----------------------------------------------------

namespace {

using testutil::Soak;

lagraph::Graph er(gb::Index n, gb::Index m, std::uint64_t seed) {
  return lagraph::Graph(lagraph::erdos_renyi(n, m, seed),
                        lagraph::Kind::undirected);
}

/// The shared soak, warm and then cold (a fresh graph per poll ordinal).
template <class Make, class Run, class Extract>
void soak_warm_and_cold(const std::string& name, Make&& make, Run&& run,
                        Extract&& extract) {
  testutil::soak_resume_determinism(name + " (warm)", Soak::warm, make, run,
                                    extract);
  testutil::soak_resume_determinism(name + " (cold)", Soak::cold, make, run,
                                    extract);
}

}  // namespace

TEST(ResumeDeterminism, Pagerank) {
  soak_warm_and_cold(
      "pagerank", [] { return path(48); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::pagerank(g, 0.85, 1e-12, 80, cp);
      },
      [](const lagraph::PageRankResult& r) {
        return std::make_tuple(tuples(r.rank), r.iterations, r.residual,
                               r.converged);
      });
}

TEST(ResumeDeterminism, BfsPush) {
  soak_warm_and_cold(
      "bfs", [] { return ring(48); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::bfs(g, 3, lagraph::BfsVariant::push, cp);
      },
      [](const lagraph::BfsResult& r) {
        return std::make_tuple(tuples(r.level), tuples(r.parent), r.depth);
      });
}

TEST(ResumeDeterminism, BfsPull) {
  soak_warm_and_cold(
      "bfs pull", [] { return er(64, 160, 21); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::bfs(g, 5, lagraph::BfsVariant::pull, cp);
      },
      [](const lagraph::BfsResult& r) {
        return std::make_tuple(tuples(r.level), tuples(r.parent), r.depth,
                               r.directions);
      });
}

TEST(ResumeDeterminism, BfsDirectionOptimizing) {
  soak_warm_and_cold(
      "bfs direction_optimizing", [] { return er(64, 320, 22); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::bfs(g, 0, lagraph::BfsVariant::direction_optimizing,
                            cp);
      },
      [](const lagraph::BfsResult& r) {
        return std::make_tuple(tuples(r.level), tuples(r.parent), r.depth,
                               r.directions);
      });
}

TEST(ResumeDeterminism, SsspBellmanFord) {
  soak_warm_and_cold(
      "sssp", [] { return ring(40); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::sssp_bellman_ford(g, 0, cp);
      },
      [](const lagraph::SsspResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      });
}

TEST(ResumeDeterminism, SsspDeltaStepping) {
  soak_warm_and_cold(
      "sssp_delta_stepping",
      [] {
        return lagraph::Graph(
            lagraph::randomize_weights(lagraph::erdos_renyi(48, 120, 23), 1.0,
                                       8.0, 7),
            lagraph::Kind::directed);
      },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::sssp_delta_stepping(g, 0, 3.0, cp);
      },
      [](const lagraph::SsspResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      });
}

TEST(ResumeDeterminism, Apsp) {
  soak_warm_and_cold(
      "apsp", [] { return er(24, 40, 24); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::apsp_run(g, cp);
      },
      [](const lagraph::ApspResult& r) {
        return std::make_pair(tuples(r.d), r.rounds);
      });
}

TEST(ResumeDeterminism, ConnectedComponents) {
  soak_warm_and_cold(
      "cc", [] { return er(64, 128, 7); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::connected_components_run(g, cp);
      },
      [](const lagraph::CcResult& r) { return tuples(r.labels); });
}

TEST(ResumeDeterminism, StronglyConnectedComponents) {
  soak_warm_and_cold(
      "scc",
      [] {
        return lagraph::Graph(lagraph::erdos_renyi(48, 110, 25, false),
                              lagraph::Kind::directed);
      },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::strongly_connected_components_run(g, cp);
      },
      [](const lagraph::SccResult& r) {
        return std::make_pair(tuples(r.labels), r.pivots);
      });
}

TEST(ResumeDeterminism, Ktruss) {
  soak_warm_and_cold(
      "ktruss", [] { return er(64, 300, 26); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::ktruss_run(g, 4, cp);
      },
      [](const lagraph::KtrussResult& r) {
        return std::make_tuple(tuples(r.c), r.nedges, r.rounds);
      });
}

TEST(ResumeDeterminism, Kcore) {
  soak_warm_and_cold(
      "kcore", [] { return er(64, 200, 27); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::kcore_run(g, cp);
      },
      [](const lagraph::KcoreResult& r) {
        return std::make_pair(tuples(r.coreness), r.k);
      });
}

TEST(ResumeDeterminism, Mis) {
  soak_warm_and_cold(
      "mis", [] { return er(64, 160, 28); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::mis_run(g, 42, cp);
      },
      [](const lagraph::MisResult& r) {
        return std::make_pair(tuples(r.set), r.rounds);
      });
}

TEST(ResumeDeterminism, Coloring) {
  soak_warm_and_cold(
      "coloring", [] { return er(64, 160, 29); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::coloring_run(g, 42, cp);
      },
      [](const lagraph::ColoringResult& r) {
        return std::make_pair(tuples(r.colors), r.rounds);
      });
}

TEST(ResumeDeterminism, MaximalMatching) {
  soak_warm_and_cold(
      "maximal_matching", [] { return er(64, 160, 30); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::maximal_matching_run(g, 42, cp);
      },
      [](const lagraph::MatchingResult& r) {
        return std::make_pair(tuples(r.mate), r.rounds);
      });
}

TEST(ResumeDeterminism, Mcl) {
  soak_warm_and_cold(
      "mcl", [] { return er(32, 64, 31); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::mcl(g, 2.0, 100, 1e-6, cp);
      },
      [](const lagraph::ClusterResult& r) {
        return std::make_tuple(tuples(r.labels), r.iterations, r.residual,
                               r.converged);
      });
}

TEST(ResumeDeterminism, PeerPressure) {
  soak_warm_and_cold(
      "peer_pressure", [] { return er(48, 120, 32); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::peer_pressure(g, 50, cp);
      },
      [](const lagraph::ClusterResult& r) {
        return std::make_tuple(tuples(r.labels), r.iterations, r.residual,
                               r.converged);
      });
}

TEST(ResumeDeterminism, Betweenness) {
  const std::vector<gb::Index> sources{0, 5, 11};
  soak_warm_and_cold(
      "bc", [] { return path(24); },
      [&](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::betweenness_run(g, sources, cp);
      },
      [](const lagraph::BcResult& r) {
        return std::make_pair(tuples(r.centrality), r.levels);
      });
}

TEST(ResumeDeterminism, AStar) {
  soak_warm_and_cold(
      "astar", [] { return path(32); },
      [](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::astar_run(g, 0, 31, gb::Vector<double>(32), cp);
      },
      [](const lagraph::AStarResult& r) {
        return std::make_tuple(r.distance, r.path, r.expanded);
      });
}

TEST(ResumeDeterminism, DnnInference) {
  const gb::Index n = 24;
  gb::Matrix<double> y0 = lagraph::random_matrix(8, n, 40, 11);
  std::vector<gb::Matrix<double>> weights;
  for (int l = 0; l < 6; ++l) {
    weights.push_back(
        lagraph::random_matrix(n, n, 60, 100 + static_cast<unsigned>(l)));
  }
  const std::vector<double> biases(6, -0.05);
  // No graph: the fixture is a placeholder, so only the warm mode applies.
  testutil::soak_resume_determinism(
      "dnn", Soak::warm, [] { return 0; },
      [&](int, const Checkpoint* cp) {
        return lagraph::dnn_inference_run(y0, weights, biases, 32.0, cp);
      },
      [](const lagraph::DnnResult& r) {
        return std::make_pair(tuples(r.y), r.layers_done);
      });
}

TEST(ResumeDeterminism, GcnInference) {
  const gb::Matrix<double> features = lagraph::random_matrix(32, 8, 90, 33);
  const std::vector<gb::Matrix<double>> weights{
      lagraph::random_matrix(8, 8, 40, 34), lagraph::random_matrix(8, 8, 40, 35),
      lagraph::random_matrix(8, 4, 20, 36)};
  soak_warm_and_cold(
      "gcn", [] { return er(32, 80, 37); },
      [&](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::gcn_inference_run(g, features, weights, cp);
      },
      [](const lagraph::GcnResult& r) {
        return std::make_pair(tuples(r.h), r.layers_done);
      });
}

#ifdef _OPENMP
TEST(ResumeDeterminism, StableAcrossThreadCounts) {
  // The capsule must not bake in the parallel schedule: a run interrupted
  // and resumed at 1, 2, and 4 threads lands on the same answer each time.
  const int saved = omp_get_max_threads();
  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    testutil::soak_resume_determinism(
        "pagerank@" + std::to_string(t), Soak::warm, [] { return path(48); },
        [](const lagraph::Graph& g, const Checkpoint* cp) {
          return lagraph::pagerank(g, 0.85, 1e-10, 60, cp);
        },
        [](const lagraph::PageRankResult& r) {
          return std::make_pair(tuples(r.rank), r.iterations);
        });
  }
  omp_set_num_threads(saved);
}
#endif  // _OPENMP

// --- every poll ordinal stops cleanly ---------------------------------------
//
// The soaks above sample poll ordinals. This sweep takes every one, on small
// inputs, and demands the governed contract alone: a trip anywhere (setup,
// a round, capture, the result's assembly) comes back as a StopReason,
// never as an exception.

namespace {

template <class Run>
void trip_every_ordinal(const char* name, Run&& run) {
  for (std::uint64_t n = 0; n < 100000; ++n) {
    Governor gov;
    GovernorScope s(&gov);
    ScopedTripAfter trip(n, Governor::Trip::cancel);
    StopReason stop = StopReason::none;
    ASSERT_NO_THROW(stop = run().stop) << name << " escaped at poll " << n;
    if (!lagraph::is_interruption(stop)) return;
    ASSERT_EQ(stop, StopReason::cancelled) << name << " at poll " << n;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace

TEST(ResumeDeterminism, EveryPollOrdinalStopsCleanly) {
  auto und = er(24, 60, 41);
  lagraph::Graph dir(lagraph::erdos_renyi(24, 50, 42, false),
                     lagraph::Kind::directed);
  lagraph::Graph wdir(lagraph::randomize_weights(
                          lagraph::erdos_renyi(24, 50, 43, false), 1.0, 8.0, 7),
                      lagraph::Kind::directed);
  const std::vector<gb::Index> src{0, 7, 13};
  using lagraph::BfsVariant;
  trip_every_ordinal("bfs", [&] {
    return lagraph::bfs(dir, 1, BfsVariant::direction_optimizing);
  });
  trip_every_ordinal("bfs_level_ms",
                     [&] { return lagraph::bfs_level_ms(und, src); });
  trip_every_ordinal("sssp_bellman_ford",
                     [&] { return lagraph::sssp_bellman_ford(wdir, 1); });
  trip_every_ordinal("sssp_bellman_ford_ms",
                     [&] { return lagraph::sssp_bellman_ford_ms(wdir, src); });
  trip_every_ordinal("sssp_delta_stepping", [&] {
    return lagraph::sssp_delta_stepping(wdir, 1, 3.0);
  });
  trip_every_ordinal("apsp", [&] { return lagraph::apsp_run(und); });
  trip_every_ordinal("pagerank",
                     [&] { return lagraph::pagerank(dir, 0.85, 1e-4, 20); });
  trip_every_ordinal("pagerank_personalized_ms", [&] {
    return lagraph::pagerank_personalized_ms(dir, src, 0.85, 1e-4, 20);
  });
  trip_every_ordinal("betweenness",
                     [&] { return lagraph::betweenness_run(und, src); });
  trip_every_ordinal("ktruss", [&] { return lagraph::ktruss_run(und, 3); });
  trip_every_ordinal("connected_components",
                     [&] { return lagraph::connected_components_run(und); });
  trip_every_ordinal("strongly_connected_components", [&] {
    return lagraph::strongly_connected_components_run(dir);
  });
  trip_every_ordinal("kcore", [&] { return lagraph::kcore_run(und); });
  trip_every_ordinal("mis", [&] { return lagraph::mis_run(und); });
  trip_every_ordinal("coloring", [&] { return lagraph::coloring_run(und); });
  trip_every_ordinal("maximal_matching",
                     [&] { return lagraph::maximal_matching_run(und); });
  trip_every_ordinal("mcl", [&] { return lagraph::mcl(und, 2.0, 3); });
  trip_every_ordinal("peer_pressure",
                     [&] { return lagraph::peer_pressure(und, 8); });
  trip_every_ordinal("astar", [&] {
    return lagraph::astar_run(und, 0, 20, gb::Vector<double>(24));
  });
  const gb::Matrix<double> y0 = lagraph::random_matrix(4, 12, 20, 44);
  const std::vector<gb::Matrix<double>> weights{
      lagraph::random_matrix(12, 12, 30, 45),
      lagraph::random_matrix(12, 12, 30, 46)};
  trip_every_ordinal("dnn", [&] {
    return lagraph::dnn_inference_run(y0, weights, {-0.05, -0.05});
  });
  const gb::Matrix<double> features = lagraph::random_matrix(24, 4, 40, 47);
  const std::vector<gb::Matrix<double>> layers{
      lagraph::random_matrix(4, 4, 10, 48), lagraph::random_matrix(4, 2, 6, 49)};
  trip_every_ordinal("gcn", [&] {
    return lagraph::gcn_inference_run(und, features, layers);
  });
}

// --- multi-source drivers: whole-batch resume determinism ------------------

TEST(BatchResume, BfsMsCheckpointCarriesTheWholeBatch) {
  const std::vector<gb::Index> sources{0, 9, 20};
  testutil::soak_resume_determinism(
      "bfs_level_ms", Soak::warm, [] { return ring(32); },
      [&](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::bfs_level_ms(g, sources, cp);
      },
      [](const lagraph::BfsMsResult& r) {
        return std::make_pair(tuples(r.level), r.depth);
      });
}

TEST(BatchResume, SsspMsCheckpointCarriesTheWholeBatch) {
  const std::vector<gb::Index> sources{0, 5, 11};
  testutil::soak_resume_determinism(
      "sssp_bellman_ford_ms", Soak::warm, [] { return ring(24); },
      [&](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::sssp_bellman_ford_ms(g, sources, cp);
      },
      [](const lagraph::SsspMsResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      });
}

TEST(BatchResume, PprMsCheckpointCarriesTheWholeBatch) {
  const std::vector<gb::Index> sources{0, 8, 15};
  soak_warm_and_cold(
      "pagerank_personalized_ms", [] { return path(24); },
      [&](const lagraph::Graph& g, const Checkpoint* cp) {
        return lagraph::pagerank_personalized_ms(g, sources, 0.85, 1e-9, 60,
                                                 cp);
      },
      [](const lagraph::PprMsResult& r) {
        return std::make_tuple(tuples(r.rank), r.iterations, r.row_stop,
                               r.rounds);
      });
}

// --- Capsule compatibility ---------------------------------------------------
//
// Capsules outlive the process that wrote them (Runner persistence), so each
// driver's tag, slot names, slot kinds and element types are a file format.
// These tests pin them: the capsule an early trip captures must carry the
// listed slots and nothing else, each readable through its typed getter,
// and a capsule rebuilt slot by slot through the typed setters must resume
// to the uninterrupted result.

namespace {

enum class Slot { u64, i64, f64, u64s, i64s, vu64, vi64, vf64, vbool, mf64, mi64, mbool };
using Slots = std::vector<std::pair<std::string, Slot>>;

/// Re-writes `cp` one named slot at a time through the typed accessors; a
/// getter throws if its slot is missing or has another kind or element type.
Checkpoint rewrite(const Checkpoint& cp, const Slots& slots) {
  Checkpoint out;
  out.set_algorithm(cp.algorithm());
  for (const auto& [name, kind] : slots) {
    switch (kind) {
      case Slot::u64: out.put_u64(name, cp.get_u64(name)); break;
      case Slot::i64: out.put_i64(name, cp.get_i64(name)); break;
      case Slot::f64: out.put_f64(name, cp.get_f64(name)); break;
      case Slot::u64s:
        out.put_array(name, cp.get_array<std::uint64_t>(name));
        break;
      case Slot::i64s:
        out.put_array(name, cp.get_array<std::int64_t>(name));
        break;
      case Slot::vu64:
        out.put_vector(name, cp.get_vector<std::uint64_t>(name));
        break;
      case Slot::vi64:
        out.put_vector(name, cp.get_vector<std::int64_t>(name));
        break;
      case Slot::vf64: out.put_vector(name, cp.get_vector<double>(name)); break;
      case Slot::vbool: out.put_vector(name, cp.get_vector<bool>(name)); break;
      case Slot::mf64: out.put_matrix(name, cp.get_matrix<double>(name)); break;
      case Slot::mi64:
        out.put_matrix(name, cp.get_matrix<std::int64_t>(name));
        break;
      case Slot::mbool: out.put_matrix(name, cp.get_matrix<bool>(name)); break;
    }
  }
  return out;
}

std::string image(const Checkpoint& cp) {
  std::ostringstream out;
  cp.save(out);
  return out.str();
}

/// Interrupts `run` at poll ordinals 0, 1, 2, ... and returns the first
/// capsule for which `want` holds.
template <class Run, class Want>
Checkpoint first_capsule(Run&& run, Want&& want) {
  for (std::uint64_t n = 0; n < 100000; ++n) {
    Checkpoint cp;
    {
      Governor gov;
      GovernorScope s(&gov);
      ScopedTripAfter trip(n, Governor::Trip::cancel);
      auto part = run(nullptr);
      if (!lagraph::is_interruption(part.stop)) break;
      cp = std::move(part.checkpoint);
    }
    if (!cp.empty() && want(cp)) return cp;
  }
  ADD_FAILURE() << "no poll ordinal produced the wanted capsule";
  return {};
}

/// Pins one driver's capsule: `slots_of(cp)` lists every slot the capsule
/// must hold. Checks the tag, that the typed re-write reproduces the image
/// byte for byte (so no slot is missing, extra or of another type), and
/// that resuming from the re-written capsule finishes with the baseline.
template <class Run, class Extract, class SlotsOf, class Want>
void pin_capsule(const char* tag, Run&& run, Extract&& extract,
                 SlotsOf&& slots_of, Want&& want) {
  const auto want_result = extract(run(nullptr));
  const Checkpoint cp = first_capsule(run, want);
  ASSERT_FALSE(cp.empty()) << tag;
  EXPECT_EQ(cp.algorithm(), tag);
  Checkpoint typed;
  ASSERT_NO_THROW(typed = rewrite(cp, slots_of(cp))) << tag;
  EXPECT_EQ(image(typed), image(cp))
      << tag << ": capsule slots differ from the pinned list";
  auto resumed = run(&typed);
  ASSERT_FALSE(lagraph::is_interruption(resumed.stop)) << tag;
  EXPECT_EQ(extract(resumed), want_result) << tag;
}

template <class Run, class Extract>
void pin_capsule(const char* tag, Run&& run, Extract&& extract,
                 const Slots& slots) {
  pin_capsule(
      tag, run, extract, [&](const Checkpoint&) { return slots; },
      [](const Checkpoint&) { return true; });
}

/// `<name>_count` plus `<name>0 .. <name>{count-1}`, all of kind `k`.
void append_list(Slots& s, const Checkpoint& cp, const std::string& name,
                 Slot k) {
  s.emplace_back(name + "_count", Slot::u64);
  const std::uint64_t count = cp.get_u64(name + "_count");
  for (std::uint64_t i = 0; i < count; ++i) {
    s.emplace_back(name + std::to_string(i), k);
  }
}

}  // namespace

TEST(CapsuleCompat, Bfs) {
  auto g = er(64, 320, 22);
  pin_capsule(
      "bfs",
      [&](const Checkpoint* cp) {
        return lagraph::bfs(g, 0, lagraph::BfsVariant::direction_optimizing,
                            cp);
      },
      [](const lagraph::BfsResult& r) {
        return std::make_tuple(tuples(r.level), tuples(r.parent), r.depth,
                               r.directions);
      },
      Slots{{"level", Slot::vi64},
            {"parent", Slot::vi64},
            {"frontier", Slot::vu64},
            {"depth", Slot::i64},
            {"dir", Slot::u64},
            {"prev_density", Slot::f64},
            {"directions", Slot::u64s}});
}

TEST(CapsuleCompat, BfsLevelMs) {
  auto g = ring(32);
  const std::vector<gb::Index> sources{0, 9, 20};
  pin_capsule(
      "bfs_level_ms",
      [&](const Checkpoint* cp) {
        return lagraph::bfs_level_ms(g, sources, cp);
      },
      [](const lagraph::BfsMsResult& r) {
        return std::make_pair(tuples(r.level), r.depth);
      },
      Slots{{"level", Slot::mi64},
            {"frontier", Slot::mf64},
            {"depth", Slot::i64},
            {"sources", Slot::u64s}});
}

TEST(CapsuleCompat, SsspBellmanFord) {
  auto g = ring(40);
  pin_capsule(
      "sssp_bellman_ford",
      [&](const Checkpoint* cp) {
        return lagraph::sssp_bellman_ford(g, 0, cp);
      },
      [](const lagraph::SsspResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      },
      Slots{{"dist", Slot::vf64},
            {"iterations", Slot::i64},
            {"changed", Slot::u64}});
}

TEST(CapsuleCompat, SsspBellmanFordMs) {
  auto g = ring(24);
  const std::vector<gb::Index> sources{0, 5, 11};
  pin_capsule(
      "sssp_bellman_ford_ms",
      [&](const Checkpoint* cp) {
        return lagraph::sssp_bellman_ford_ms(g, sources, cp);
      },
      [](const lagraph::SsspMsResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      },
      Slots{{"dist", Slot::mf64},
            {"iterations", Slot::i64},
            {"changed", Slot::u64},
            {"sources", Slot::u64s}});
}

TEST(CapsuleCompat, SsspDeltaStepping) {
  lagraph::Graph g(lagraph::randomize_weights(lagraph::erdos_renyi(48, 120, 23),
                                              1.0, 8.0, 7),
                   lagraph::Kind::directed);
  pin_capsule(
      "sssp_delta_stepping",
      [&](const Checkpoint* cp) {
        return lagraph::sssp_delta_stepping(g, 0, 3.0, cp);
      },
      [](const lagraph::SsspResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      },
      Slots{{"dist", Slot::vf64},
            {"settled", Slot::vbool},
            {"iterations", Slot::i64}});
}

TEST(CapsuleCompat, Apsp) {
  auto g = er(24, 40, 24);
  pin_capsule(
      "apsp", [&](const Checkpoint* cp) { return lagraph::apsp_run(g, cp); },
      [](const lagraph::ApspResult& r) {
        return std::make_pair(tuples(r.d), r.rounds);
      },
      Slots{{"d", Slot::mf64}, {"rounds", Slot::i64}});
}

TEST(CapsuleCompat, Pagerank) {
  auto g = path(48);
  pin_capsule(
      "pagerank",
      [&](const Checkpoint* cp) {
        return lagraph::pagerank(g, 0.85, 1e-12, 80, cp);
      },
      [](const lagraph::PageRankResult& r) {
        return std::make_tuple(tuples(r.rank), r.iterations, r.residual);
      },
      Slots{{"rank", Slot::vf64},
            {"iterations", Slot::i64},
            {"residual", Slot::f64}});
}

TEST(CapsuleCompat, PagerankPersonalizedMs) {
  auto g = path(24);
  const std::vector<gb::Index> sources{0, 8, 15};
  const Slots slots{{"frozen", Slot::mf64},   {"active_rank", Slot::mf64},
                    {"active", Slot::u64s},   {"iterations", Slot::i64s},
                    {"row_stop", Slot::u64s}, {"rounds", Slot::i64},
                    {"sources", Slot::u64s}};
  auto run = [&](const Checkpoint* cp) {
    return lagraph::pagerank_personalized_ms(g, sources, 0.85, 1e-9, 60, cp);
  };
  auto extract = [](const lagraph::PprMsResult& r) {
    return std::make_tuple(tuples(r.rank), r.iterations, r.row_stop,
                           r.rounds);
  };
  pin_capsule("pagerank_personalized_ms", run, extract, slots);
  // And a capsule taken after some rows froze (frozen tuples present): on
  // this graph rows 1 and 2 converge three rounds before row 0.
  auto er24 = er(24, 40, 3);
  pin_capsule(
      "pagerank_personalized_ms",
      [&](const Checkpoint* cp) {
        return lagraph::pagerank_personalized_ms(er24, sources, 0.85, 1e-4,
                                                 60, cp);
      },
      extract, [&](const Checkpoint&) { return slots; },
      [](const Checkpoint& cp) {
        return cp.get_matrix<double>("frozen").nvals() > 0;
      });
}

TEST(CapsuleCompat, PagerankPersonalized) {
  auto g = path(24);
  pin_capsule(
      "pagerank_personalized_ms",
      [&](const Checkpoint* cp) {
        return lagraph::pagerank_personalized(g, 3, 0.85, 1e-9, 60, cp);
      },
      [](const lagraph::PprResult& r) {
        return std::make_tuple(tuples(r.rank), r.iterations, r.converged);
      },
      Slots{{"frozen", Slot::mf64},
            {"active_rank", Slot::mf64},
            {"active", Slot::u64s},
            {"iterations", Slot::i64s},
            {"row_stop", Slot::u64s},
            {"rounds", Slot::i64},
            {"sources", Slot::u64s}});
}

TEST(CapsuleCompat, Betweenness) {
  auto g = path(24);
  const std::vector<gb::Index> sources{0, 5, 11};
  auto run = [&](const Checkpoint* cp) {
    return lagraph::betweenness_run(g, sources, cp);
  };
  auto extract = [](const lagraph::BcResult& r) {
    return std::make_pair(tuples(r.centrality), r.levels);
  };
  auto slots_of = [](const Checkpoint& cp) {
    Slots s{{"phase", Slot::u64}, {"d", Slot::u64}, {"paths", Slot::mf64}};
    append_list(s, cp, "level", Slot::mbool);
    const std::uint64_t phase = cp.get_u64("phase");
    if (phase == 0) s.emplace_back("frontier", Slot::mf64);
    if (phase == 2) s.emplace_back("bcu", Slot::mf64);
    return s;
  };
  // A forward-sweep and a backward-sweep capsule. Phase 1 (sweep done, the
  // dependency seed next) holds no slot the others lack, and whether its
  // round reaches a poll point to trip depends on the storage form.
  for (std::uint64_t phase : {0, 2}) {
    pin_capsule("betweenness", run, extract, slots_of,
                [&](const Checkpoint& cp) {
                  return cp.get_u64("phase") == phase;
                });
  }
}

TEST(CapsuleCompat, Ktruss) {
  auto g = er(64, 300, 26);
  pin_capsule(
      "ktruss", [&](const Checkpoint* cp) { return lagraph::ktruss_run(g, 4, cp); },
      [](const lagraph::KtrussResult& r) {
        return std::make_tuple(tuples(r.c), r.nedges, r.rounds);
      },
      Slots{{"c", Slot::mi64}, {"rounds", Slot::i64}});
}

TEST(CapsuleCompat, ConnectedComponents) {
  auto g = er(64, 128, 7);
  pin_capsule(
      "connected_components",
      [&](const Checkpoint* cp) {
        return lagraph::connected_components_run(g, cp);
      },
      [](const lagraph::CcResult& r) {
        return std::make_pair(tuples(r.labels), r.rounds);
      },
      Slots{{"f", Slot::vu64}, {"rounds", Slot::i64}});
}

TEST(CapsuleCompat, StronglyConnectedComponents) {
  lagraph::Graph g(lagraph::erdos_renyi(48, 110, 25, false),
                   lagraph::Kind::directed);
  auto run = [&](const Checkpoint* cp) {
    return lagraph::strongly_connected_components_run(g, cp);
  };
  auto extract = [](const lagraph::SccResult& r) {
    return std::make_pair(tuples(r.labels), r.pivots);
  };
  auto slots_of = [](const Checkpoint& cp) {
    Slots s{{"label", Slot::vu64}, {"pivots", Slot::i64}};
    append_list(s, cp, "work", Slot::vbool);
    return s;
  };
  // A first-pivot capsule, and one whose work list has split.
  pin_capsule("strongly_connected_components", run, extract, slots_of,
              [](const Checkpoint&) { return true; });
  pin_capsule("strongly_connected_components", run, extract, slots_of,
              [](const Checkpoint& cp) { return cp.get_u64("work_count") > 1; });
}

TEST(CapsuleCompat, Kcore) {
  auto g = er(64, 200, 27);
  pin_capsule(
      "kcore", [&](const Checkpoint* cp) { return lagraph::kcore_run(g, cp); },
      [](const lagraph::KcoreResult& r) {
        return std::make_pair(tuples(r.coreness), r.k);
      },
      Slots{{"coreness", Slot::vu64}, {"alive", Slot::vbool}, {"k", Slot::u64}});
}

TEST(CapsuleCompat, Mis) {
  auto g = er(64, 160, 28);
  pin_capsule(
      "mis", [&](const Checkpoint* cp) { return lagraph::mis_run(g, 42, cp); },
      [](const lagraph::MisResult& r) {
        return std::make_pair(tuples(r.set), r.rounds);
      },
      Slots{{"iset", Slot::vbool},
            {"candidates", Slot::vbool},
            {"round", Slot::u64}});
}

TEST(CapsuleCompat, Coloring) {
  auto g = er(64, 160, 29);
  pin_capsule(
      "coloring",
      [&](const Checkpoint* cp) { return lagraph::coloring_run(g, 42, cp); },
      [](const lagraph::ColoringResult& r) {
        return std::make_pair(tuples(r.colors), r.rounds);
      },
      Slots{{"color", Slot::vu64},
            {"uncolored", Slot::vbool},
            {"round", Slot::u64}});
}

TEST(CapsuleCompat, MaximalMatching) {
  auto g = er(64, 160, 30);
  pin_capsule(
      "maximal_matching",
      [&](const Checkpoint* cp) {
        return lagraph::maximal_matching_run(g, 42, cp);
      },
      [](const lagraph::MatchingResult& r) {
        return std::make_pair(tuples(r.mate), r.rounds);
      },
      Slots{{"mate", Slot::vu64},
            {"candidates", Slot::vbool},
            {"rounds", Slot::i64}});
}

TEST(CapsuleCompat, Mcl) {
  auto g = er(32, 64, 31);
  pin_capsule(
      "mcl",
      [&](const Checkpoint* cp) { return lagraph::mcl(g, 2.0, 100, 1e-6, cp); },
      [](const lagraph::ClusterResult& r) {
        return std::make_tuple(tuples(r.labels), r.iterations, r.residual);
      },
      Slots{{"m", Slot::mf64},
            {"iterations", Slot::i64},
            {"residual", Slot::f64}});
}

TEST(CapsuleCompat, PeerPressure) {
  auto g = er(48, 120, 32);
  pin_capsule(
      "peer_pressure",
      [&](const Checkpoint* cp) { return lagraph::peer_pressure(g, 50, cp); },
      [](const lagraph::ClusterResult& r) {
        return std::make_tuple(tuples(r.labels), r.iterations, r.residual);
      },
      Slots{{"label", Slot::u64s},
            {"iterations", Slot::i64},
            {"residual", Slot::f64}});
}

TEST(CapsuleCompat, AStar) {
  auto g = path(32);
  pin_capsule(
      "astar",
      [&](const Checkpoint* cp) {
        return lagraph::astar_run(g, 0, 31, gb::Vector<double>(32), cp);
      },
      [](const lagraph::AStarResult& r) {
        return std::make_tuple(r.distance, r.path, r.expanded);
      },
      Slots{{"dist", Slot::vf64},
            {"closed", Slot::vbool},
            {"parent", Slot::vu64},
            {"expanded", Slot::u64}});
}

TEST(CapsuleCompat, DnnInference) {
  const gb::Matrix<double> y0 = lagraph::random_matrix(8, 24, 40, 11);
  std::vector<gb::Matrix<double>> weights;
  for (unsigned l = 0; l < 4; ++l) {
    weights.push_back(lagraph::random_matrix(24, 24, 60, 100 + l));
  }
  const std::vector<double> biases(4, -0.05);
  pin_capsule(
      "dnn",
      [&](const Checkpoint* cp) {
        return lagraph::dnn_inference_run(y0, weights, biases, 32.0, cp);
      },
      [](const lagraph::DnnResult& r) {
        return std::make_pair(tuples(r.y), r.layers_done);
      },
      Slots{{"y", Slot::mf64}, {"layers_done", Slot::i64}});
}

TEST(CapsuleCompat, GcnInference) {
  auto g = er(32, 80, 37);
  const gb::Matrix<double> features = lagraph::random_matrix(32, 8, 90, 33);
  const std::vector<gb::Matrix<double>> weights{
      lagraph::random_matrix(8, 8, 40, 34), lagraph::random_matrix(8, 4, 20, 36)};
  pin_capsule(
      "gcn",
      [&](const Checkpoint* cp) {
        return lagraph::gcn_inference_run(g, features, weights, cp);
      },
      [](const lagraph::GcnResult& r) {
        return std::make_pair(tuples(r.h), r.layers_done);
      },
      Slots{{"h", Slot::mf64}, {"layers_done", Slot::i64}});
}

// --- Runner ----------------------------------------------------------------

TEST(Runner, CompletesUngovernedRunInOneSlice) {
  lagraph::Runner runner;
  auto g = ring(32);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 100, cp);
  });
  EXPECT_EQ(res.stop, StopReason::converged);
  EXPECT_EQ(runner.report().slices, 1);
  EXPECT_EQ(runner.report().retries, 0);
  EXPECT_EQ(runner.report().degradations, 0);
  EXPECT_FALSE(runner.report().gave_up);
  EXPECT_FALSE(runner.report().resumed_from_file);
}

TEST(Runner, SlicedRunMatchesStraightThrough) {
  // A generous per-slice deadline: whether the run takes one slice or
  // several, the stitched-together result must equal the unsliced one.
  auto g = path(64);
  const auto base = lagraph::pagerank(g, 0.85, 1e-12, 120);

  lagraph::RunnerOptions opts;
  opts.slice_ms = 5.0;
  lagraph::Runner runner(opts);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-12, 120, cp);
  });
  ASSERT_FALSE(lagraph::is_interruption(res.stop));
  EXPECT_GE(runner.report().slices, 1);
  EXPECT_EQ(tuples(res.rank), tuples(base.rank));
  EXPECT_EQ(res.iterations, base.iterations);
}

TEST(Runner, LadderThenRetriesRecoverFromTightBudget) {
  // 2 KiB per slice cannot hold even one iteration's temporaries, so the
  // first slices trip out_of_memory; the ladder climbs its two rungs,
  // then retries escalate the budget until an attempt fits. The recovered
  // answer must equal an unconstrained run.
  auto g = ring(128);
  const auto base = lagraph::pagerank(g, 0.85, 1e-9, 100);

  lagraph::RunnerOptions opts;
  opts.slice_budget = 2048;
  opts.retry.max_attempts = 14;
  opts.retry.backoff_ms = 0.01;  // keep the test fast
  opts.retry.budget_growth = 2.0;
  lagraph::Runner runner(opts);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 100, cp);
  });
  ASSERT_FALSE(lagraph::is_interruption(res.stop));
  EXPECT_FALSE(runner.report().gave_up);
  EXPECT_EQ(runner.report().degradations, 2);
  EXPECT_GE(runner.report().retries, 1);
  EXPECT_EQ(tuples(res.rank), tuples(base.rank));
}

TEST(Runner, GivesUpWhenBudgetNeverFits) {
  // 64 bytes with no escalation: every rung and every retry trips, and the
  // Runner hands back the partial result instead of looping forever.
  auto g = ring(64);
  lagraph::RunnerOptions opts;
  opts.slice_budget = 64;
  opts.retry.max_attempts = 2;
  opts.retry.backoff_ms = 0.01;
  opts.retry.budget_growth = 1.0;
  lagraph::Runner runner(opts);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 50, cp);
  });
  EXPECT_EQ(res.stop, StopReason::out_of_memory);
  EXPECT_TRUE(runner.report().gave_up);
  EXPECT_EQ(runner.report().degradations, 2);
  EXPECT_EQ(runner.report().retries, 2);
}

TEST(Runner, CancelSurfacesImmediatelyAndIsNeverRetried) {
  lagraph::Runner runner;
  runner.governor().cancel();
  auto g = ring(64);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 50, cp);
  });
  EXPECT_EQ(res.stop, StopReason::cancelled);
  EXPECT_EQ(runner.report().slices, 1);
  EXPECT_EQ(runner.report().retries, 0);
  EXPECT_FALSE(runner.report().gave_up);
}

TEST(Runner, SliceCapStopsNoProgressLoops) {
  // A sticky deadline trip makes every slice time out without progress;
  // max_slices must convert the would-be infinite cadence into a clean
  // give-up that still reports the timeout.
  auto g = ring(64);
  lagraph::RunnerOptions opts;
  opts.slice_ms = 1e9;  // slicing enabled, wall clock never the stopper
  opts.max_slices = 5;
  lagraph::Runner runner(opts);
  // Low ordinal: the fused iteration body polls a handful of times per
  // round, and the trip must land inside the run, not after convergence.
  ScopedTripAfter trip(3, Governor::Trip::deadline);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 50, cp);
  });
  EXPECT_EQ(res.stop, StopReason::timeout);
  EXPECT_TRUE(runner.report().gave_up);
  EXPECT_EQ(runner.report().slices, 5);
}

TEST(Runner, PersistsCheckpointAndResumesFromFile) {
  const std::string file = ::testing::TempDir() + "lagraph_runner_resume.lacp";
  std::remove(file.c_str());
  auto g = path(48);
  const auto base = lagraph::pagerank(g, 0.85, 1e-12, 100);

  // First process: interrupted mid-run, capsule persisted.
  {
    lagraph::RunnerOptions opts;
    opts.checkpoint_path = file;
    lagraph::Runner runner(opts);
    ScopedTripAfter trip(60, Governor::Trip::cancel);
    auto res = runner.run([&](const Checkpoint* cp) {
      return lagraph::pagerank(g, 0.85, 1e-12, 100, cp);
    });
    ASSERT_EQ(res.stop, StopReason::cancelled);
    std::ifstream probe(file, std::ios::binary);
    ASSERT_TRUE(probe.good()) << "interrupted slice did not persist";
  }

  // Second process: picks the capsule up, finishes, retires the file, and
  // the stitched result is exactly the uninterrupted one.
  {
    lagraph::RunnerOptions opts;
    opts.checkpoint_path = file;
    lagraph::Runner runner(opts);
    auto res = runner.run([&](const Checkpoint* cp) {
      return lagraph::pagerank(g, 0.85, 1e-12, 100, cp);
    });
    ASSERT_FALSE(lagraph::is_interruption(res.stop));
    EXPECT_TRUE(runner.report().resumed_from_file);
    EXPECT_EQ(tuples(res.rank), tuples(base.rank));
    EXPECT_EQ(res.iterations, base.iterations);
    std::ifstream probe(file, std::ios::binary);
    EXPECT_FALSE(probe.good()) << "completed run did not retire the capsule";
  }
}

TEST(Runner, CorruptCheckpointFileRestartsFresh) {
  // A corrupt capsule is indistinguishable from a missing one by design:
  // the run restarts from scratch and still completes correctly.
  const std::string file = ::testing::TempDir() + "lagraph_runner_corrupt.lacp";
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << "LACPgarbage-not-a-capsule";
  }
  auto g = ring(32);
  const auto base = lagraph::pagerank(g, 0.85, 1e-9, 100);
  lagraph::RunnerOptions opts;
  opts.checkpoint_path = file;
  lagraph::Runner runner(opts);
  auto res = runner.run([&](const Checkpoint* cp) {
    return lagraph::pagerank(g, 0.85, 1e-9, 100, cp);
  });
  ASSERT_FALSE(lagraph::is_interruption(res.stop));
  EXPECT_FALSE(runner.report().resumed_from_file);
  EXPECT_EQ(tuples(res.rank), tuples(base.rank));
  // Completion retires even a corrupt leftover.
  std::ifstream probe(file, std::ios::binary);
  EXPECT_FALSE(probe.good());
}
