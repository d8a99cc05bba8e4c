// Tests for the resumable-execution layer:
//
//   * Checkpoint — stream/file round-trips, and rejection of corrupt, torn,
//     truncated, and trailing-garbage capsules (load() validates sizes and
//     the CRC before unpacking, so a bad file never becomes a bad object);
//   * resume determinism — an interrupted run resumed from its capsule must
//     be bit-identical to an uninterrupted run, for every poll ordinal the
//     trip can land on and at several OpenMP widths;
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

// Drives `run` with the trip landing on every sampled poll ordinal. For
// each interruption: the capsule (if captured) is resumed ungoverned and
// the final result must equal the uninterrupted baseline exactly — the
// contract every `*_run` driver documents. Returns once an ordinal
// survives the whole run untripped.
template <class Run, class Extract>
void soak_resume_determinism(const char* name, Run&& run, Extract&& extract) {
  const auto base = run(nullptr);
  ASSERT_FALSE(lagraph::is_interruption(base.stop)) << name;
  const auto want = extract(base);

  constexpr std::uint64_t kMaxN = 200000;
  std::uint64_t stride = 1;
  for (std::uint64_t n = 0; n < kMaxN; n += stride) {
    Checkpoint cp;
    bool interrupted = false;
    {
      Governor gov;
      GovernorScope s(&gov);
      ScopedTripAfter trip(n, Governor::Trip::cancel);
      auto part = run(nullptr);
      interrupted = lagraph::is_interruption(part.stop);
      if (interrupted) {
        EXPECT_EQ(part.stop, StopReason::cancelled)
            << name << " at poll " << n;
        cp = std::move(part.checkpoint);
      }
    }
    if (!interrupted) return;  // the whole run fits under this ordinal
    // An empty capsule means capture was impossible (trip during setup):
    // resuming from scratch is the documented fallback.
    auto resumed = cp.empty() ? run(nullptr) : run(&cp);
    ASSERT_FALSE(lagraph::is_interruption(resumed.stop))
        << name << " resumed run tripped with the governor gone, poll " << n;
    EXPECT_EQ(extract(resumed), want)
        << name << ": interrupted at poll " << n
        << " + resume differs from the uninterrupted run";
    // Dense early coverage (setup, first iterations), geometric tail.
    if (n >= 24) stride = 1 + n / 3;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace

TEST(ResumeDeterminism, Pagerank) {
  auto g = path(48);
  soak_resume_determinism(
      "pagerank",
      [&](const Checkpoint* cp) {
        return lagraph::pagerank(g, 0.85, 1e-12, 80, cp);
      },
      [](const lagraph::PageRankResult& r) {
        return std::make_tuple(tuples(r.rank), r.iterations, r.residual,
                               r.converged);
      });
}

TEST(ResumeDeterminism, BfsPush) {
  auto g = ring(48);
  soak_resume_determinism(
      "bfs",
      [&](const Checkpoint* cp) {
        return lagraph::bfs(g, 3, lagraph::BfsVariant::push, cp);
      },
      [](const lagraph::BfsResult& r) {
        return std::make_tuple(tuples(r.level), tuples(r.parent), r.depth);
      });
}

TEST(ResumeDeterminism, SsspBellmanFord) {
  auto g = ring(40);
  soak_resume_determinism(
      "sssp",
      [&](const Checkpoint* cp) {
        return lagraph::sssp_bellman_ford(g, 0, cp);
      },
      [](const lagraph::SsspResult& r) {
        return std::make_pair(tuples(r.dist), r.iterations);
      });
}

TEST(ResumeDeterminism, ConnectedComponents) {
  lagraph::Graph g(lagraph::erdos_renyi(64, 128, 7), lagraph::Kind::undirected);
  soak_resume_determinism(
      "cc",
      [&](const Checkpoint* cp) {
        return lagraph::connected_components_run(g, cp);
      },
      [](const lagraph::CcResult& r) { return tuples(r.labels); });
}

TEST(ResumeDeterminism, Betweenness) {
  auto g = path(24);
  const std::vector<gb::Index> sources{0, 5, 11};
  soak_resume_determinism(
      "bc",
      [&](const Checkpoint* cp) {
        return lagraph::betweenness_run(g, sources, cp);
      },
      [](const lagraph::BcResult& r) {
        return std::make_pair(tuples(r.centrality), r.levels);
      });
}

TEST(ResumeDeterminism, AStar) {
  auto g = path(32);
  soak_resume_determinism(
      "astar",
      [&](const Checkpoint* cp) {
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
  soak_resume_determinism(
      "dnn",
      [&](const Checkpoint* cp) {
        return lagraph::dnn_inference_run(y0, weights, biases, 32.0, cp);
      },
      [](const lagraph::DnnResult& r) {
        return std::make_pair(tuples(r.y), r.layers_done);
      });
}

#ifdef _OPENMP
TEST(ResumeDeterminism, StableAcrossThreadCounts) {
  // The capsule must not bake in the parallel schedule: a run interrupted
  // and resumed at 1, 2, and 4 threads lands on the same answer each time.
  auto g = path(48);
  const int saved = omp_get_max_threads();
  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    soak_resume_determinism(
        ("pagerank@" + std::to_string(t)).c_str(),
        [&](const Checkpoint* cp) {
          return lagraph::pagerank(g, 0.85, 1e-10, 60, cp);
        },
        [](const lagraph::PageRankResult& r) {
          return std::make_pair(tuples(r.rank), r.iterations);
        });
  }
  omp_set_num_threads(saved);
}
#endif  // _OPENMP

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
