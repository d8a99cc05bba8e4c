// Batched multi-source execution suite (the coalescing PR's tentpole
// contract):
//
//   * the multi-source drivers (bfs_level_ms / sssp_bellman_ford_ms /
//     pagerank_personalized_ms) are bit-identical PER ROW to k independent
//     single-source runs — at 1/2/4 OpenMP threads and across sparse/bitmap
//     storage forms (their whole-batch resume soaks live in
//     test_runner.cpp, with every other driver's);
//   * the platform coalescing stage groups submit_coalesced requests by key
//     up to batch_max, dispatches a batch as one governed unit, and keeps
//     the per-member submit/poll/wait/cancel contract: a member cancel masks
//     one row and never kills the batch;
//   * the GraphService batch planner de-batches per-client results that
//     match unbatched runs exactly, survives alloc-fault injection on the
//     coalescing submit path, and returns per-row partial results when the
//     batch's governor trips mid-run.
//
// Like test_service.cpp, everything here must be TSan-clean: any data-race
// report is a real contract violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
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
#include "lagraph/serving.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/alloc.hpp"
#include "platform/governor.hpp"
#include "platform/service.hpp"

using gb::Index;
using gb::platform::Governor;
using gb::platform::GovernorScope;
using gb::platform::ScopedFailAfter;
using gb::platform::ScopedTripAfter;
using gb::platform::Service;
using gb::platform::ServicePolicy;
using gb::platform::ServiceStats;
using lagraph::Graph;
using lagraph::GraphService;
using lagraph::ServiceJobResult;
using lagraph::StopReason;

namespace {

// Same env priming as the service/runner suites: the ambient byte budget
// must never interfere with these tests.
const bool env_primed = [] {
  ::setenv("LAGRAPH_MEM_BUDGET", "109951162777600", 1);  // 100 TiB
  return true;
}();

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// RAII OpenMP thread-count override (same as the parallel suite).
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) {
#ifdef _OPENMP
    before_ = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(before_);
#endif
  }

 private:
  int before_ = 1;
};

Graph make_graph(std::uint64_t seed, gb::FormatMode fmt) {
  gb::Matrix<double> a = lagraph::randomize_weights(
      lagraph::erdos_renyi(64, 512, seed), 0.5, 2.0, seed);
  a.set_format(fmt);
  return Graph(std::move(a), lagraph::Kind::directed);
}

template <class T>
std::pair<std::vector<Index>, std::vector<double>> tuples(
    const gb::Vector<T>& v) {
  std::vector<Index> idx;
  std::vector<T> vals;
  v.extract_tuples(idx, vals);
  return {idx, std::vector<double>(vals.begin(), vals.end())};
}

/// Split a (k x n) batched result into per-row (idx, vals) pairs comparable
/// against single-source truth vectors.
template <class T>
std::vector<std::pair<std::vector<Index>, std::vector<double>>> split_rows(
    const gb::Matrix<T>& m, Index k) {
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> rows(
      static_cast<std::size_t>(k));
  std::vector<Index> ri, ci;
  std::vector<T> vi;
  m.extract_tuples(ri, ci, vi);
  for (std::size_t t = 0; t < ri.size(); ++t) {
    auto& row = rows[static_cast<std::size_t>(ri[t])];
    row.first.push_back(ci[t]);
    row.second.push_back(static_cast<double>(vi[t]));
  }
  return rows;
}

}  // namespace

// --- multi-source drivers: per-row bit-identity ------------------------------

TEST(BatchDrivers, BfsMsMatchesSoloRunsAcrossThreadsAndFormats) {
  const std::vector<Index> sources{0, 7, 13, 13, 40};  // duplicates legal
  for (gb::FormatMode fmt : {gb::FormatMode::sparse, gb::FormatMode::bitmap}) {
    Graph g = make_graph(11, fmt);
    std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
    for (Index s : sources) {
      truth.push_back(
          tuples(lagraph::bfs(g, s, lagraph::BfsVariant::push).level));
    }
    for (int threads : {1, 2, 4}) {
      ThreadGuard guard(threads);
      auto out = lagraph::bfs_level_ms(g, sources);
      ASSERT_EQ(out.stop, StopReason::none);
      auto rows = split_rows(out.level, static_cast<Index>(sources.size()));
      for (std::size_t r = 0; r < sources.size(); ++r) {
        EXPECT_EQ(rows[r], truth[r])
            << "bfs row " << r << " (source " << sources[r] << ") differs, "
            << threads << " threads, fmt " << static_cast<int>(fmt);
      }
    }
  }
}

TEST(BatchDrivers, SsspMsMatchesSoloRunsAcrossThreadsAndFormats) {
  const std::vector<Index> sources{2, 9, 31, 60};
  for (gb::FormatMode fmt : {gb::FormatMode::sparse, gb::FormatMode::bitmap}) {
    Graph g = make_graph(23, fmt);
    std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
    for (Index s : sources) {
      truth.push_back(tuples(lagraph::sssp_bellman_ford(g, s).dist));
    }
    for (int threads : {1, 2, 4}) {
      ThreadGuard guard(threads);
      auto out = lagraph::sssp_bellman_ford_ms(g, sources);
      ASSERT_EQ(out.stop, StopReason::converged);
      auto rows = split_rows(out.dist, static_cast<Index>(sources.size()));
      for (std::size_t r = 0; r < sources.size(); ++r) {
        // Exact equality: min-plus relaxation is order-insensitive and each
        // matrix row reads only its own carried distances.
        EXPECT_EQ(rows[r], truth[r])
            << "sssp row " << r << " (source " << sources[r] << ") differs, "
            << threads << " threads, fmt " << static_cast<int>(fmt);
      }
    }
  }
}

TEST(BatchDrivers, PprMsRowsMatchSingleSourceRuns) {
  const std::vector<Index> sources{0, 5, 17, 42};
  for (gb::FormatMode fmt : {gb::FormatMode::sparse, gb::FormatMode::bitmap}) {
    Graph g = make_graph(37, fmt);
    std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
    std::vector<std::int64_t> truth_iters;
    for (Index s : sources) {
      auto solo = lagraph::pagerank_personalized(g, s, 0.85, 1e-9, 100);
      truth.push_back(tuples(solo.rank));
      truth_iters.push_back(solo.iterations);
    }
    for (int threads : {1, 2, 4}) {
      ThreadGuard guard(threads);
      auto out = lagraph::pagerank_personalized_ms(g, sources, 0.85, 1e-9, 100);
      ASSERT_FALSE(lagraph::is_interruption(out.stop));
      ASSERT_EQ(out.iterations.size(), sources.size());
      auto rows = split_rows(out.rank, static_cast<Index>(sources.size()));
      for (std::size_t r = 0; r < sources.size(); ++r) {
        // Per-row freeze-on-convergence keeps every batched row bit-for-bit
        // equal to its solo run: same iteration count, same values.
        EXPECT_EQ(out.iterations[r], truth_iters[r]) << "ppr row " << r;
        EXPECT_EQ(rows[r], truth[r])
            << "ppr row " << r << " (seed " << sources[r] << ") differs, "
            << threads << " threads, fmt " << static_cast<int>(fmt);
      }
    }
  }
}

TEST(BatchDrivers, MsDriversValidateSources) {
  Graph g = make_graph(3, gb::FormatMode::sparse);
  EXPECT_THROW((void)lagraph::bfs_level_ms(g, {}), gb::Error);
  EXPECT_THROW((void)lagraph::bfs_level_ms(g, {999}), gb::Error);
  EXPECT_THROW((void)lagraph::sssp_bellman_ford_ms(g, {}), gb::Error);
  EXPECT_THROW((void)lagraph::sssp_bellman_ford_ms(g, {0, 999}), gb::Error);
  EXPECT_THROW((void)lagraph::pagerank_personalized_ms(g, {}), gb::Error);
  EXPECT_THROW((void)lagraph::pagerank_personalized_ms(g, {999}), gb::Error);
}

// --- platform coalescing stage ----------------------------------------------

TEST(ServiceBatch, CoalescesByKeyUpToBatchMax) {
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 16,
                            .batch_max = 2,
                            .batch_window_us = 1e4});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.submit([&](Governor& gov) {
    entered.store(true);
    while (!release.load() && !gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  std::mutex rec_m;
  std::vector<std::vector<std::uint64_t>> dispatched;  // args per batch run
  auto job = [&](Governor&, const Service::BatchView& view) {
    std::vector<std::uint64_t> args;
    for (std::size_t i = 0; i < view.size(); ++i) args.push_back(view.arg(i));
    std::lock_guard<std::mutex> lk(rec_m);
    dispatched.push_back(std::move(args));
  };

  // Three submissions on one key with batch_max = 2: the first two fill and
  // seal a batch, the third opens a second. Distinct keys never coalesce.
  std::vector<Service::Ticket> tickets;
  tickets.push_back(svc.submit_coalesced("k", 1, nullptr, job));
  tickets.push_back(svc.submit_coalesced("k", 2, nullptr, job));
  tickets.push_back(svc.submit_coalesced("k", 3, nullptr, job));
  tickets.push_back(svc.submit_coalesced("x", 4, nullptr, job));
  tickets.push_back(svc.submit_coalesced("y", 5, nullptr, job));

  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  for (auto& t : tickets) EXPECT_EQ(t.wait(), Service::State::done);

  {
    std::lock_guard<std::mutex> lk(rec_m);
    ASSERT_EQ(dispatched.size(), 4u);
    EXPECT_EQ(dispatched[0], (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(dispatched[1], (std::vector<std::uint64_t>{3}));
    EXPECT_EQ(dispatched[2], (std::vector<std::uint64_t>{4}));
    EXPECT_EQ(dispatched[3], (std::vector<std::uint64_t>{5}));
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 4u);
  EXPECT_EQ(st.batched_requests, 5u);
  EXPECT_EQ(st.submitted, 6u);  // 5 members + the blocker
  EXPECT_EQ(st.completed, 6u);
}

TEST(ServiceBatch, WindowZeroDispatchesImmediately) {
  // A zero window means a batch is mature the instant it opens: the default
  // config pays no coalescing latency even with the stage switched on.
  Service svc(ServicePolicy{.workers = 2,
                            .queue_limit = 16,
                            .batch_max = 8,
                            .batch_window_us = 0});
  std::atomic<int> runs{0};
  auto t = svc.submit_coalesced(
      "k", 7, nullptr,
      [&](Governor&, const Service::BatchView& view) {
        EXPECT_EQ(view.size(), 1u);
        EXPECT_EQ(view.arg(0), 7u);
        runs.fetch_add(1);
      });
  EXPECT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(runs.load(), 1);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 1u);
}

TEST(ServiceBatch, WindowIsHonouredByIdleWorkers) {
  // A non-zero window is the caller's latency budget for coalescing, and
  // idle workers respect it: two quick submissions against an otherwise
  // idle pool must land in ONE batch, dispatched no earlier than the
  // window. (A full batch would seal early; batch_max = 8 keeps it open.)
  Service svc(ServicePolicy{.workers = 2,
                            .queue_limit = 16,
                            .batch_max = 8,
                            .batch_window_us = 1e5});  // 100 ms
  const auto t_open = std::chrono::steady_clock::now();
  auto t0 = svc.submit_coalesced("k", 1, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  auto t1 = svc.submit_coalesced("k", 2, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  EXPECT_EQ(t0.wait(), Service::State::done);
  EXPECT_EQ(t1.wait(), Service::State::done);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_open)
          .count();
  EXPECT_GE(waited_ms, 80.0);  // dispatched only at maturity (clock fuzz)
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 2u);
}

TEST(ServiceBatch, FullBatchSealsBeforeTheWindowElapses) {
  // Reaching batch_max seals and dispatches without waiting out the window.
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 16,
                            .batch_max = 2,
                            .batch_window_us = 60e6});
  const auto t_open = std::chrono::steady_clock::now();
  auto t0 = svc.submit_coalesced("k", 1, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  auto t1 = svc.submit_coalesced("k", 2, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  EXPECT_EQ(t0.wait(), Service::State::done);
  EXPECT_EQ(t1.wait(), Service::State::done);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_open)
          .count();
  EXPECT_LT(waited_ms, 10e3);  // nowhere near the 60 s window
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 2u);
}

TEST(ServiceBatch, MemberCancelMasksTheRowNotTheBatch) {
  // batch_max == the number of submissions: the third submit seals the
  // batch, so the test never waits out the (long) window.
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 16,
                            .batch_max = 3,
                            .batch_window_us = 1e6});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.submit([&](Governor& gov) {
    entered.store(true);
    while (!release.load() && !gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  auto p0 = std::make_shared<std::uint64_t>(0);
  auto p1 = std::make_shared<std::uint64_t>(0);
  auto p2 = std::make_shared<std::uint64_t>(0);
  auto job = [](Governor&, const Service::BatchView& view) {
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (view.cancelled(i)) continue;  // masked row: payload untouched
      *static_cast<std::uint64_t*>(view.payload(i)) = view.arg(i) * 10;
    }
  };
  auto t0 = svc.submit_coalesced("k", 1, p0, job);
  auto t1 = svc.submit_coalesced("k", 2, p1, job);
  auto t2 = svc.submit_coalesced("k", 3, p2, job);
  t1.cancel();  // masks row 1 only

  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  EXPECT_EQ(t0.wait(), Service::State::done);
  EXPECT_EQ(t1.wait(), Service::State::cancelled);
  EXPECT_EQ(t2.wait(), Service::State::done);
  EXPECT_EQ(*p0, 10u);
  EXPECT_EQ(*p1, 0u);  // sibling cancel never touched this row's siblings
  EXPECT_EQ(*p2, 30u);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 3u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 3u);  // blocker + two live members
}

TEST(ServiceBatch, AllMembersCancelledSkipsDispatch) {
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 16,
                            .batch_max = 2,
                            .batch_window_us = 1e6});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.submit([&](Governor& gov) {
    entered.store(true);
    while (!release.load() && !gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  std::atomic<bool> ran{false};
  auto job = [&](Governor&, const Service::BatchView&) { ran.store(true); };
  auto t0 = svc.submit_coalesced("k", 1, nullptr, job);
  auto t1 = svc.submit_coalesced("k", 2, nullptr, job);
  t0.cancel();
  t1.cancel();
  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  EXPECT_EQ(t0.wait(), Service::State::cancelled);
  EXPECT_EQ(t1.wait(), Service::State::cancelled);
  EXPECT_FALSE(ran.load());
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(st.batched_requests, 0u);
  EXPECT_EQ(st.cancelled, 2u);
}

TEST(ServiceBatch, StopCancelsQueuedBatchMembers) {
  std::atomic<bool> entered{false};
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 16,
                            .batch_max = 4,
                            .batch_window_us = 60e6});
  auto blocker = svc.submit([&](Governor& gov) {
    entered.store(true);
    while (!gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);
  auto t0 = svc.submit_coalesced("k", 1, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  auto t1 = svc.submit_coalesced("k", 2, nullptr,
                                 [](Governor&, const Service::BatchView&) {});
  svc.stop();  // orphaned carrier expands into member cancels
  EXPECT_EQ(t0.wait(), Service::State::cancelled);
  EXPECT_EQ(t1.wait(), Service::State::cancelled);
  // The blocker exits cooperatively when it observes the cancel, so it
  // finishes done; only the never-dispatched members are cancelled.
  EXPECT_EQ(blocker.wait(), Service::State::done);
}

TEST(ServiceBatch, BatchMaxOneDegradesToPlainSubmit) {
  Service svc(ServicePolicy{.workers = 1, .batch_max = 1});
  auto p = std::make_shared<std::uint64_t>(0);
  auto t = svc.submit_coalesced(
      "k", 6, p, [](Governor&, const Service::BatchView& view) {
        ASSERT_EQ(view.size(), 1u);
        EXPECT_FALSE(view.cancelled(0));
        *static_cast<std::uint64_t*>(view.payload(0)) = view.arg(0) + 1;
      });
  EXPECT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(*p, 7u);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 0u);  // the stage is off: no batch accounting
  EXPECT_EQ(st.batched_requests, 0u);
  EXPECT_EQ(st.submitted, 1u);
}

// --- GraphService batch planner ----------------------------------------------

TEST(GraphServiceBatch, CancelOneRowLeavesSiblingsUntouched) {
  GraphService::Options opts;
  opts.service.workers = 1;
  opts.service.queue_limit = 16;
  opts.service.batch_max = 3;  // the third submit seals the batch
  opts.service.batch_window_us = 1e6;
  GraphService svc(opts);
  svc.publish("g", make_graph(21, gb::FormatMode::sparse));

  Graph same = make_graph(21, gb::FormatMode::sparse);
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
  for (Index s = 0; s < 3; ++s) {
    truth.push_back(
        tuples(lagraph::bfs(same, s, lagraph::BfsVariant::push).level));
  }

  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.core().submit([&](Governor& gov) {
    entered.store(true);
    while (!release.load() && !gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  const std::uint64_t j0 = svc.submit_algorithm("bfs", "g", 0);
  const std::uint64_t j1 = svc.submit_algorithm("bfs", "g", 1);
  const std::uint64_t j2 = svc.submit_algorithm("bfs", "g", 2);
  svc.cancel(j1);
  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);

  const ServiceJobResult& r0 = svc.wait(j0);
  EXPECT_EQ(tuples(r0.vector), truth[0]);
  EXPECT_EQ(r0.batch_size, 2u);  // two live rows shared the kernel run
  const ServiceJobResult& r1 = svc.wait(j1);
  EXPECT_EQ(svc.poll(j1), GraphService::JobState::cancelled);
  EXPECT_EQ(r1.stop, StopReason::cancelled);
  // Masked row: payload never written, but it has the graph's dimension.
  EXPECT_EQ(r1.vector.nvals(), 0u);
  EXPECT_EQ(r1.vector.size(), same.adj().nrows());
  const ServiceJobResult& r2 = svc.wait(j2);
  EXPECT_EQ(tuples(r2.vector), truth[2]);
  EXPECT_EQ(r2.batch_size, 2u);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 3u);
  EXPECT_EQ(st.cancelled, 1u);
}

TEST(GraphServiceBatch, GovernorTripMidBatchReturnsPerRowPartials) {
  GraphService::Options opts;
  opts.service.workers = 1;
  opts.service.queue_limit = 16;
  opts.service.batch_max = 3;  // the third submit seals the batch
  opts.service.batch_window_us = 1e6;
  GraphService svc(opts);
  svc.publish("g", make_graph(29, gb::FormatMode::sparse));

  Graph same = make_graph(29, gb::FormatMode::sparse);
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
  for (Index s = 0; s < 3; ++s) {
    truth.push_back(
        tuples(lagraph::bfs(same, s, lagraph::BfsVariant::push).level));
  }

  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.core().submit([&](Governor& gov) {
    entered.store(true);
    while (!release.load() && !gov.cancelled()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  std::vector<std::uint64_t> jobs;
  for (Index s = 0; s < 3; ++s) {
    jobs.push_back(svc.submit_algorithm("bfs", "g", s));
  }
  {
    // Trip the batch's single governor a few polls into the run: the batch
    // job must come back with a consistent PER-ROW partial for every live
    // member — a prefix of each solo run, stamped with the stop code.
    ScopedTripAfter trip(4, Governor::Trip::cancel);
    release.store(true);
    EXPECT_EQ(blocker.wait(), Service::State::done);
    for (std::size_t r = 0; r < jobs.size(); ++r) {
      const ServiceJobResult& res = svc.wait(jobs[r]);
      EXPECT_EQ(res.stop, StopReason::cancelled) << "row " << r;
      EXPECT_EQ(res.batch_size, 3u) << "row " << r;
      // Partial prefix: every level the interrupted batch assigned matches
      // the solo run at the same vertex.
      const auto [idx, vals] = tuples(res.vector);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        const auto& want = truth[r];
        auto it =
            std::lower_bound(want.first.begin(), want.first.end(), idx[t]);
        ASSERT_TRUE(it != want.first.end() && *it == idx[t])
            << "row " << r << " has an entry the solo run never assigns";
        EXPECT_EQ(vals[t],
                  want.second[static_cast<std::size_t>(
                      it - want.first.begin())])
            << "row " << r << " vertex " << idx[t];
      }
    }
  }
  svc.quiesce();
}

TEST(GraphServiceBatch, EightClientBatchedSoakIsBitIdenticalToSerial) {
  GraphService::Options opts;
  opts.service.workers = 2;
  opts.service.queue_limit = 1024;
  opts.service.batch_max = 8;
  opts.service.batch_window_us = 2000;
  GraphService svc(opts);
  svc.publish("g", make_graph(33, gb::FormatMode::sparse));

  Graph serial = make_graph(33, gb::FormatMode::sparse);
  const auto pr = tuples(lagraph::pagerank(serial, 0.85, 1e-9, 100).rank);
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> bfs_truth;
  for (Index s = 0; s < 8; ++s) {
    bfs_truth.push_back(tuples(
        lagraph::bfs(serial, s, lagraph::BfsVariant::direction_optimizing)
            .level));
  }

  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (int j = 0; j < kJobsPerClient; ++j) {
          if ((c + j) % 2 == 0) {
            const auto& r = svc.wait(svc.submit_algorithm("pagerank", "g", 0));
            if (tuples(r.vector) != pr) mismatches.fetch_add(1);
          } else {
            const auto& r = svc.wait(svc.submit_algorithm(
                "bfs", "g", static_cast<std::uint64_t>(c)));
            if (tuples(r.vector) != bfs_truth[c])
              mismatches.fetch_add(1);
          }
        }
      } catch (...) {
        mismatches.fetch_add(1000);  // no exception is acceptable here
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, std::uint64_t{kClients * kJobsPerClient});
  EXPECT_EQ(st.completed, st.submitted);
  // Every request flowed through the coalescing stage, whatever the window
  // grouped together.
  EXPECT_EQ(st.batched_requests, st.submitted);
  EXPECT_GE(st.batches, 1u);
  EXPECT_LE(st.batches, st.batched_requests);
  svc.quiesce();
}

// Regression: masked mxm used to build each chunk's mask probe inside the
// parallel region, and Matrix::by_row() re-materialised the lazy sparse view
// of a dense-form mask while sibling chunks were reading it (a heap use
// after free under ASan, a data race under TSan). Batched BFS walks straight
// into it: once a quarter of its k x n level slots are set the level matrix
// turns bitmap, and it is the complemented mask of every level's mxm.
TEST(GraphServiceBatch, ConcurrentBatchedBfsWithBitmapLevelMaskIsRaceFree) {
  constexpr int kClients = 8;
  // Big enough that every mid-run level's mxm splits into several chunks
  // and the mask's sparse view takes long enough to build that chunks
  // starting together overlap it.
  auto make = [] {
    return Graph(lagraph::erdos_renyi(8192, 131072, 91),
                 lagraph::Kind::directed);
  };
  Graph serial = make();
  std::vector<Index> sources(kClients);
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> truth;
  for (int c = 0; c < kClients; ++c) {
    sources[static_cast<std::size_t>(c)] = static_cast<Index>(c);
    truth.push_back(tuples(
        lagraph::bfs(serial, static_cast<Index>(c),
                     lagraph::BfsVariant::direction_optimizing)
            .level));
  }
  {
    // Direct batched runs at 4 threads: the level mask really is dense-form
    // by the end, and every repetition matches the solo rows.
    ThreadGuard threads(4);
    for (int rep = 0; rep < 8; ++rep) {
      auto direct = lagraph::bfs_level_ms(serial, sources);
      ASSERT_NE(direct.level.format(), gb::Format::sparse);
      EXPECT_EQ(split_rows(direct.level, kClients), truth);
    }
  }

  GraphService::Options opts;
  opts.service.workers = 2;
  opts.service.queue_limit = 1024;
  opts.service.batch_max = 8;
  opts.service.batch_window_us = 2000;
  GraphService svc(opts);
  svc.publish("g", make());
  constexpr int kJobsPerClient = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (int j = 0; j < kJobsPerClient; ++j) {
          const auto& r = svc.wait(svc.submit_algorithm(
              "bfs", "g", static_cast<std::uint64_t>(c)));
          if (tuples(r.vector) != truth[c])
            mismatches.fetch_add(1);
        }
      } catch (...) {
        mismatches.fetch_add(1000);  // no exception is acceptable here
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, std::uint64_t{kClients * kJobsPerClient});
  EXPECT_EQ(st.batched_requests, st.completed);
  svc.quiesce();
}

TEST(GraphServiceBatch, CoalescingSubmitPathSurvivesAllocFaultInjection) {
  GraphService::Options opts;
  opts.service.workers = 1;
  opts.service.batch_max = 4;
  opts.service.batch_window_us = 0;
  GraphService svc(opts);
  svc.publish("g", make_graph(3, gb::FormatMode::sparse));
  Graph same = make_graph(3, gb::FormatMode::sparse);
  const auto truth =
      tuples(lagraph::bfs(same, 1, lagraph::BfsVariant::push).level);
  svc.quiesce();

  // Park the lone worker so injected failures land on the coalescing submit
  // path only (open/join/seal bookkeeping), never inside a running kernel.
  std::atomic<bool> gate{false};
  auto blocker = svc.core().submit([&](Governor&) {
    while (!gate.load()) sleep_ms(0.2);
  });

  std::uint64_t accepted_job = 0;
  bool accepted = false;
  for (std::uint64_t n = 0; n < 200 && !accepted; ++n) {
    try {
      ScopedFailAfter arm(n);
      accepted_job = svc.submit_algorithm("bfs", "g", 1);
      accepted = true;
    } catch (const std::bad_alloc&) {
      // expected: injected OOM inside submit_coalesced
    }
  }
  ASSERT_TRUE(accepted) << "submit never survived 200 allocations";
  gate.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  const auto& r = svc.wait(accepted_job);
  EXPECT_EQ(tuples(r.vector), truth);

  // And the stage stays fully serviceable after the soak.
  const auto& r2 = svc.wait(svc.submit_algorithm("bfs", "g", 1));
  EXPECT_EQ(tuples(r2.vector), truth);
}

TEST(GraphServiceBatch, RoutesComponentAlgorithmsThroughTheRunner) {
  GraphService::Options opts;
  opts.service.workers = 2;
  opts.service.batch_max = 8;  // batching on: cc/scc/coloring stay unbatched
  GraphService svc(opts);
  Graph g(lagraph::erdos_renyi(48, 160, 9), lagraph::Kind::undirected);
  Graph same(lagraph::erdos_renyi(48, 160, 9), lagraph::Kind::undirected);
  svc.publish("g", std::move(g));

  const auto cc_truth = tuples(lagraph::connected_components(same));
  const auto& rc = svc.wait(svc.submit_algorithm("cc", "g", 0));
  EXPECT_EQ(tuples(rc.vector), cc_truth);
  EXPECT_EQ(rc.batch_size, 0u);  // unbatched path

  const auto scc_truth = tuples(lagraph::strongly_connected_components(same));
  const auto& rs = svc.wait(svc.submit_algorithm("scc", "g", 0));
  EXPECT_EQ(tuples(rs.vector), scc_truth);

  const auto col_truth = tuples(lagraph::coloring(same, 7));
  const auto& rk = svc.wait(svc.submit_algorithm("coloring", "g", 7));
  EXPECT_EQ(tuples(rk.vector), col_truth);

  EXPECT_THROW((void)svc.submit_algorithm("bfs", "g", 999), gb::Error);
  svc.quiesce();
}

TEST(GraphServiceBatch, SourceArgumentsAreRangeCheckedOnBothPaths) {
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{8}}) {
    GraphService::Options opts;
    opts.service.workers = 1;
    opts.service.batch_max = batch_max;  // 1: solo path; 8: coalescing path
    GraphService svc(opts);
    svc.publish("g", make_graph(5, gb::FormatMode::sparse));
    const Index n = svc.snapshot("g")->adj().nrows();
    for (const char* algo : {"bfs", "sssp"}) {
      for (const std::uint64_t bad : {std::uint64_t{n}, std::uint64_t{999}}) {
        try {
          (void)svc.submit_algorithm(algo, "g", bad);
          ADD_FAILURE() << algo << " accepted source " << bad;
        } catch (const gb::Error& e) {
          EXPECT_EQ(e.info(), gb::Info::invalid_index) << algo;
        }
      }
      const ServiceJobResult& r =
          svc.wait(svc.submit_algorithm(algo, "g", n - 1));
      EXPECT_EQ(r.vector.size(), n) << algo;
    }
    // Coloring's arg is a seed, not a vertex: it is never range-checked.
    const ServiceJobResult& r =
        svc.wait(svc.submit_algorithm("coloring", "g", 999));
    EXPECT_EQ(r.vector.nvals(), n);
    EXPECT_EQ(svc.stats().submitted, 3u);  // rejected submits never enqueue
    svc.quiesce();
  }
}
