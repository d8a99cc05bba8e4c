// Concurrency contract suite for the serving layer (tentpole of the
// robustness PR): snapshot isolation, admission control, overload shedding,
// and the stall watchdog — plus the freeze/epoch substrate underneath.
//
// Every test here is meant to run under TSan as well as plain: readers hold
// only frozen snapshots, so any data-race report is a real contract
// violation, not test noise. The soak asserts the strongest property the
// issue names: N client threads hammering one shared published graph get
// results bit-identical to a serial run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "capi/graphblas_c.h"
#include "capi/lagraph_c.h"
#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/serving.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/alloc.hpp"
#include "platform/env.hpp"
#include "platform/governor.hpp"
#include "platform/memory.hpp"
#include "platform/parallel.hpp"
#include "platform/service.hpp"

using gb::Index;
using gb::platform::CancelledError;
using gb::platform::Governor;
using gb::platform::GovernorScope;
using gb::platform::MemoryMeter;
using gb::platform::OverloadedError;
using gb::platform::ScopedFailAfter;
using gb::platform::Service;
using gb::platform::ServicePolicy;
using gb::platform::ServiceStats;
using lagraph::Graph;
using lagraph::GraphService;
using lagraph::ServiceJobResult;
using lagraph::StopReason;

namespace {

// Set the env cap before any metered allocation caches the parse (same
// priming the governor suite does), so the budget never interferes here.
const bool env_primed = [] {
  ::setenv("LAGRAPH_MEM_BUDGET", "109951162777600", 1);  // 100 TiB
  return true;
}();

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// (index, value) flattening used to compare serving results bit-identically
/// against direct algorithm runs.
template <class T>
std::pair<std::vector<Index>, std::vector<double>> tuples(
    const gb::Vector<T>& v) {
  std::vector<Index> idx;
  std::vector<T> vals;
  v.extract_tuples(idx, vals);
  return {idx, std::vector<double>(vals.begin(), vals.end())};
}

Graph make_test_graph(std::uint64_t seed) {
  gb::Matrix<double> a = lagraph::randomize_weights(
      lagraph::erdos_renyi(64, 512, seed), 0.5, 2.0, seed);
  return Graph(std::move(a), lagraph::Kind::directed);
}

}  // namespace

// --- freeze / snapshot substrate --------------------------------------------

TEST(Freeze, VectorServesBothFormsWhenFrozen) {
  gb::Vector<double> v(8);
  v.set_element(1, 1.5);
  v.set_element(6, -2.0);
  const auto before = tuples(v);

  v.freeze();
  EXPECT_TRUE(v.frozen());
  // Both physical forms must now be readable without mutation: sparse...
  EXPECT_EQ(std::vector<Index>(v.indices().begin(), v.indices().end()),
            std::vector<Index>({1, 6}));
  // ...and dense, off the pre-materialised frozen aux.
  auto dv = v.dense_values();
  auto pm = v.present();
  ASSERT_EQ(dv.size(), 8u);
  ASSERT_EQ(pm.size(), 8u);
  EXPECT_EQ(dv[1], 1.5);
  EXPECT_EQ(dv[6], -2.0);
  EXPECT_EQ(pm[0], 0);
  EXPECT_EQ(pm[1], 1);
  EXPECT_EQ(tuples(v), before);

  // Mutation thaws: the vector is writable again and the caches reset.
  v.set_element(3, 9.0);
  EXPECT_FALSE(v.frozen());
  EXPECT_EQ(v.nvals(), 3u);
}

TEST(Freeze, VectorSnapshotIsStableAcrossMutation) {
  gb::Vector<double> v(5);
  v.set_element(0, 1.0);
  auto snap = v.snapshot();
  EXPECT_TRUE(snap->frozen());
  EXPECT_EQ(v.snapshot(), snap);  // cached while unmutated

  v.set_element(0, 99.0);
  EXPECT_EQ(snap->nvals(), 1u);
  auto [idx, vals] = tuples(*snap);
  EXPECT_EQ(vals[0], 1.0);  // old value: isolation
  auto snap2 = v.snapshot();
  EXPECT_NE(snap2, snap);
  EXPECT_EQ(tuples(*snap2).second[0], 99.0);
}

TEST(Freeze, MatrixSnapshotIsStableAcrossMutation) {
  gb::Matrix<double> a(4, 4);
  a.set_element(0, 1, 2.0);
  a.set_element(3, 2, 4.0);
  auto snap = a.snapshot();
  EXPECT_TRUE(snap->frozen());
  EXPECT_EQ(a.snapshot(), snap);

  a.set_element(0, 1, -7.0);
  EXPECT_FALSE(a.frozen());
  auto x = snap->extract_element(0, 1);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 2.0);  // snapshot kept the pre-write value
  x = a.extract_element(0, 1);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, -7.0);
}

TEST(Freeze, GraphSnapshotMaterialisesPropertyCaches) {
  Graph g = make_test_graph(7);
  auto snap = g.snapshot();
  EXPECT_TRUE(snap->frozen());
  // Every lazily cached property must already be materialised: these calls
  // are const reads on a frozen object (TSan would flag any mutation).
  EXPECT_EQ(snap->out_degree().size(), 64u);
  EXPECT_EQ(snap->in_degree().size(), 64u);
  (void)snap->is_symmetric();
  (void)snap->nself_edges();
}

// --- first-use races (satellite: lazy-init audit) ---------------------------

TEST(FirstUse, EnvOnceIsRaceFreeAndStable) {
  ::setenv("LAGRAPH_TEST_ENV_ONCE", "1337", 1);
  static gb::platform::EnvOnce<std::size_t> cap{"LAGRAPH_TEST_ENV_ONCE",
                                               gb::platform::env_parse_bytes};
  std::vector<std::thread> ts;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      if (cap.get() != 1337u) mismatches.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // A later env change must NOT be observed: read-once semantics.
  ::setenv("LAGRAPH_TEST_ENV_ONCE", "7", 1);
  EXPECT_EQ(cap.get(), 1337u);
}

TEST(FirstUse, RegistryAndKernelsSurviveConcurrentFirstUse) {
  // Run under `-R test_service` in TSan CI this binary *is* the first user
  // of the semiring registry and operator tables: hammer them from eight
  // threads at once.
  std::vector<std::thread> ts;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&, t] {
      try {
        gb::Matrix<double> a(8, 8);
        for (Index i = 0; i < 8; ++i)
          a.set_element(i, (i + 1 + static_cast<Index>(t)) % 8, 1.0);
        gb::Vector<double> x(8);
        for (Index i = 0; i < 8; ++i) x.set_element(i, double(i));
        gb::Vector<double> y(8);
        gb::mxv(y, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, x);
        if (y.size() != 8) failures.fetch_add(1);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Service core: admission, shedding, watchdog ----------------------------

TEST(Service, RunsJobsAndCountsThem) {
  Service svc(ServicePolicy{.workers = 2, .queue_limit = 64});
  std::atomic<int> ran{0};
  std::vector<Service::Ticket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(svc.submit([&](Governor&) { ran.fetch_add(1); }));
  }
  for (auto& t : tickets) EXPECT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(ran.load(), 16);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_EQ(st.completed, 16u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.failed, 0u);
  svc.quiesce();
  EXPECT_EQ(svc.stats().queue_depth, 0u);
  EXPECT_EQ(svc.stats().running, 0u);
}

TEST(Service, FailedJobRethrowsItsError) {
  Service svc(ServicePolicy{.workers = 1});
  auto t = svc.submit(
      [](Governor&) { throw std::runtime_error("job exploded"); });
  EXPECT_EQ(t.wait(), Service::State::failed);
  EXPECT_THROW(t.rethrow(), std::runtime_error);
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(Service, BoundedQueueShedsDeterministically) {
  // One worker, one queue slot. Block the worker, fill the slot: the next
  // submission MUST shed with OverloadedError — and nothing may deadlock.
  Service svc(ServicePolicy{.workers = 1, .queue_limit = 1});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.submit([&](Governor&) {
    entered.store(true);
    while (!release.load()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);  // worker busy, queue empty

  auto queued = svc.submit([](Governor&) {});  // fills the one slot
  EXPECT_THROW(svc.submit([](Governor&) {}), OverloadedError);
  EXPECT_THROW(svc.submit([](Governor&) {}), OverloadedError);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.queue_depth, 1u);

  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  EXPECT_EQ(queued.wait(), Service::State::done);
  // After draining, the service accepts work again: shedding is a rejection
  // of the one request, never a degraded mode.
  EXPECT_EQ(svc.submit([](Governor&) {}).wait(), Service::State::done);
}

TEST(Service, MemoryWatermarkShedsNewWork) {
  // A 1-byte shed watermark with live metered objects in the process: every
  // submission sheds, deterministically, while the service stays healthy.
  gb::Vector<double> pressure(1024);
  for (Index i = 0; i < 1024; ++i) pressure.set_element(i, 1.0);
  ASSERT_GT(MemoryMeter::current_bytes(), 1u);

  Service svc(ServicePolicy{.workers = 1, .queue_limit = 8, .shed_bytes = 1});
  EXPECT_THROW(svc.submit([](Governor&) {}), OverloadedError);
  EXPECT_EQ(svc.stats().shed, 1u);
  EXPECT_EQ(svc.stats().submitted, 0u);
}

TEST(Service, CancelBeforeRunSkipsTheJob) {
  Service svc(ServicePolicy{.workers = 1, .queue_limit = 4});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  auto blocker = svc.submit([&](Governor&) {
    entered.store(true);
    while (!release.load()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  std::atomic<bool> ran{false};
  auto queued = svc.submit([&](Governor&) { ran.store(true); });
  queued.cancel();
  release.store(true);
  EXPECT_EQ(queued.wait(), Service::State::cancelled);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(blocker.wait(), Service::State::done);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, RunningJobObservesCrossThreadCancel) {
  Service svc(ServicePolicy{.workers = 1});
  auto t = svc.submit([](Governor& gov) {
    while (!gov.cancelled()) sleep_ms(0.2);
    throw CancelledError{};
  });
  while (t.state() != Service::State::running) sleep_ms(0.2);
  t.cancel();
  EXPECT_EQ(t.wait(), Service::State::cancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, WatchdogCancelsStalledJobAndServiceKeepsServing) {
  // The stalled job makes no governor polls; the watchdog must cancel it
  // within its threshold, and the freed worker must keep serving.
  Service svc(ServicePolicy{.workers = 1,
                            .queue_limit = 8,
                            .watchdog_stall_ms = 25,
                            .watchdog_period_ms = 2});
  auto stalled = svc.submit([](Governor& gov) {
    // Cooperative stall: burns its worker until the watchdog's cancel lands.
    while (!gov.cancelled()) sleep_ms(0.5);
    throw CancelledError{};
  });
  EXPECT_EQ(stalled.wait(), Service::State::cancelled);
  const ServiceStats st = svc.stats();
  EXPECT_GE(st.watchdog_cancels, 1u);
  EXPECT_EQ(st.cancelled, 1u);

  // The worker reclaimed by the watchdog serves the next request normally.
  std::atomic<int> ran{0};
  auto next = svc.submit([&](Governor&) { ran.fetch_add(1); });
  EXPECT_EQ(next.wait(), Service::State::done);
  EXPECT_EQ(ran.load(), 1);
}

TEST(Service, PolicyDeadlineTripsLongRequests) {
  Service svc(ServicePolicy{.workers = 1, .request_timeout_ms = 10});
  auto t = svc.submit([](Governor& gov) {
    for (;;) {
      sleep_ms(1);
      gov.poll();  // policy-governed: deadline armed by the worker
    }
  });
  // A timeout surfaces as failed (TimeoutError), distinct from cancelled.
  EXPECT_EQ(t.wait(), Service::State::failed);
  EXPECT_THROW(t.rethrow(), gb::platform::TimeoutError);
}

// --- GraphService: snapshot isolation + bit-identical serving ---------------

TEST(GraphService, ServesResultsBitIdenticalToSerial) {
  GraphService::Options opts;
  opts.service.workers = 2;
  opts.service.queue_limit = 256;
  GraphService svc(opts);
  svc.publish("g", make_test_graph(11));

  // Serial ground truth on an identical graph.
  Graph serial = make_test_graph(11);
  const auto pr = tuples(lagraph::pagerank(serial, 0.85, 1e-9, 100).rank);
  const auto bf = tuples(
      lagraph::bfs(serial, 0, lagraph::BfsVariant::direction_optimizing)
          .level);
  const auto ss = tuples(lagraph::sssp_bellman_ford(serial, 0).dist);

  const std::uint64_t jp = svc.submit_algorithm("pagerank", "g", 0);
  const std::uint64_t jb = svc.submit_algorithm("bfs", "g", 0);
  const std::uint64_t js = svc.submit_algorithm("sssp", "g", 0);

  const ServiceJobResult& rp = svc.wait(jp);
  // PageRank legitimately reports `converged`; only interruptions are errors.
  EXPECT_FALSE(lagraph::is_interruption(rp.stop));
  EXPECT_EQ(tuples(rp.vector), pr);
  const ServiceJobResult& rb = svc.wait(jb);
  EXPECT_EQ(tuples(rb.vector), bf);
  const ServiceJobResult& rs = svc.wait(js);
  EXPECT_EQ(tuples(rs.vector), ss);
}

TEST(GraphService, SubmissionPinsTheVersionCurrentAtSubmitTime) {
  GraphService svc;
  svc.publish("g", make_test_graph(21));
  EXPECT_EQ(svc.version("g"), 1u);

  Graph same = make_test_graph(21);
  const auto v1_truth = tuples(lagraph::pagerank(same, 0.85, 1e-9, 100).rank);

  // Submit against v1, then republish a *different* graph before waiting:
  // the in-flight job must keep its v1 snapshot (snapshot isolation).
  const std::uint64_t job = svc.submit_algorithm("pagerank", "g", 0);
  svc.publish("g", make_test_graph(99));
  EXPECT_EQ(svc.version("g"), 2u);

  const ServiceJobResult& res = svc.wait(job);
  EXPECT_EQ(tuples(res.vector), v1_truth);

  // A job submitted after the republish sees v2.
  Graph other = make_test_graph(99);
  const auto v2_truth =
      tuples(lagraph::pagerank(other, 0.85, 1e-9, 100).rank);
  const ServiceJobResult& res2 =
      svc.wait(svc.submit_algorithm("pagerank", "g", 0));
  EXPECT_EQ(tuples(res2.vector), v2_truth);
}

TEST(GraphService, EightClientSoakIsBitIdenticalToSerial) {
  GraphService::Options opts;
  opts.service.workers = 2;
  opts.service.queue_limit = 1024;
  GraphService svc(opts);
  svc.publish("g", make_test_graph(33));

  Graph serial = make_test_graph(33);
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
          // Alternate algorithms so concurrently-running jobs differ.
          if ((c + j) % 2 == 0) {
            const auto& r =
                svc.wait(svc.submit_algorithm("pagerank", "g", 0));
            if (tuples(r.vector) != pr) mismatches.fetch_add(1);
          } else {
            const Index src = static_cast<Index>(c);
            const auto& r = svc.wait(svc.submit_algorithm(
                "bfs", "g", static_cast<std::uint64_t>(src)));
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
  EXPECT_EQ(st.shed, 0u);
  svc.quiesce();
}

TEST(GraphService, ConcurrentRepublishNeverDisturbsInFlightReaders) {
  GraphService svc;
  svc.publish("g", make_test_graph(5));
  Graph same = make_test_graph(5);
  const auto truth = tuples(lagraph::pagerank(same, 0.85, 1e-9, 100).rank);

  // Writer republishes graphs under the served name as fast as it can while
  // clients keep submitting; each client captured its snapshot at submit
  // time, so pre-republish submissions must still match the v-at-submit
  // truth. We only submit while version()==1 observations hold the race
  // window closed — detection is via the returned result.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    for (int i = 0; !stop_writer.load(); ++i) {
      svc.publish("other", make_test_graph(1000 + i));
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int j = 0; j < 3; ++j) {
        const auto& r = svc.wait(svc.submit_algorithm("pagerank", "g", 0));
        if (tuples(r.vector) != truth) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_writer.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- version retirement ------------------------------------------------------

namespace {

/// Poll until `w` expires or `limit_ms` passes. A worker drops a finished
/// job's captures just after it wakes the job's waiters, so expiry can trail
/// wait() by a moment.
template <class T>
bool expires_within(const std::weak_ptr<T>& w, double limit_ms) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double, std::milli>(limit_ms);
  while (!w.expired()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    sleep_ms(0.5);
  }
  return true;
}

}  // namespace

TEST(GraphService, DisplacedVersionIsFreedWhenItsLastJobFinishes) {
  GraphService::Options opts;
  opts.service.workers = 1;
  GraphService svc(opts);
  svc.publish("g", make_test_graph(21));
  std::weak_ptr<const Graph> v1 = svc.snapshot("g");

  // Two jobs hold v1: a query parked on a gate (it occupies the lone
  // worker) and a bfs queued behind it.
  std::atomic<bool> gate{false};
  const std::uint64_t parked =
      svc.submit("g", [&](const Graph& g, gb::platform::Governor&) {
        while (!gate.load()) sleep_ms(0.2);
        return ServiceJobResult{.vector = gb::Vector<double>(g.adj().nrows())};
      });
  const std::uint64_t queued = svc.submit_algorithm("bfs", "g", 0);

  svc.publish("g", make_test_graph(99));
  EXPECT_EQ(svc.version("g"), 2u);
  EXPECT_FALSE(v1.expired());  // the service let go, its jobs did not

  gate.store(true);
  svc.wait(parked);
  svc.wait(queued);
  // No drain call and no release: finishing the last job frees v1.
  EXPECT_TRUE(expires_within(v1, 10000.0));
  svc.release(parked);
  svc.release(queued);
}

TEST(GraphService, CRepublishUnderLoadKeepsMemoryBounded) {
  // Two graphs of the same shape, built through the C API.
  constexpr Index kN = 1024;
  GrB_Matrix m[2] = {nullptr, nullptr};
  for (int k = 0; k < 2; ++k) {
    const gb::Matrix<double> src = lagraph::randomize_weights(
        lagraph::erdos_renyi(kN, 8 * kN, 7 + k), 0.5, 2.0, 7 + k);
    std::vector<Index> r, c;
    std::vector<double> v;
    src.extract_tuples(r, c, v);
    ASSERT_EQ(GrB_Matrix_new(&m[k], kN, kN), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_build_FP64(m[k], r.data(), c.data(), v.data(),
                                    r.size(), GrB_PLUS_FP64),
              GrB_SUCCESS);
  }

  LAGraph_Service s = nullptr;
  ASSERT_EQ(LAGraph_Service_new(&s, 2, 64, 0, 0, 0, 0), GrB_SUCCESS);
  const std::size_t before = MemoryMeter::current_bytes();
  ASSERT_EQ(LAGraph_Service_publish(s, "g", m[0]), GrB_SUCCESS);
  const std::size_t level = MemoryMeter::current_bytes();
  ASSERT_GT(level, before);
  const std::size_t version_bytes = level - before;

  // Two clients keep submitting and waiting while the versions alternate.
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      GrB_Vector out = nullptr;
      if (GrB_Vector_new(&out, kN) != GrB_SUCCESS) {
        errors.fetch_add(1);
        return;
      }
      const char* algo = c == 0 ? "bfs" : "sssp";
      for (GrB_Index src = 0; !done.load(); src = (src + 1) % kN) {
        std::uint64_t id = 0;
        if (LAGraph_Service_submit(s, algo, "g", src, &id) != GrB_SUCCESS ||
            LAGraph_Service_wait(out, s, id) != GrB_SUCCESS ||
            LAGraph_Service_release(s, id) != GrB_SUCCESS) {
          errors.fetch_add(1);
        }
      }
      GrB_Vector_free(&out);
    });
  }

  // Live at most: the current version, one being published, and one held
  // by each client's in-flight job; twice that is still "a few versions".
  const std::size_t bound = level + 6 * version_bytes;
  std::size_t high = level;
  int published = 1;
  for (; published <= 100; ++published) {
    if (LAGraph_Service_publish(s, "g", m[published % 2]) != GrB_SUCCESS) {
      break;
    }
    high = std::max(high, MemoryMeter::current_bytes());
  }
  done.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(published, 101) << "a republish failed";
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(high, bound) << "version bytes " << version_bytes << ", level "
                         << level;
  std::uint64_t version = 0;
  ASSERT_EQ(LAGraph_Service_version(s, "g", &version), GrB_SUCCESS);
  EXPECT_EQ(version, 101u);

  EXPECT_EQ(LAGraph_Service_free(&s), GrB_SUCCESS);
  GrB_Matrix_free(&m[0]);
  GrB_Matrix_free(&m[1]);
}

TEST(GraphService, SubmitPathSurvivesAllocFaultInjection) {
  GraphService::Options opts;
  opts.service.workers = 1;
  GraphService svc(opts);
  svc.publish("g", make_test_graph(3));
  Graph same = make_test_graph(3);
  const auto truth = tuples(lagraph::pagerank(same, 0.85, 1e-9, 100).rank);
  svc.quiesce();

  // Park the lone worker on a gate: the fault countdown is process-wide, so
  // an accepted job must not start executing (and allocating) while it is
  // still armed — injected failures land on the submit path only.
  std::atomic<bool> gate{false};
  auto blocker = svc.core().submit([&](gb::platform::Governor&) {
    while (!gate.load()) sleep_ms(0.2);
  });

  // Fail the Nth metered allocation during submit, for N = 0, 1, 2, ...
  // until submission survives. After every injected failure the service must
  // remain fully serviceable (strong guarantee: nothing half-enqueued).
  std::uint64_t accepted_job = 0;
  bool accepted = false;
  for (std::uint64_t n = 0; n < 200 && !accepted; ++n) {
    try {
      ScopedFailAfter arm(n);
      accepted_job = svc.submit_algorithm("pagerank", "g", 0);
      accepted = true;
    } catch (const std::bad_alloc&) {
      // expected: injected OOM inside submit
    }
  }
  ASSERT_TRUE(accepted) << "submit never survived 200 allocations";
  gate.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  const auto& r = svc.wait(accepted_job);
  EXPECT_EQ(tuples(r.vector), truth);

  // And the shed path stays intact after the fault soak.
  const auto& r2 = svc.wait(svc.submit_algorithm("pagerank", "g", 0));
  EXPECT_EQ(tuples(r2.vector), truth);
}

TEST(GraphService, UnknownNamesAreInvalidValueErrors) {
  GraphService svc;
  EXPECT_THROW((void)svc.snapshot("nope"), gb::Error);
  EXPECT_THROW((void)svc.submit_algorithm("pagerank", "nope", 0), gb::Error);
  svc.publish("g", make_test_graph(1));
  EXPECT_THROW((void)svc.submit_algorithm("quantum", "g", 0), gb::Error);
  EXPECT_THROW((void)svc.poll(12345), gb::Error);
}

TEST(GraphService, ClientCancelSurfacesAsCancelledStop) {
  GraphService::Options opts;
  opts.service.workers = 1;
  GraphService svc(opts);
  svc.publish("g", make_test_graph(13));

  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  // Occupy the worker so the algorithm job sits queued when we cancel it.
  auto blocker = svc.core().submit([&](Governor&) {
    entered.store(true);
    while (!release.load()) sleep_ms(0.2);
  });
  while (!entered.load()) sleep_ms(0.2);

  const std::uint64_t job = svc.submit_algorithm("pagerank", "g", 0);
  svc.cancel(job);
  release.store(true);
  EXPECT_EQ(blocker.wait(), Service::State::done);
  const ServiceJobResult& r = svc.wait(job);
  EXPECT_EQ(r.stop, StopReason::cancelled);
  // A job that never ran still has the graph's dimension, and no entries.
  EXPECT_EQ(r.vector.size(), svc.snapshot("g")->adj().nrows());
  EXPECT_EQ(r.vector.nvals(), 0u);
  EXPECT_EQ(svc.poll(job), GraphService::JobState::cancelled);
  svc.release(job);
  EXPECT_THROW((void)svc.poll(job), gb::Error);
}

// --- thread budget ----------------------------------------------------------
//
// The Service owns the OpenMP cores: every running job (a solo request or a
// batch carrier) gets max(1, cores / running) threads, re-split whenever a
// job starts or finishes. Callers outside the service keep every core.

namespace {

/// What a kernel running on the calling thread sees: the thread count the
/// parallel helpers use, and the team a chunked region actually forks.
struct KernelThreads {
  int threads = 0;
  int team = 0;
};

KernelThreads probe_kernel() {
  KernelThreads k;
  k.threads = gb::platform::num_threads();
  const auto cores = static_cast<std::size_t>(gb::platform::max_threads());
  std::atomic<int> team{1};
  gb::platform::parallel_for_chunks(
      cores, cores, [&](std::size_t, std::size_t, std::size_t) {
#ifdef _OPENMP
        const int t = omp_get_num_threads();
        int seen = team.load();
        while (t > seen && !team.compare_exchange_weak(seen, t)) {
        }
#endif
      });
  k.team = team.load();
  return k;
}

int share(int cores, int running) { return std::max(1, cores / running); }

/// Wait (bounded) until the service reports `n` running jobs.
bool wait_running(const Service& svc, std::uint64_t n) {
  for (int i = 0; i < 20000; ++i) {
    if (svc.stats().running == n) return true;
    sleep_ms(0.5);
  }
  return false;
}

}  // namespace

TEST(ThreadBudget, LoneJobSeesEveryCore) {
  const int cores = gb::platform::max_threads();
  Service svc(ServicePolicy{.workers = 4});
  KernelThreads seen;
  auto t = svc.submit([&](Governor&) { seen = probe_kernel(); });
  ASSERT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(seen.threads, cores);
  EXPECT_EQ(seen.team, cores);
  EXPECT_EQ(svc.stats().threads_granted, static_cast<std::uint64_t>(cores));
}

TEST(ThreadBudget, ConcurrentJobsSplitTheCores) {
  const int cores = gb::platform::max_threads();
  for (int n = 2; n <= 4; ++n) {
    Service svc(ServicePolicy{.workers = n, .queue_limit = 0});
    std::latch all_running(n);
    std::latch all_recorded(n);
    std::vector<KernelThreads> seen(static_cast<std::size_t>(n));
    std::vector<Service::Ticket> tickets;
    for (int k = 0; k < n; ++k) {
      tickets.push_back(svc.submit([&, k](Governor&) {
        all_running.arrive_and_wait();  // every job started: n running
        seen[static_cast<std::size_t>(k)] = probe_kernel();
        all_recorded.arrive_and_wait();  // nobody finishes before all probe
      }));
    }
    for (auto& t : tickets) ASSERT_EQ(t.wait(), Service::State::done);
    for (const KernelThreads& k : seen) {
      EXPECT_EQ(k.threads, share(cores, n)) << "n = " << n;
      EXPECT_EQ(k.team, share(cores, n)) << "n = " << n;
    }
    // Starts are serialised and nothing finished before the n-th start, so
    // the k-th job began with cores / k.
    std::uint64_t granted = 0;
    for (int k = 1; k <= n; ++k) granted += share(cores, k);
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.threads_granted, granted) << "n = " << n;
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(n));
  }
}

TEST(ThreadBudget, AllotmentWidensAgainAsLoadDrains) {
  const int cores = gb::platform::max_threads();
  constexpr int kJobs = 3;
  Service svc(ServicePolicy{.workers = kJobs});
  std::latch all_running(kJobs);
  std::latch narrow_recorded(1);
  KernelThreads narrow;
  KernelThreads wide;
  std::vector<Service::Ticket> tickets;
  // The long job probes under full load, then again once it runs alone:
  // the allotment is re-read at every op, so the same request widens.
  tickets.push_back(svc.submit([&](Governor&) {
    all_running.arrive_and_wait();
    narrow = probe_kernel();
    narrow_recorded.count_down();
    while (svc.stats().running != 1) sleep_ms(0.2);
    wide = probe_kernel();
  }));
  for (int k = 1; k < kJobs; ++k) {
    tickets.push_back(svc.submit([&](Governor&) {
      all_running.arrive_and_wait();
      narrow_recorded.wait();
    }));
  }
  for (auto& t : tickets) ASSERT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(narrow.threads, share(cores, kJobs));
  EXPECT_EQ(wide.threads, cores);
  EXPECT_EQ(wide.team, cores);

  // Drained: the next lone request starts with every core again.
  KernelThreads after;
  ASSERT_EQ(svc.submit([&](Governor&) { after = probe_kernel(); }).wait(),
            Service::State::done);
  EXPECT_EQ(after.threads, cores);
}

// Named under ServiceBatch: it pins its own batch policy, so the legs that
// force LAGRAPH_BATCH_MAX process-wide filter it out with the others.
TEST(ServiceBatch, CarrierCountsAsOneThreadBudgetJob) {
  const int cores = gb::platform::max_threads();
  constexpr std::size_t kMembers = 4;
  Service svc(ServicePolicy{.workers = 2,
                            .queue_limit = 0,
                            .batch_max = kMembers,
                            .batch_window_us = 60e6});
  // One plain job plus one batch of four members: two jobs, not five.
  std::latch both_running(2);
  std::latch both_recorded(2);
  KernelThreads solo;
  KernelThreads batch;
  auto blocker = svc.submit([&](Governor&) {
    both_running.arrive_and_wait();
    solo = probe_kernel();
    both_recorded.arrive_and_wait();
  });
  std::vector<Service::Ticket> members;
  for (std::size_t m = 0; m < kMembers; ++m) {
    members.push_back(svc.submit_coalesced(
        "probe", m, nullptr,
        [&](Governor&, const Service::BatchView& view) {
          EXPECT_EQ(view.size(), kMembers);
          both_running.arrive_and_wait();
          batch = probe_kernel();
          both_recorded.arrive_and_wait();
        }));
  }
  ASSERT_EQ(blocker.wait(), Service::State::done);
  for (auto& t : members) ASSERT_EQ(t.wait(), Service::State::done);
  EXPECT_EQ(solo.threads, share(cores, 2));
  EXPECT_EQ(batch.threads, share(cores, 2));
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.threads_granted,
            static_cast<std::uint64_t>(share(cores, 1) + share(cores, 2)));
}

TEST(ThreadBudget, UngovernedCallersAndStandaloneRunnersAreNeverCapped) {
  const int cores = gb::platform::max_threads();
  constexpr int kJobs = 4;
  Service svc(ServicePolicy{.workers = kJobs});
  std::atomic<bool> release{false};
  std::vector<Service::Ticket> tickets;
  for (int k = 0; k < kJobs; ++k) {
    tickets.push_back(svc.submit([&](Governor&) {
      while (!release.load()) sleep_ms(0.2);
    }));
  }
  ASSERT_TRUE(wait_running(svc, kJobs));  // the service split its cores

  // The caller's thread carries no governor: every core.
  const KernelThreads caller = probe_kernel();
  EXPECT_EQ(caller.threads, cores);
  EXPECT_EQ(caller.team, cores);

  // A governor nobody allotted threads to leaves the count alone too.
  Governor own;
  {
    GovernorScope scope(&own);
    EXPECT_EQ(probe_kernel().threads, cores);
  }

  // A stand-alone Runner arms its own governor per slice: uncapped.
  struct ProbeResult {
    StopReason stop = StopReason::none;
    lagraph::Checkpoint checkpoint;
    KernelThreads seen;
  };
  lagraph::Runner runner;
  const ProbeResult r = runner.run([](const lagraph::Checkpoint*) {
    ProbeResult out;
    out.seen = probe_kernel();
    return out;
  });
  EXPECT_EQ(r.seen.threads, cores);
  EXPECT_EQ(r.seen.team, cores);

  release.store(true);
  for (auto& t : tickets) EXPECT_EQ(t.wait(), Service::State::done);
}

TEST(ThreadBudget, EightClientSoakIsBitIdenticalWhileTheAllotmentMoves) {
  const int cores = gb::platform::max_threads();
  // Large enough that PageRank, BFS and SSSP ops split into several chunks,
  // so the allotment really changes the team size of running kernels.
  auto make = [] {
    gb::Matrix<double> a = lagraph::randomize_weights(
        lagraph::erdos_renyi(1024, 24576, 77), 0.5, 2.0, 77);
    return Graph(std::move(a), lagraph::Kind::directed);
  };
  GraphService::Options opts;
  opts.service.workers = 4;
  opts.service.queue_limit = 1024;
  GraphService svc(opts);
  svc.publish("g", make());

  Graph serial = make();
  const auto pr = tuples(lagraph::pagerank(serial, 0.85, 1e-9, 100).rank);
  constexpr int kClients = 8;
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> bfs_truth;
  std::vector<std::pair<std::vector<Index>, std::vector<double>>> sssp_truth;
  for (Index s = 0; s < kClients; ++s) {
    bfs_truth.push_back(tuples(
        lagraph::bfs(serial, s, lagraph::BfsVariant::direction_optimizing)
            .level));
    sssp_truth.push_back(
        tuples(lagraph::sssp_bellman_ford(serial, s).dist));
  }

  // A sampler job holds one worker for the whole soak and records the
  // allotments its governor is handed as the other jobs come and go.
  // Its first sample is taken alone, before any client submits.
  std::atomic<bool> sampling{false};
  std::atomic<bool> clients_done{false};
  std::vector<int> allotments;
  auto sampler = svc.core().submit([&](Governor& gov) {
    while (!clients_done.load()) {
      const int a = gov.thread_allotment();
      if (allotments.empty() || allotments.back() != a)
        allotments.push_back(a);
      sampling.store(true);
      sleep_ms(0.1);
    }
  });
  while (!sampling.load()) sleep_ms(0.2);

  constexpr int kJobsPerClient = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (int j = 0; j < kJobsPerClient; ++j) {
          const auto src = static_cast<std::uint64_t>(c);
          switch ((c + j) % 3) {
            case 0: {
              const auto& r =
                  svc.wait(svc.submit_algorithm("pagerank", "g", 0));
              if (tuples(r.vector) != pr) mismatches.fetch_add(1);
              break;
            }
            case 1: {
              const auto& r = svc.wait(svc.submit_algorithm("bfs", "g", src));
              if (tuples(r.vector) != bfs_truth[c])
                mismatches.fetch_add(1);
              break;
            }
            default: {
              const auto& r =
                  svc.wait(svc.submit_algorithm("sssp", "g", src));
              if (tuples(r.vector) != sssp_truth[c])
                mismatches.fetch_add(1);
              break;
            }
          }
        }
      } catch (...) {
        mismatches.fetch_add(1000);  // no exception is acceptable here
      }
    });
  }
  for (auto& t : clients) t.join();
  clients_done.store(true);
  ASSERT_EQ(sampler.wait(), Service::State::done);
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats st = svc.stats();
  const std::uint64_t jobs = st.completed + st.failed + st.cancelled;
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(jobs, std::uint64_t{kClients * kJobsPerClient + 1});
  ASSERT_FALSE(allotments.empty());
  EXPECT_EQ(allotments.front(), cores);
  for (int a : allotments) {
    EXPECT_GE(a, 1);
    EXPECT_LE(a, cores);
  }
  if (cores > 1) {
    // The sampler ran alongside the clients, so the split moved under it,
    // and the mean team was narrower than a full fork per job.
    EXPECT_GT(allotments.size(), 1u);
    EXPECT_LT(st.threads_granted, static_cast<std::uint64_t>(cores) * jobs);
  }
  svc.quiesce();
}
