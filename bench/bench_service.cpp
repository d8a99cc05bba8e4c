// PR10: serving-layer cost under multi-client traffic, with and without the
// batching admission stage. A GraphService with a fixed worker pool serves
// PageRank and BFS requests against one published (frozen) graph while 1, 4,
// and 8 closed-loop client threads submit and wait. Two service configs run
// in the same process on identical graphs:
//
//   * batching OFF (batch_max = 1): every request is its own kernel run —
//     the PR9 baseline path, emitted under nobatch_* keys;
//   * batching ON (batch_max = 8, 2 ms window): concurrent same-algorithm
//     requests against the same snapshot coalesce into one multi-source
//     matrix run (BFS/SSSP) or one deduplicated run fanned out to all
//     members (PageRank), emitted under the PR9-comparable clientsN_* keys.
//
// Measured per client count: throughput (completed jobs per second over the
// whole run), p50 / p99 submit-to-result latency, the mean batch size the
// coalescing window actually formed, and (batching off, printed only) the
// mean OpenMP team the service's thread budget granted each job. Emits
// BENCH_PR10.json at the repo root; `--quick` shrinks the graph and job
// count for CI smoke.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/serving.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/timer.hpp"

namespace {

struct LoadResult {
  double throughput_jps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;  ///< batched_requests / batches over this run
  double mean_team = 0.0;   ///< threads granted per started job (unbatched)
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(k, sorted.size() - 1)];
}

/// Closed-loop load: `clients` threads each submit+wait `jobs_per_client`
/// requests back-to-back, alternating PageRank and BFS.
LoadResult run_load(lagraph::GraphService& svc, int clients,
                    int jobs_per_client) {
  const gb::platform::ServiceStats before = svc.stats();
  std::vector<std::vector<double>> lat(
      static_cast<std::size_t>(clients));
  gb::platform::Timer wall;
  std::vector<std::thread> ts;
  for (int c = 0; c < clients; ++c) {
    ts.emplace_back([&, c] {
      auto& mine = lat[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(jobs_per_client));
      for (int j = 0; j < jobs_per_client; ++j) {
        gb::platform::Timer t;
        const char* algo = (c + j) % 2 == 0 ? "pagerank" : "bfs";
        const std::uint64_t id = svc.submit_algorithm(
            algo, "g", static_cast<std::uint64_t>(c % 8));
        (void)svc.wait(id);
        svc.release(id);
        mine.push_back(t.millis());
      }
    });
  }
  for (auto& t : ts) t.join();
  const double total_ms = wall.millis();
  const gb::platform::ServiceStats after = svc.stats();

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LoadResult r;
  r.throughput_jps =
      total_ms > 0 ? 1e3 * static_cast<double>(all.size()) / total_ms : 0.0;
  r.p50_ms = percentile(all, 0.50);
  r.p99_ms = percentile(all, 0.99);
  const std::uint64_t batches = after.batches - before.batches;
  r.mean_batch =
      batches > 0 ? static_cast<double>(after.batched_requests -
                                        before.batched_requests) /
                        static_cast<double>(batches)
                  : 0.0;
  const std::uint64_t jobs =
      (after.completed + after.failed + after.cancelled) -
      (before.completed + before.failed + before.cancelled);
  r.mean_team = jobs > 0 ? static_cast<double>(after.threads_granted -
                                               before.threads_granted) /
                               static_cast<double>(jobs)
                         : 0.0;
  return r;
}

lagraph::GraphService::Options service_opts(int workers,
                                            std::size_t batch_max,
                                            double batch_window_us) {
  lagraph::GraphService::Options opts;
  opts.service.workers = workers;
  opts.service.queue_limit = 0;  // unbounded: measuring latency, not shedding
  opts.service.batch_max = batch_max;
  opts.service.batch_window_us = batch_window_us;
  return opts;
}

void publish_and_warm(lagraph::GraphService& svc, gb::Matrix<double> a) {
  svc.publish("g", lagraph::Graph(std::move(a), lagraph::Kind::directed));
  // Warm the pool, the published snapshot's caches, and both algorithms.
  (void)svc.wait(svc.submit_algorithm("pagerank", "g", 0));
  (void)svc.wait(svc.submit_algorithm("bfs", "g", 0));
  svc.quiesce();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const gb::Index n = quick ? 1 << 9 : 1 << 13;
  const gb::Index m = n * 8;
  const int jobs_per_client = quick ? 4 : 32;
  const unsigned hc = std::thread::hardware_concurrency();
  const int workers =
      static_cast<int>(std::clamp(hc == 0 ? 2u : hc, 2u, 8u));
  const std::size_t batch_max = 8;
  const double batch_window_us = 2000.0;

  gb::Matrix<double> a = lagraph::randomize_weights(
      lagraph::random_matrix(n, n, m, /*seed=*/19), 0.5, 2.0, /*seed=*/19);
  const gb::Index nnz = a.nvals();
  gb::Matrix<double> a_copy = a;

  lagraph::GraphService off(service_opts(workers, /*batch_max=*/1, 0.0));
  lagraph::GraphService on(
      service_opts(workers, batch_max, batch_window_us));
  publish_and_warm(off, std::move(a_copy));
  publish_and_warm(on, std::move(a));

  const int counts[] = {1, 4, 8};
  LoadResult r_off[3], r_on[3];
  for (int i = 0; i < 3; ++i) {
    r_off[i] = run_load(off, counts[i], jobs_per_client);
    off.quiesce();
    r_on[i] = run_load(on, counts[i], jobs_per_client);
    on.quiesce();
  }

  std::printf(
      "bench_service: n=%lld nnz=%lld workers=%d jobs/client=%d "
      "batch_max=%zu window=%.0fus\n",
      static_cast<long long>(n), static_cast<long long>(nnz), workers,
      jobs_per_client, batch_max, batch_window_us);
  for (int i = 0; i < 3; ++i) {
    std::printf(
        "  %d client(s)  off: %8.2f jobs/s  p50 %8.3f ms  p99 %8.3f ms  "
        "mean team %.2f\n",
        counts[i], r_off[i].throughput_jps, r_off[i].p50_ms, r_off[i].p99_ms,
        r_off[i].mean_team);
    std::printf(
        "              on:  %8.2f jobs/s  p50 %8.3f ms  p99 %8.3f ms  "
        "mean batch %.2f\n",
        r_on[i].throughput_jps, r_on[i].p50_ms, r_on[i].p99_ms,
        r_on[i].mean_batch);
  }

  const std::string path =
      std::string(LAGRAPH_SOURCE_DIR) + "/BENCH_PR10.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service\",\n");
  std::fprintf(f, "  \"n\": %lld,\n  \"nnz\": %lld,\n",
               static_cast<long long>(n), static_cast<long long>(nnz));
  std::fprintf(f, "  \"workers\": %d,\n  \"jobs_per_client\": %d,\n", workers,
               jobs_per_client);
  std::fprintf(f, "  \"batch_max\": %zu,\n  \"batch_window_us\": %.0f,\n",
               batch_max, batch_window_us);
  for (int i = 0; i < 3; ++i) {
    // clientsN_* keys are the batching-ON config, name-compatible with the
    // PR9 file so tools/bench_compare.py gates the shared *_ms keys.
    std::fprintf(f, "  \"clients%d_throughput_jps\": %.2f,\n", counts[i],
                 r_on[i].throughput_jps);
    std::fprintf(f, "  \"clients%d_p50_ms\": %.4f,\n", counts[i],
                 r_on[i].p50_ms);
    std::fprintf(f, "  \"clients%d_p99_ms\": %.4f,\n", counts[i],
                 r_on[i].p99_ms);
    std::fprintf(f, "  \"clients%d_mean_batch\": %.2f,\n", counts[i],
                 r_on[i].mean_batch);
    std::fprintf(f, "  \"nobatch_clients%d_throughput_jps\": %.2f,\n",
                 counts[i], r_off[i].throughput_jps);
    std::fprintf(f, "  \"nobatch_clients%d_p50_ms\": %.4f,\n", counts[i],
                 r_off[i].p50_ms);
    std::fprintf(f, "  \"nobatch_clients%d_p99_ms\": %.4f%s\n", counts[i],
                 r_off[i].p99_ms, i == 2 ? "" : ",");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
