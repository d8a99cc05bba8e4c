// The three workloads: the system each one sets up, and the traffic that
// drives it. Every call into the library goes through the C API
// (capi/lagraph_c.h); this file only times those calls from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capi/lagraph_c.h"
#include "check.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {

enum class Kind { direct, serve_mixed, serve_batched_rw };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  int scale;                  ///< R-MAT scale of the workload graph
  int clients;                ///< closed-loop callers (direct: 1)
  int workers;                ///< service workers (direct: 0, no service)
  std::uint64_t batch_max;    ///< coalescing limit (1 = batching off)
  double batch_window_us;     ///< coalescing window
  double offered_rps;         ///< open-loop rate of the generator (0 = none)
  double republish_ms;        ///< writer period (0 = no writer)
  double side_rps;            ///< paced bfs/cc side caller (0 = none)
  int mix[kAlgos];            ///< request weights bfs:sssp:pagerank:cc
};

/// nullptr when the name is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// What one stretch of traffic produced.
struct TrafficResult {
  double elapsed_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  ///< returned GrB_SUCCESS with a result
  std::uint64_t failed = 0;     ///< error, shed, cancelled or timed out
  std::vector<double> lat_ms[kAlgos];
  std::vector<double> publish_ms;  ///< writer publishes, from their due time
  std::vector<double> generator_late_ms, writer_late_ms;
  std::uint64_t backlog_end = 0;  ///< open loop: unfinished at window end
  /// Service stages seen through LAGraph_Service_poll (traced runs only).
  std::vector<double> queue_wait_ms, run_ms;
  std::vector<double> queue_depth;  ///< sampled at each submit (traced)
  std::vector<Sample> samples;
};

/// Service counters (LAGraph_Service_stats / _batch_stats).
struct ServiceCounters {
  std::uint64_t submitted = 0, shed = 0, completed = 0, failed = 0,
                cancelled = 0, watchdog_cancels = 0, batches = 0,
                batched_requests = 0;
};

/// The system under test. Construction is the set-up that setup_s times:
/// the C-API matrix build, the service and its first publish (serving
/// workloads) or the Runner handle (direct), and the first request of each
/// algorithm.
class System {
 public:
  System(const WorkloadSpec& spec, const Inputs& in);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Drive the workload's traffic for `seconds`. Request inputs come from
  /// `seed`; up to `sample_cap` results per algorithm are kept for checking.
  TrafficResult run(double seconds, std::uint64_t seed, Tracer& tracer,
                    std::size_t sample_cap);

  /// `count` back-to-back publishes of the graph on an idle service (a
  /// one-worker service is made for the direct workload), in ms.
  std::vector<double> quiet_publishes(int count);

  [[nodiscard]] ServiceCounters counters() const;

 private:
  TrafficResult run_direct(double seconds, std::uint64_t seed, Tracer& tr,
                           std::size_t cap);
  TrafficResult run_closed(double seconds, std::uint64_t seed, Tracer& tr,
                           std::size_t cap);
  TrafficResult run_open(double seconds, std::uint64_t seed, Tracer& tr,
                         std::size_t cap);
  /// Publish the version that keeps odd = base, even = rewired.
  GrB_Info publish_next();
  static void retire_displaced();
  void release();

  const WorkloadSpec& spec_;
  const Inputs& in_;
  GrB_Matrix a_ = nullptr;        ///< base graph
  GrB_Matrix rewired_ = nullptr;  ///< second version (republish traffic)
  LAGraph_Runner runner_ = nullptr;
  LAGraph_Service svc_ = nullptr;
};

}  // namespace perfbench
