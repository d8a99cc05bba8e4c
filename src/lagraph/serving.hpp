// lagraph::GraphService — the algorithm-level serving surface on top of
// gb::platform::Service: named published graphs with snapshot isolation,
// Runner-driven algorithm jobs, and a job table reachable from the C API.
//
// Publication model: publish(name, graph) freezes the graph (every lazy
// cache materialised) and makes it the name's current version, a
// shared_ptr<const Graph>. Submitting a job acquires the version current
// *at submit time*; a writer republishing the name never blocks running
// readers and never changes what an in-flight job sees (snapshot
// isolation). Versions are reference counted: a displaced version is freed
// when its last holder lets go — the service entry, a job that has not
// finished yet, or a caller of snapshot() — with no drain call, from C as
// well as C++.
//
// Execution model: algorithm jobs are self-governed — a lagraph::Runner is
// bound to the request's Governor (external-governor mode), so slices arm
// deadlines/budgets per the configured RunnerOptions while cancel (client or
// watchdog) lands on the same governor the kernels poll. Interruptions
// surface as the job's StopReason, exactly like the direct Runner API.
//
// Results: every job's result is one FP64 gb::Vector — the driver's typed
// output cast once by to_fp64 below, the same conversion the C Runner uses —
// so wait hands out a GraphBLAS object, never a tuple list to rebuild.
// A result starts as an empty vector of the snapshot's dimension, so a job
// that never ran (cancelled while queued) still has the graph's shape.
//
// Batched execution: when the service policy enables coalescing (batch_max
// > 1), batchable algorithms route through Service::submit_coalesced. The
// planner keys a batch by (algorithm, snapshot identity): concurrent bfs /
// sssp requests against the same published version coalesce into ONE
// multi-source kernel run (bfs_level_ms / sssp_bellman_ford_ms — one row of
// the frontier matrix per request, bit-identical per row to the solo runs),
// and concurrent pagerank requests dedup into one run fanned out to every
// member. De-batching extracts each live member's row into its
// ServiceJobResult, so poll/wait/cancel/release are oblivious to batching;
// a cancelled member is masked out of the de-batch, never killing siblings.
// batch_size on the result records how many requests shared the kernel run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lagraph/graph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/scope.hpp"
#include "platform/service.hpp"

namespace lagraph {

/// The FP64 form every served result (and every C Runner result) takes: a
/// typecasting GrB_apply for integer results (hop counts, vertex ids,
/// colors — exact below 2^53); an FP64 result moves in unchanged.
template <class T>
gb::Vector<double> to_fp64(gb::Vector<T>&& v) {
  if constexpr (std::is_same_v<T, double>) {
    return std::move(v);
  } else {
    gb::Vector<double> out(v.size());
    gb::apply(out, gb::no_mask, gb::no_accum, gb::Identity{}, v);
    return out;
  }
}

/// What a serving job hands back: the result vector plus the StopReason of
/// the drive (none/converged = complete; an interruption code = partial
/// result, same contract as the Runner API).
struct ServiceJobResult {
  gb::Vector<double> vector;
  StopReason stop = StopReason::none;
  /// How many requests shared the kernel run that produced this result:
  /// 0 = unbatched path, 1 = coalesced but ran alone, >1 = true batch.
  std::uint64_t batch_size = 0;
};

class GraphService {
 public:
  struct Options {
    gb::platform::ServicePolicy service;
    RunnerOptions runner;  ///< slice/retry shape for algorithm jobs
  };

  using JobState = gb::platform::Service::State;

  explicit GraphService(Options opts = {});
  ~GraphService() = default;

  // --- graph publication -----------------------------------------------------

  /// Freeze `g` and install it as the current version under `name`.
  /// Republishing replaces the version for *future* submissions only; jobs
  /// in flight keep the snapshot they acquired. The displaced version is
  /// freed once the last job holding it finishes (here, if none does).
  void publish(const std::string& name, Graph&& g);

  /// The current published snapshot (throws gb::Error invalid_value when the
  /// name is unknown). Safe from any thread.
  [[nodiscard]] std::shared_ptr<const Graph> snapshot(
      const std::string& name) const;

  /// Version counter for `name` (0 = never published).
  [[nodiscard]] std::uint64_t version(const std::string& name) const;

  // --- job submission ----------------------------------------------------------

  /// Arbitrary query against the snapshot current at submit time, run under
  /// the service policy's deadline/budget. Throws OverloadedError when shed.
  using Query =
      std::function<ServiceJobResult(const Graph&, gb::platform::Governor&)>;
  std::uint64_t submit(const std::string& graph, Query q);

  /// Named Runner-driven algorithm job, one of the served algorithms:
  /// "pagerank" (arg unused), "bfs" (arg = source, result = levels), "sssp"
  /// (arg = source, Bellman-Ford distances), "cc" / "scc" (arg unused,
  /// component labels), "coloring" (arg = seed, 1-based colors). Throws
  /// gb::Error invalid_value for an unknown name, invalid_index for an
  /// out-of-range source, OverloadedError when shed. bfs/sssp coalesce into
  /// one multi-source run and pagerank dedups when batch_max > 1 (see the
  /// header note).
  std::uint64_t submit_algorithm(const std::string& algo,
                                 const std::string& graph, std::uint64_t arg);

  // --- job control -------------------------------------------------------------

  [[nodiscard]] JobState poll(std::uint64_t id) const;

  /// Block until terminal; rethrows the job's error if it failed. The
  /// returned result lives until release(id) (or service destruction).
  const ServiceJobResult& wait(std::uint64_t id);

  void cancel(std::uint64_t id);

  /// Drop a finished job's record and result storage.
  void release(std::uint64_t id);

  [[nodiscard]] gb::platform::ServiceStats stats() const {
    return svc_.stats();
  }

  /// Wait until no job is queued or running (Service::quiesce).
  void quiesce() { svc_.quiesce(); }

  [[nodiscard]] gb::platform::Service& core() noexcept { return svc_; }

 private:
  struct Job {
    gb::platform::Service::Ticket ticket;
    std::shared_ptr<ServiceJobResult> result;
  };

  [[nodiscard]] Job lookup(std::uint64_t id) const;
  std::uint64_t remember(gb::platform::Service::Ticket t,
                         std::shared_ptr<ServiceJobResult> res);

  Options opts_;
  gb::platform::Service svc_;

  /// One published name: its current version and how many times it has
  /// been published.
  struct Published {
    std::shared_ptr<const Graph> current;
    std::uint64_t version = 0;
  };

  mutable std::mutex gm_;
  std::unordered_map<std::string, Published> graphs_;

  mutable std::mutex jm_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace lagraph
