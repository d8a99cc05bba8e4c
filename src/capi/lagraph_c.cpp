// LAGraph resumable-execution C binding: an opaque handle around
// lagraph::Runner plus driven entry points for the resumable algorithms.
//
// Same architecture as graphblas_c.cpp (§II-B): the body of every function
// is wrapped (capi_guarded) so no C++ exception crosses the C ABI;
// exceptions map to the GrB_Info execution codes through the same ladder.
// A driven run that the governor stopped (and the Runner gave up on)
// reports the trip as GxB_CANCELLED / GxB_TIMEOUT / GrB_OUT_OF_MEMORY but
// still writes the partial result into the output handle — the caller
// decides whether partial progress is usable.
#include "capi/lagraph_c.h"

#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "capi/capi_internal.hpp"
#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/serving.hpp"
#include "platform/service.hpp"

struct LAGraph_Runner_opaque {
  lagraph::Runner runner;
  // The graph of the last matrix value run on, keyed by that value's
  // generation: calls on the same, unchanged matrix reuse it together with
  // the properties (transpose, degrees, undirected view) earlier calls built.
  std::uint64_t generation = 0;
  std::optional<lagraph::Graph> graph;
};

struct LAGraph_Service_opaque {
  explicit LAGraph_Service_opaque(lagraph::GraphService::Options o)
      : service(std::move(o)) {}
  lagraph::GraphService service;
};

namespace {

LAGraph_StopReason map_stop(lagraph::StopReason s) noexcept {
  switch (s) {
    case lagraph::StopReason::none: return LAGraph_STOP_NONE;
    case lagraph::StopReason::converged: return LAGraph_STOP_CONVERGED;
    case lagraph::StopReason::max_iters: return LAGraph_STOP_MAX_ITERS;
    case lagraph::StopReason::diverged: return LAGraph_STOP_DIVERGED;
    case lagraph::StopReason::cancelled: return LAGraph_STOP_CANCELLED;
    case lagraph::StopReason::timeout: return LAGraph_STOP_TIMEOUT;
    case lagraph::StopReason::out_of_memory:
      return LAGraph_STOP_OUT_OF_MEMORY;
  }
  return LAGraph_STOP_NONE;
}

/// The return code of a driven run: the governor trip code for an
/// interruption, GrB_SUCCESS for every completed stop.
GrB_Info trip_code(lagraph::StopReason s) noexcept {
  switch (s) {
    case lagraph::StopReason::cancelled: return GxB_CANCELLED;
    case lagraph::StopReason::timeout: return GxB_TIMEOUT;
    case lagraph::StopReason::out_of_memory: return GrB_OUT_OF_MEMORY;
    default: return GrB_SUCCESS;
  }
}

using lagraph::Checkpoint;
using lagraph::Graph;

/// One driven Runner call on `a`, read as a directed graph: `driver(g, cp)`
/// is the resumable entry point the Runner slices. The Runner's graph is a
/// copy of `a`, taken only when `a`'s value differs from the one it was
/// taken from (another matrix, or a mutation since).
template <class D>
auto driven(LAGraph_Runner r, GrB_Matrix a, D&& driver) {
  // A driven call is a fresh run: a cancel left over from a previous run
  // must not trip it at the first poll.
  r->runner.governor().clear_cancel();
  const std::uint64_t generation = a->m.generation();
  if (!r->graph || r->generation != generation) {
    r->graph.reset();  // free the old graph before the copy
    r->graph.emplace(a->m.dup(), lagraph::Kind::directed);
    r->generation = generation;
  }
  const Graph& g = *r->graph;
  return r->runner.run(
      [&](const Checkpoint* cp) { return driver(g, cp); });
}

}  // namespace

extern "C" {

GrB_Info LAGraph_Runner_new(LAGraph_Runner* r) {
  if (r == nullptr) return GrB_NULL_POINTER;
  *r = new (std::nothrow) LAGraph_Runner_opaque;
  return *r != nullptr ? GrB_SUCCESS : GrB_OUT_OF_MEMORY;
}

GrB_Info LAGraph_Runner_free(LAGraph_Runner* r) {
  if (r == nullptr) return GrB_NULL_POINTER;
  delete *r;
  *r = nullptr;
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_set_slice_ms(LAGraph_Runner r, double ms) {
  if (r == nullptr) return GrB_NULL_POINTER;
  r->runner.options().slice_ms = ms > 0 ? ms : 0.0;
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_set_slice_budget(LAGraph_Runner r, uint64_t bytes) {
  if (r == nullptr) return GrB_NULL_POINTER;
  r->runner.options().slice_budget = static_cast<std::size_t>(bytes);
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_set_max_slices(LAGraph_Runner r, int n) {
  if (r == nullptr) return GrB_NULL_POINTER;
  if (n < 1) return GrB_INVALID_VALUE;
  r->runner.options().max_slices = n;
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_set_retry(LAGraph_Runner r, int max_attempts,
                                  double backoff_ms, double backoff_factor,
                                  double budget_growth) {
  if (r == nullptr) return GrB_NULL_POINTER;
  if (max_attempts < 0 || backoff_ms < 0 || backoff_factor < 1.0 ||
      budget_growth < 1.0) {
    return GrB_INVALID_VALUE;
  }
  r->runner.options().retry = lagraph::RetryPolicy{
      max_attempts, backoff_ms, backoff_factor, budget_growth};
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_set_checkpoint_path(LAGraph_Runner r,
                                            const char* path) {
  if (r == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    r->runner.options().checkpoint_path = path != nullptr ? path : "";
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Runner_cancel(LAGraph_Runner r) {
  if (r == nullptr) return GrB_NULL_POINTER;
  r->runner.governor().cancel();
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_stats(LAGraph_Runner r, int32_t* slices,
                              int32_t* retries, int32_t* degradations,
                              bool* gave_up, LAGraph_StopReason* stop) {
  if (r == nullptr) return GrB_NULL_POINTER;
  const lagraph::RunnerReport& rep = r->runner.report();
  if (slices != nullptr) *slices = rep.slices;
  if (retries != nullptr) *retries = rep.retries;
  if (degradations != nullptr) *degradations = rep.degradations;
  if (gave_up != nullptr) *gave_up = rep.gave_up;
  if (stop != nullptr) *stop = map_stop(rep.stop);
  return GrB_SUCCESS;
}

GrB_Info LAGraph_Runner_pagerank(GrB_Vector rank, LAGraph_Runner r,
                                 GrB_Matrix a, double damping, double tol,
                                 int max_iters, int32_t* iterations) {
  if (rank == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::pagerank(g, damping, tol, max_iters, cp);
    });
    rank->v = lagraph::to_fp64(std::move(res.rank));
    if (iterations != nullptr) *iterations = res.iterations;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_bfs_level(GrB_Vector level, LAGraph_Runner r,
                                  GrB_Matrix a, GrB_Index source) {
  if (level == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::bfs(g, static_cast<gb::Index>(source),
                          lagraph::BfsVariant::direction_optimizing, cp);
    });
    level->v = lagraph::to_fp64(std::move(res.level));
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_sssp_bellman_ford(GrB_Vector dist, LAGraph_Runner r,
                                          GrB_Matrix a, GrB_Index source,
                                          int32_t* iterations) {
  if (dist == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::sssp_bellman_ford(g, static_cast<gb::Index>(source),
                                        cp);
    });
    dist->v = lagraph::to_fp64(std::move(res.dist));
    if (iterations != nullptr) *iterations = res.iterations;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_cc(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                           int32_t* rounds) {
  if (labels == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::connected_components_run(g, cp);
    });
    labels->v = lagraph::to_fp64(std::move(res.labels));
    if (rounds != nullptr) *rounds = res.rounds;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_mcl(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                            double inflation, int max_iters, double prune,
                            int32_t* iterations) {
  if (labels == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::mcl(g, inflation, max_iters, prune, cp);
    });
    labels->v = lagraph::to_fp64(std::move(res.labels));
    if (iterations != nullptr) *iterations = res.iterations;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_peer_pressure(GrB_Vector labels, LAGraph_Runner r,
                                      GrB_Matrix a, int max_iters,
                                      int32_t* iterations) {
  if (labels == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::peer_pressure(g, max_iters, cp);
    });
    labels->v = lagraph::to_fp64(std::move(res.labels));
    if (iterations != nullptr) *iterations = res.iterations;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_bc(GrB_Vector centrality, LAGraph_Runner r,
                           GrB_Matrix a, const GrB_Index* sources,
                           GrB_Index nsources) {
  if (centrality == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  if (sources == nullptr && nsources != 0) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    std::vector<gb::Index> srcs(sources, sources + nsources);
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::betweenness_run(g, srcs, cp);
    });
    centrality->v = lagraph::to_fp64(std::move(res.centrality));
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_sssp_delta_stepping(GrB_Vector dist, LAGraph_Runner r,
                                            GrB_Matrix a, GrB_Index source,
                                            double delta,
                                            int32_t* iterations) {
  if (dist == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::sssp_delta_stepping(g, static_cast<gb::Index>(source),
                                          delta, cp);
    });
    dist->v = lagraph::to_fp64(std::move(res.dist));
    if (iterations != nullptr) *iterations = res.iterations;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_scc(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                            int32_t* pivots) {
  if (labels == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::strongly_connected_components_run(g, cp);
    });
    labels->v = lagraph::to_fp64(std::move(res.labels));
    if (pivots != nullptr) *pivots = res.pivots;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Runner_coloring(GrB_Vector colors, LAGraph_Runner r,
                                 GrB_Matrix a, uint64_t seed,
                                 int32_t* rounds) {
  if (colors == nullptr || r == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    auto res = driven(r, a, [&](const Graph& g, const Checkpoint* cp) {
      return lagraph::coloring_run(g, seed, cp);
    });
    colors->v = lagraph::to_fp64(std::move(res.colors));
    if (rounds != nullptr) *rounds = static_cast<int32_t>(res.rounds);
    return trip_code(res.stop);
  });
}

/* --- concurrent serving -------------------------------------------------- */

GrB_Info LAGraph_Service_new(LAGraph_Service* s, int workers,
                             uint64_t queue_limit, double timeout_ms,
                             uint64_t budget_bytes, uint64_t shed_bytes,
                             double stall_ms) {
  // Batching off: the ServicePolicy defaults (batch_max 1, no window).
  return LAGraph_Service_new_ex(s, workers, queue_limit, timeout_ms,
                                budget_bytes, shed_bytes, stall_ms, 1, 0.0);
}

GrB_Info LAGraph_Service_new_ex(LAGraph_Service* s, int workers,
                                uint64_t queue_limit, double timeout_ms,
                                uint64_t budget_bytes, uint64_t shed_bytes,
                                double stall_ms, uint64_t batch_max,
                                double batch_window_us) {
  if (s == nullptr) return GrB_NULL_POINTER;
  if (workers < 1 || batch_window_us < 0) return GrB_INVALID_VALUE;
  *s = nullptr;
  return capi_guarded([&] {
    lagraph::GraphService::Options opts;
    opts.service.workers = workers;
    opts.service.queue_limit = static_cast<std::size_t>(queue_limit);
    opts.service.request_timeout_ms = timeout_ms > 0 ? timeout_ms : 0.0;
    opts.service.request_budget = static_cast<std::size_t>(budget_bytes);
    opts.service.shed_bytes = static_cast<std::size_t>(shed_bytes);
    opts.service.watchdog_stall_ms = stall_ms > 0 ? stall_ms : 0.0;
    opts.service.batch_max =
        batch_max < 1 ? 1 : static_cast<std::size_t>(batch_max);
    opts.service.batch_window_us = batch_window_us;
    // Algorithm jobs slice at the request deadline/budget cadence.
    opts.runner.slice_ms = timeout_ms > 0 ? timeout_ms : 0.0;
    opts.runner.slice_budget = static_cast<std::size_t>(budget_bytes);
    *s = new LAGraph_Service_opaque(std::move(opts));
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_free(LAGraph_Service* s) {
  if (s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    delete *s;
    *s = nullptr;
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_publish(LAGraph_Service s, const char* name,
                                 GrB_Matrix a) {
  if (s == nullptr || name == nullptr || a == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    gb::Matrix<double> adj = a->m.dup();
    s->service.publish(name,
                       lagraph::Graph(std::move(adj), lagraph::Kind::directed));
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_version(LAGraph_Service s, const char* name,
                                 uint64_t* version) {
  if (s == nullptr || name == nullptr || version == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    *version = s->service.version(name);
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_submit(LAGraph_Service s, const char* algo,
                                const char* graph, GrB_Index arg,
                                uint64_t* job_id) {
  if (s == nullptr || algo == nullptr || graph == nullptr ||
      job_id == nullptr) {
    return GrB_NULL_POINTER;
  }
  return capi_guarded([&] {
    *job_id = s->service.submit_algorithm(algo, graph,
                                          static_cast<std::uint64_t>(arg));
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_poll(LAGraph_Service s, uint64_t job_id,
                              LAGraph_JobState* state) {
  if (s == nullptr || state == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    switch (s->service.poll(job_id)) {
      case gb::platform::Service::State::queued:
        *state = LAGraph_JOB_QUEUED;
        break;
      case gb::platform::Service::State::running:
        *state = LAGraph_JOB_RUNNING;
        break;
      case gb::platform::Service::State::done:
        *state = LAGraph_JOB_DONE;
        break;
      case gb::platform::Service::State::failed:
        *state = LAGraph_JOB_FAILED;
        break;
      case gb::platform::Service::State::cancelled:
        *state = LAGraph_JOB_CANCELLED;
        break;
    }
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_wait(GrB_Vector result, LAGraph_Service s,
                              uint64_t job_id) {
  if (result == nullptr || s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    // The job stays readable until release, so its vector is copied.
    const lagraph::ServiceJobResult& res = s->service.wait(job_id);
    result->v = res.vector;
    return trip_code(res.stop);
  });
}

GrB_Info LAGraph_Service_cancel(LAGraph_Service s, uint64_t job_id) {
  if (s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    s->service.cancel(job_id);
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_release(LAGraph_Service s, uint64_t job_id) {
  if (s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    s->service.release(job_id);
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_stats(LAGraph_Service s, uint64_t* submitted,
                               uint64_t* shed, uint64_t* completed,
                               uint64_t* failed, uint64_t* cancelled,
                               uint64_t* watchdog_cancels,
                               uint64_t* queue_depth, uint64_t* running) {
  if (s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    const gb::platform::ServiceStats st = s->service.stats();
    if (submitted != nullptr) *submitted = st.submitted;
    if (shed != nullptr) *shed = st.shed;
    if (completed != nullptr) *completed = st.completed;
    if (failed != nullptr) *failed = st.failed;
    if (cancelled != nullptr) *cancelled = st.cancelled;
    if (watchdog_cancels != nullptr) *watchdog_cancels = st.watchdog_cancels;
    if (queue_depth != nullptr) *queue_depth = st.queue_depth;
    if (running != nullptr) *running = st.running;
    return GrB_SUCCESS;
  });
}

GrB_Info LAGraph_Service_batch_stats(LAGraph_Service s, uint64_t* batches,
                                     uint64_t* batched_requests) {
  if (s == nullptr) return GrB_NULL_POINTER;
  return capi_guarded([&] {
    const gb::platform::ServiceStats st = s->service.stats();
    if (batches != nullptr) *batches = st.batches;
    if (batched_requests != nullptr) *batched_requests = st.batched_requests;
    return GrB_SUCCESS;
  });
}

}  // extern "C"
