#include "lagraph/serving.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lagraph/lagraph.hpp"

namespace lagraph {

namespace {

using BatchView = gb::platform::Service::BatchView;

ServiceJobResult* payload(const BatchView& view, std::size_t member) {
  return static_cast<ServiceJobResult*>(view.payload(member));
}

/// The live members of a batch and the source each contributes: row r of the
/// multi-source run is sources[r], owned by member_of_row[r].
struct BatchRows {
  std::vector<gb::Index> sources;
  std::vector<std::size_t> member_of_row;
};

BatchRows collect_rows(const BatchView& view) {
  BatchRows rows;
  rows.sources.reserve(view.size());
  rows.member_of_row.reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view.cancelled(i)) continue;
    rows.sources.push_back(static_cast<gb::Index>(view.arg(i)));
    rows.member_of_row.push_back(i);
  }
  return rows;
}

/// De-batch a (k x n) result matrix: row r becomes the result vector of
/// member rows.member_of_row[r] (GrB_Col_extract on the transpose: O(row),
/// no sort). Members cancelled after dispatch are skipped (the service
/// finishes them State::cancelled; their payload is left untouched).
template <class T>
void scatter_rows(const gb::Matrix<T>& m, const BatchRows& rows,
                  const BatchView& view, StopReason stop) {
  const auto all = gb::IndexSel::all(m.ncols());
  for (std::size_t r = 0; r < rows.member_of_row.size(); ++r) {
    const std::size_t member = rows.member_of_row[r];
    if (view.cancelled(member)) continue;
    ServiceJobResult* out = payload(view, member);
    gb::extract_col(out->vector, gb::no_mask, gb::no_accum, m, all,
                    static_cast<gb::Index>(r), gb::desc_t0);
    out->stop = stop;
    out->batch_size = rows.member_of_row.size();
  }
}

/// One served algorithm: the only place its name appears.
struct ServedAlgorithm {
  const char* name;
  /// `arg` is a vertex id, range-checked at submit (else a seed or unused).
  bool arg_is_source;
  /// The solo run: the FP64 result vector and the drive's stop code.
  ServiceJobResult (*solo)(Runner&, const Graph&, std::uint64_t arg);
  /// Batch mode, when batching is on. dedup: there is no per-request
  /// argument, so one solo run serves every member. multi: drives every
  /// live source as one row of a multi-source run and de-batches the rows.
  /// Neither: every request runs alone.
  bool dedup = false;
  void (*multi)(Runner&, const Graph&, const BatchRows&,
                const BatchView&) = nullptr;
};

const ServedAlgorithm kServed[] = {
    {"pagerank", false,
     [](Runner& r, const Graph& g, std::uint64_t) {
       auto out = r.run([&](const Checkpoint* cp) {
         return pagerank(g, 0.85, 1e-9, 100, cp);
       });
       return ServiceJobResult{to_fp64(std::move(out.rank)), out.stop};
     },
     /*dedup=*/true},
    {"bfs", true,
     [](Runner& r, const Graph& g, std::uint64_t source) {
       auto out = r.run([&](const Checkpoint* cp) {
         return bfs(g, source, BfsVariant::direction_optimizing, cp);
       });
       return ServiceJobResult{to_fp64(std::move(out.level)), out.stop};
     },
     /*dedup=*/false,
     [](Runner& r, const Graph& g, const BatchRows& rows,
        const BatchView& view) {
       auto out = r.run([&](const Checkpoint* cp) {
         return bfs_level_ms(g, rows.sources, cp);
       });
       scatter_rows(out.level, rows, view, out.stop);
     }},
    {"sssp", true,
     [](Runner& r, const Graph& g, std::uint64_t source) {
       auto out = r.run([&](const Checkpoint* cp) {
         return sssp_bellman_ford(g, source, cp);
       });
       return ServiceJobResult{to_fp64(std::move(out.dist)), out.stop};
     },
     /*dedup=*/false,
     [](Runner& r, const Graph& g, const BatchRows& rows,
        const BatchView& view) {
       auto out = r.run([&](const Checkpoint* cp) {
         return sssp_bellman_ford_ms(g, rows.sources, cp);
       });
       scatter_rows(out.dist, rows, view, out.stop);
     }},
    {"cc", false,
     [](Runner& r, const Graph& g, std::uint64_t) {
       auto out = r.run([&](const Checkpoint* cp) {
         return connected_components_run(g, cp);
       });
       return ServiceJobResult{to_fp64(std::move(out.labels)), out.stop};
     }},
    {"scc", false,
     [](Runner& r, const Graph& g, std::uint64_t) {
       auto out = r.run([&](const Checkpoint* cp) {
         return strongly_connected_components_run(g, cp);
       });
       return ServiceJobResult{to_fp64(std::move(out.labels)), out.stop};
     }},
    {"coloring", false,
     [](Runner& r, const Graph& g, std::uint64_t seed) {
       auto out = r.run(
           [&](const Checkpoint* cp) { return coloring_run(g, seed, cp); });
       return ServiceJobResult{to_fp64(std::move(out.colors)), out.stop};
     }},
};

const ServedAlgorithm& served(const std::string& name) {
  for (const ServedAlgorithm& a : kServed) {
    if (name == a.name) return a;
  }
  throw gb::Error(gb::Info::invalid_value, "GraphService: unknown algorithm");
}

/// A result before its job runs: no entries, the snapshot's dimension.
std::shared_ptr<ServiceJobResult> empty_result(const Graph& g) {
  auto res = std::make_shared<ServiceJobResult>();
  res->vector = gb::Vector<double>(g.adj().nrows());
  return res;
}

}  // namespace

GraphService::GraphService(Options opts)
    : opts_(std::move(opts)), svc_(opts_.service) {}

void GraphService::publish(const std::string& name, Graph&& g) {
  auto next = std::make_shared<Graph>(std::move(g));
  next->freeze();  // outside the lock: readers never wait on a freeze
  std::shared_ptr<const Graph> displaced = std::move(next);
  {
    std::lock_guard<std::mutex> lk(gm_);
    Published& p = graphs_[name];
    p.current.swap(displaced);
    ++p.version;
  }
  // If no job still holds the displaced version, it is freed here, outside
  // the lock.
}

std::shared_ptr<const Graph> GraphService::snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(gm_);
  auto it = graphs_.find(name);
  gb::check_value(it != graphs_.end(), "GraphService: unknown graph name");
  return it->second.current;
}

std::uint64_t GraphService::version(const std::string& name) const {
  std::lock_guard<std::mutex> lk(gm_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? 0 : it->second.version;
}

std::uint64_t GraphService::submit(const std::string& graph, Query q) {
  auto snap = snapshot(graph);  // isolation: the version current *now*
  auto res = empty_result(*snap);
  auto ticket = svc_.submit(
      [snap, res, q = std::move(q)](gb::platform::Governor& gov) {
        *res = q(*snap, gov);
      });
  return remember(std::move(ticket), std::move(res));
}

std::uint64_t GraphService::submit_algorithm(const std::string& algo,
                                             const std::string& graph,
                                             std::uint64_t arg) {
  const ServedAlgorithm* row = &served(algo);
  auto snap = snapshot(graph);
  if (row->arg_is_source) {
    gb::check_index(arg < static_cast<std::uint64_t>(snap->adj().nrows()),
                    "GraphService: source out of range");
  }
  auto res = empty_result(*snap);
  RunnerOptions ropts = opts_.runner;

  if ((row->dedup || row->multi) && svc_.policy().batch_max > 1) {
    // Batch planner: one open batch per (algorithm, snapshot identity). The
    // snapshot pointer is a sound key because the opener's job keeps the
    // snapshot alive for as long as the batch is joinable — the address
    // cannot be recycled under an open batch.
    const std::string key =
        algo + '|' +
        std::to_string(reinterpret_cast<std::uintptr_t>(snap.get()));
    auto job = [snap, ropts, row](gb::platform::Governor& gov,
                                  const BatchView& view) {
      const BatchRows rows = collect_rows(view);
      if (rows.member_of_row.empty()) return;
      Runner runner(ropts, gov);  // external-governor mode
      if (row->multi && rows.sources.size() > 1) {
        row->multi(runner, *snap, rows, view);
        return;
      }
      // A dedup batch asks every member for the same computation: run it
      // once and fan the result out. A multi-source batch that collapsed to
      // one live row takes the solo driver too: direction-optimizing BFS
      // beats the k-row matrix walk at k = 1, and the result is the same.
      ServiceJobResult solo = row->solo(runner, *snap, rows.sources[0]);
      solo.batch_size = rows.member_of_row.size();
      for (std::size_t member : rows.member_of_row) {
        if (!view.cancelled(member)) *payload(view, member) = solo;
      }
    };
    auto ticket = svc_.submit_coalesced(key, arg, res, std::move(job),
                                        /*self_governed=*/true);
    return remember(std::move(ticket), std::move(res));
  }

  auto ticket = svc_.submit(
      [snap, res, ropts, row, arg](gb::platform::Governor& gov) {
        Runner runner(ropts, gov);  // external-governor mode
        *res = row->solo(runner, *snap, arg);
      },
      /*self_governed=*/true);
  return remember(std::move(ticket), std::move(res));
}

GraphService::Job GraphService::lookup(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(jm_);
  auto it = jobs_.find(id);
  gb::check_value(it != jobs_.end(), "GraphService: unknown job id");
  return it->second;
}

std::uint64_t GraphService::remember(gb::platform::Service::Ticket t,
                                     std::shared_ptr<ServiceJobResult> res) {
  std::lock_guard<std::mutex> lk(jm_);
  const std::uint64_t id = next_id_++;
  jobs_.emplace(id, Job{std::move(t), std::move(res)});
  return id;
}

GraphService::JobState GraphService::poll(std::uint64_t id) const {
  return lookup(id).ticket.state();
}

const ServiceJobResult& GraphService::wait(std::uint64_t id) {
  Job j = lookup(id);
  const JobState s = j.ticket.wait();
  if (s == JobState::failed) j.ticket.rethrow();
  if (s == JobState::cancelled) {
    // Cancelled before (or while) running: stamp the stop code. Serialised
    // under the job-table lock so concurrent waiters do not race the write.
    std::lock_guard<std::mutex> lk(jm_);
    if (j.result->stop == StopReason::none)
      j.result->stop = StopReason::cancelled;
  }
  return *j.result;
}

void GraphService::cancel(std::uint64_t id) { lookup(id).ticket.cancel(); }

void GraphService::release(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(jm_);
  jobs_.erase(id);
}

}  // namespace lagraph
