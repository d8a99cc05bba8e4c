#include "lagraph/serving.hpp"

#include <cstdint>
#include <utility>

#include "lagraph/lagraph.hpp"

namespace lagraph {

namespace {

using BatchView = gb::platform::Service::BatchView;

/// Flatten a result vector into the job's (idx, vals) arrays.
template <class VecT>
void store_vector(const VecT& v, ServiceJobResult& out) {
  std::vector<gb::Index> idx;
  std::vector<typename VecT::value_type> vals;
  v.extract_tuples(idx, vals);
  out.idx = std::move(idx);
  out.vals.assign(vals.begin(), vals.end());
  out.n = v.size();
}

/// De-batch a (k x n) result matrix: row r belongs to batch member
/// member_of_row[r]. Tuples come out row-major sorted, so this is one pass.
/// Members cancelled after dispatch are skipped (the service finishes them
/// State::cancelled; their payload is left untouched).
template <class T>
void scatter_rows(const gb::Matrix<T>& m,
                  const std::vector<std::size_t>& member_of_row,
                  const BatchView& view, StopReason stop) {
  const gb::Index n = m.ncols();
  const std::uint64_t live = member_of_row.size();
  for (std::size_t member : member_of_row) {
    if (view.cancelled(member)) continue;
    auto* out = static_cast<ServiceJobResult*>(view.payload(member));
    out->idx.clear();
    out->vals.clear();
    out->n = n;
    out->stop = stop;
    out->batch_size = live;
  }
  std::vector<gb::Index> ri, ci;
  std::vector<T> vi;
  m.extract_tuples(ri, ci, vi);
  for (std::size_t t = 0; t < ri.size(); ++t) {
    const std::size_t member = member_of_row[static_cast<std::size_t>(ri[t])];
    if (view.cancelled(member)) continue;
    auto* out = static_cast<ServiceJobResult*>(view.payload(member));
    out->idx.push_back(ci[t]);
    out->vals.push_back(static_cast<double>(vi[t]));
  }
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
  auto res = std::make_shared<ServiceJobResult>();
  auto ticket = svc_.submit(
      [snap, res, q = std::move(q)](gb::platform::Governor& gov) {
        *res = q(*snap, gov);
      });
  return remember(std::move(ticket), std::move(res));
}

std::uint64_t GraphService::submit_algorithm(const std::string& algo,
                                             const std::string& graph,
                                             std::uint64_t arg) {
  gb::check_value(algo == "pagerank" || algo == "bfs" || algo == "sssp" ||
                      algo == "cc" || algo == "scc" || algo == "coloring",
                  "GraphService: unknown algorithm");
  auto snap = snapshot(graph);
  auto res = std::make_shared<ServiceJobResult>();
  RunnerOptions ropts = opts_.runner;
  if (algo == "bfs" || algo == "sssp") {
    gb::check_index(arg < static_cast<std::uint64_t>(snap->adj().nrows()),
                    "GraphService: source out of range");
  }

  const bool batchable =
      algo == "pagerank" || algo == "bfs" || algo == "sssp";
  if (batchable && svc_.policy().batch_max > 1) {
    // Batch planner: one open batch per (algorithm, snapshot identity). The
    // snapshot pointer is a sound key because the opener's job keeps the
    // snapshot alive for as long as the batch is joinable — the address
    // cannot be recycled under an open batch.
    const std::string key =
        algo + '|' +
        std::to_string(reinterpret_cast<std::uintptr_t>(snap.get()));
    gb::platform::Service::BatchJob job;
    if (algo == "pagerank") {
      // pagerank takes no per-request argument here, so every member of the
      // batch asks for the same computation: run it ONCE and fan the result
      // out to all live members (request dedup).
      job = [snap, ropts](gb::platform::Governor& gov, const BatchView& view) {
        const BatchRows rows = collect_rows(view);
        if (rows.member_of_row.empty()) return;
        Runner runner(ropts, gov);  // external-governor mode
        auto out = runner.run([&](const Checkpoint* cp) {
          return pagerank(*snap, 0.85, 1e-9, 100, cp);
        });
        std::vector<gb::Index> idx;
        std::vector<double> vals;
        out.rank.extract_tuples(idx, vals);
        for (std::size_t member : rows.member_of_row) {
          if (view.cancelled(member)) continue;
          auto* r = static_cast<ServiceJobResult*>(view.payload(member));
          r->idx = idx;
          r->vals = vals;
          r->n = out.rank.size();
          r->stop = out.stop;
          r->batch_size = rows.member_of_row.size();
        }
      };
    } else if (algo == "bfs") {
      job = [snap, ropts](gb::platform::Governor& gov, const BatchView& view) {
        const BatchRows rows = collect_rows(view);
        if (rows.member_of_row.empty()) return;
        Runner runner(ropts, gov);
        if (rows.sources.size() == 1) {
          // A batch that collapsed to one live row takes the solo driver:
          // direction-optimizing BFS beats the k-row matrix walk at k = 1,
          // and levels are variant-independent so the result is unchanged.
          auto out = runner.run([&](const Checkpoint* cp) {
            return bfs(*snap, rows.sources[0],
                       BfsVariant::direction_optimizing, cp);
          });
          auto* r = static_cast<ServiceJobResult*>(
              view.payload(rows.member_of_row[0]));
          r->stop = out.stop;
          r->batch_size = 1;
          store_vector(out.level, *r);
          return;
        }
        auto out = runner.run([&](const Checkpoint* cp) {
          return bfs_level_ms(*snap, rows.sources, cp);
        });
        scatter_rows(out.level, rows.member_of_row, view, out.stop);
      };
    } else {  // sssp
      job = [snap, ropts](gb::platform::Governor& gov, const BatchView& view) {
        const BatchRows rows = collect_rows(view);
        if (rows.member_of_row.empty()) return;
        Runner runner(ropts, gov);
        if (rows.sources.size() == 1) {
          auto out = runner.run([&](const Checkpoint* cp) {
            return sssp_bellman_ford(*snap, rows.sources[0], cp);
          });
          auto* r = static_cast<ServiceJobResult*>(
              view.payload(rows.member_of_row[0]));
          r->stop = out.stop;
          r->batch_size = 1;
          store_vector(out.dist, *r);
          return;
        }
        auto out = runner.run([&](const Checkpoint* cp) {
          return sssp_bellman_ford_ms(*snap, rows.sources, cp);
        });
        scatter_rows(out.dist, rows.member_of_row, view, out.stop);
      };
    }
    auto ticket = svc_.submit_coalesced(key, arg, res, std::move(job),
                                        /*self_governed=*/true);
    return remember(std::move(ticket), std::move(res));
  }

  auto ticket = svc_.submit(
      [snap, res, ropts, algo, arg](gb::platform::Governor& gov) {
        Runner runner(ropts, gov);  // external-governor mode
        if (algo == "pagerank") {
          auto out = runner.run([&](const Checkpoint* cp) {
            return pagerank(*snap, 0.85, 1e-9, 100, cp);
          });
          res->stop = out.stop;
          store_vector(out.rank, *res);
        } else if (algo == "bfs") {
          auto out = runner.run([&](const Checkpoint* cp) {
            return bfs(*snap, arg, BfsVariant::direction_optimizing, cp);
          });
          res->stop = out.stop;
          store_vector(out.level, *res);
        } else if (algo == "sssp") {
          auto out = runner.run([&](const Checkpoint* cp) {
            return sssp_bellman_ford(*snap, arg, cp);
          });
          res->stop = out.stop;
          store_vector(out.dist, *res);
        } else if (algo == "cc") {
          auto out = runner.run([&](const Checkpoint* cp) {
            return connected_components_run(*snap, cp);
          });
          res->stop = out.stop;
          store_vector(out.labels, *res);
        } else if (algo == "scc") {
          auto out = runner.run([&](const Checkpoint* cp) {
            return strongly_connected_components_run(*snap, cp);
          });
          res->stop = out.stop;
          store_vector(out.labels, *res);
        } else {  // coloring (arg = seed)
          auto out = runner.run([&](const Checkpoint* cp) {
            return coloring_run(*snap, arg, cp);
          });
          res->stop = out.stop;
          store_vector(out.colors, *res);
        }
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
