#include "layers.hpp"

#include <omp.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "capi/lagraph_c.h"
#include "check.hpp"
#include "graphblas/graphblas.hpp"
#include "lagraph/lagraph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/serving.hpp"
#include "platform/epoch.hpp"
#include "platform/memory.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 7;          ///< repetitions per probe (median kept)
constexpr int kProbeSources = 5;  ///< BFS/SSSP probe sources
constexpr double kDamping = 0.85;
constexpr double kTol = 1e-9;
constexpr int kMaxIters = 100;

using lagraph::Graph;
using Snapshot = std::shared_ptr<const Graph>;

void require(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS)
    throw std::runtime_error(std::string("probe: ") + what + " failed");
}

/// Single-threaded span recorder for the probes; every timed call is a span.
class Probe {
 public:
  explicit Probe(Tracer& tr) : tr_(tr) {}
  ~Probe() { tr_.merge(buf_); }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Runs f as a span; returns its duration in ms.
  template <class F>
  double span(const char* name, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    buf_.spans.push_back(Span{name, seq_++, t0, t1});
    return ms_between(t0, t1);
  }

 private:
  Tracer& tr_;
  Tracer::Buffer buf_;
  std::uint64_t seq_ = 0;
};

/// Median over `reps` calls of f(rep) -> ms.
template <class F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(f(r));
  return median(v);
}

struct Degrees {
  std::vector<double> out, in;
};

Degrees degrees(const Graph& g) {
  std::vector<gb::Index> r, c;
  std::vector<double> v;
  g.adj().extract_tuples(r, c, v);
  Degrees d{std::vector<double>(g.nrows(), 0.0),
            std::vector<double>(g.nrows(), 0.0)};
  for (std::size_t k = 0; k < r.size(); ++k) {
    d.out[r[k]] += 1;
    d.in[c[k]] += 1;
  }
  return d;
}

template <class T>
double out_work(const gb::Vector<T>& u, const Degrees& d) {
  std::vector<gb::Index> idx;
  std::vector<T> vals;
  u.extract_tuples(idx, vals);
  double w = 0;
  for (gb::Index i : idx) w += d.out[i];
  return w;
}

gb::MxvMethod choose_direction(double density, double prev, double threshold,
                               gb::MxvMethod dir) {
  if (density > threshold && prev <= threshold) return gb::MxvMethod::pull;
  if (density < threshold && prev >= threshold) return gb::MxvMethod::push;
  return dir;
}

/// Mid-run operands of the GraphBLAS ops the drivers spend their time in.
struct Operands {
  gb::Vector<std::uint64_t> push_carrier, pull_carrier;
  gb::Vector<std::int64_t> push_mask, pull_mask;
  gb::Vector<double> pr_rank;  ///< PageRank iterate entering iteration 3
  gb::Vector<double> dist;     ///< SSSP distances after two rounds
  gb::Matrix<double> dist3;    ///< k = 3 batched SSSP after two rounds
};

/// The BFS driver's loop (direction-optimizing, as the service runs it),
/// written with the same public GraphBLAS ops. With a probe, every op is a
/// span and the sum of their durations is returned through `ops_ms`; with
/// `keep`, the operands of the last push step before the first switch to
/// pull, and of that first pull step, are kept (when the first pull step
/// is the largest seen so far).
gb::Vector<std::int64_t> bfs_replica(const Graph& g, gb::Index src,
                                     Probe* probe, double* ops_ms,
                                     Operands* keep) {
  const auto& a = g.adj();
  const gb::Index n = a.nrows();
  g.ensure_transpose();
  gb::Vector<std::int64_t> level(n), parent(n);
  gb::Vector<std::uint64_t> frontier(n);
  frontier.set_element(src, src);
  gb::Descriptor expand = gb::desc_rsc;
  const double threshold = gb::desc_default.push_pull_threshold;
  gb::MxvMethod dir = gb::MxvMethod::push;
  double prev_density = 0.0, total = 0.0;
  bool pulled = false;
  auto op = [&](const char* name, auto&& f) {
    if (probe != nullptr) total += probe->span(name, f);
    else f();
  };
  for (std::int64_t depth = 0; frontier.nvals() > 0; ++depth) {
    op("op.bfs.assign", [&] {
      gb::assign_scalar(level, frontier, gb::no_accum, depth,
                        gb::IndexSel::all(n), gb::desc_s);
    });
    op("op.bfs.apply", [&] {
      gb::apply(parent, frontier, gb::no_accum, gb::Identity{}, frontier,
                gb::desc_s);
    });
    gb::Vector<std::uint64_t> carrier(n);
    op("op.bfs.apply_indexop", [&] {
      gb::apply_indexop(carrier, gb::no_mask, gb::no_accum, gb::RowIndex{},
                        frontier, std::int64_t{0});
    });
    const double density = frontier.density();
    const gb::MxvMethod step =
        choose_direction(density, prev_density, threshold, dir);
    expand.mxv = step;
    if (keep != nullptr && !pulled) {
      if (step == gb::MxvMethod::push &&
          carrier.nvals() > keep->push_carrier.nvals()) {
        keep->push_carrier = carrier;
        keep->push_mask = level;
      }
      if (step == gb::MxvMethod::pull) {
        pulled = true;
        if (keep->pull_mask.nvals() == 0 ||
            level.nvals() < keep->pull_mask.nvals()) {
          keep->pull_carrier = carrier;
          keep->pull_mask = level;
        }
      }
    }
    gb::Vector<std::uint64_t> next(n);
    op("op.bfs.vxm", [&] {
      gb::vxm(next, level, gb::no_accum, gb::min_first<std::uint64_t>(),
              carrier, a, expand);
    });
    frontier = std::move(next);
    dir = step;
    prev_density = density;
  }
  if (ops_ms != nullptr) *ops_ms = total;
  return level;
}

/// One PageRank iteration through the fused entry points; with desc_nofuse
/// every call takes its unfused composition. Returns the L1 residual.
double pagerank_iteration(const gb::Matrix<double>& a,
                          const gb::Vector<double>& rank,
                          const gb::Vector<double>& outdeg,
                          gb::Vector<double>& next, const gb::Descriptor& desc,
                          Probe* probe, double* ops_ms) {
  const gb::Index n = rank.size();
  const double teleport = (1.0 - kDamping) / static_cast<double>(n);
  double dmass = 0, delta = 0, total = 0;
  auto op = [&](const char* name, auto&& f) {
    if (probe != nullptr) total += probe->span(name, f);
    else f();
  };
  gb::Descriptor d_rsc = gb::desc_rsc;
  d_rsc.no_fusion = desc.no_fusion;
  op("op.pagerank.dangling", [&] {
    dmass = gb::fused_apply_reduce(gb::plus_monoid<double>(), gb::Identity{},
                                   rank, outdeg, d_rsc);
  });
  gb::Vector<double> w(n);
  op("op.pagerank.scale", [&] {
    gb::fused_ewise_mult_apply(w, gb::Div{},
                               gb::BindSecond<gb::Times, double>{{}, kDamping},
                               rank, outdeg, desc);
  });
  next = gb::Vector<double>(n);
  op("op.pagerank.vxm", [&] {
    delta = gb::vxm_fill_accum_residual(
        next, gb::Plus{}, gb::plus_first<double>(), w, a,
        teleport + kDamping * dmass / static_cast<double>(n),
        gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, rank, desc);
  });
  if (ops_ms != nullptr) *ops_ms += total;
  return delta;
}

/// The PageRank driver's loop with the same ops; returns the final rank.
gb::Vector<double> pagerank_replica(const Graph& g, Probe* probe,
                                    double* ops_ms, Operands* keep) {
  const gb::Index n = g.nrows();
  const gb::Vector<double>& outdeg = g.out_degree_fp64();
  gb::Vector<double> rank =
      gb::Vector<double>::full(n, 1.0 / static_cast<double>(n));
  if (ops_ms != nullptr) *ops_ms = 0;
  for (int it = 0; it < kMaxIters; ++it) {
    if (keep != nullptr && it == 3) keep->pr_rank = rank;
    gb::Vector<double> next;
    const double delta = pagerank_iteration(g.adj(), rank, outdeg, next,
                                            gb::desc_default, probe, ops_ms);
    rank = std::move(next);
    if (delta < kTol) break;
  }
  return rank;
}

Operands make_operands(const Graph& g, const std::vector<gb::Index>& sources) {
  // The push operand is the largest pre-switch frontier over the probe
  // sources; the pull operand the first pull step that leaves the most
  // vertices unvisited (the most pull work).
  Operands o;
  for (gb::Index s : sources) (void)bfs_replica(g, s, nullptr, nullptr, &o);
  if (o.pull_carrier.size() == 0) {  // no source reached a dense frontier
    o.pull_carrier = o.push_carrier;
    o.pull_mask = o.push_mask;
  }
  (void)pagerank_replica(g, nullptr, nullptr, &o);
  const gb::Index n = g.nrows();
  o.dist = gb::Vector<double>(n);
  o.dist.set_element(sources[0], 0.0);
  o.dist3 = gb::Matrix<double>(3, n);
  std::vector<gb::Index> rows{0, 1, 2};
  std::vector<gb::Index> cols(sources.begin(), sources.begin() + 3);
  std::vector<double> zeros(3, 0.0);
  o.dist3.build(rows, cols, zeros, gb::Min{});
  for (int round = 0; round < 2; ++round) {
    gb::Vector<double> next = o.dist;
    (void)gb::vxm_accum_changed(next, gb::Min{}, gb::min_plus<double>(),
                                o.dist, g.adj());
    o.dist = std::move(next);
    gb::Matrix<double> next3 = o.dist3;
    gb::mxm(next3, gb::no_mask, gb::Min{}, gb::min_plus<double>(), o.dist3,
            g.adj());
    o.dist3 = std::move(next3);
  }
  return o;
}

/// The op probes, by name: each runs one call on the mid-run operands.
struct OpProbe {
  const char* name;
  double flops;
  double bytes;
  std::function<void()> call;
};

std::vector<OpProbe> op_probes(const Graph& g, const Operands& o,
                               const Degrees& d) {
  const auto& a = g.adj();
  const double n = static_cast<double>(g.nrows());
  const double nnz = static_cast<double>(a.nvals());
  const gb::Vector<double>& outdeg = g.out_degree_fp64();
  std::vector<OpProbe> ops;

  auto bfs_step = [&a, &o](gb::MxvMethod m) {
    return [&a, &o, m] {
      gb::Descriptor dsc = gb::desc_rsc;
      dsc.mxv = m;
      const bool push = m == gb::MxvMethod::push;
      gb::Vector<std::uint64_t> next(a.nrows());
      gb::vxm(next, push ? o.push_mask : o.pull_mask, gb::no_accum,
              gb::min_first<std::uint64_t>(),
              push ? o.push_carrier : o.pull_carrier, a, dsc);
    };
  };
  // Pull visits every unvisited vertex's in-edges.
  double pull_flops = 0;
  {
    std::vector<gb::Index> idx;
    std::vector<std::int64_t> lv;
    o.pull_mask.extract_tuples(idx, lv);
    std::vector<std::uint8_t> seen(g.nrows(), 0);
    for (gb::Index i : idx) seen[i] = 1;
    for (gb::Index v = 0; v < g.nrows(); ++v)
      if (!seen[v]) pull_flops += d.in[v];
  }
  const double push_flops = out_work(o.push_carrier, d);
  ops.push_back({"vxm_push", push_flops,
                 16 * push_flops + 16.0 * static_cast<double>(o.push_carrier.nvals()),
                 bfs_step(gb::MxvMethod::push)});
  ops.push_back({"mxv_pull", pull_flops, 16 * pull_flops + 9 * n,
                 bfs_step(gb::MxvMethod::pull)});

  // PageRank: one pass over A's pattern plus five n-vectors touched once
  // fused; the unfused composition materialises about eight more.
  const double pr_flops = nnz + 4 * n;
  const double pr_bytes = 8 * nnz + 8 * (n + 1) + 6 * 8 * n;
  ops.push_back({"pagerank_iter", pr_flops, pr_bytes, [&a, &o, &outdeg] {
                   gb::Vector<double> next;
                   (void)pagerank_iteration(a, o.pr_rank, outdeg, next,
                                            gb::desc_default, nullptr, nullptr);
                 }});
  ops.push_back({"pagerank_iter_nofuse", pr_flops, pr_bytes + 8 * 8 * n,
                 [&a, &o, &outdeg] {
                   gb::Vector<double> next;
                   (void)pagerank_iteration(a, o.pr_rank, outdeg, next,
                                            gb::desc_nofuse, nullptr, nullptr);
                 }});

  const double mv_flops = out_work(o.dist, d);
  ops.push_back({"minplus_vxm", mv_flops,
                 16 * mv_flops + 48.0 * static_cast<double>(o.dist.nvals()),
                 [&a, &o] {
                   gb::Vector<double> next = o.dist;
                   (void)gb::vxm_accum_changed(next, gb::Min{},
                                               gb::min_plus<double>(), o.dist,
                                               a);
                 }});
  double mm_flops = 0;
  {
    std::vector<gb::Index> r, c;
    std::vector<double> v;
    o.dist3.extract_tuples(r, c, v);
    for (gb::Index j : c) mm_flops += d.out[j];
  }
  ops.push_back({"minplus_mxm_k3", mm_flops,
                 16 * mm_flops + 48.0 * static_cast<double>(o.dist3.nvals()),
                 [&a, &o] {
                   gb::Matrix<double> next = o.dist3;
                   gb::mxm(next, gb::no_mask, gb::Min{},
                           gb::min_plus<double>(), o.dist3, a);
                 }});
  return ops;
}

}  // namespace

void measure_layers(const Inputs& in, const Graph& g, std::uint64_t seed,
                    Tracer& tracer, Sheet& out) {
  Probe probe(tracer);
  const int full = omp_get_max_threads();
  const std::vector<GrB_Index> srcs =
      draw_sources(in.eligible, kProbeSources, derive_seed(seed, 40));
  const Snapshot snap = g.snapshot();  // frozen, as a published version is
  const Degrees deg = degrees(*snap);

  // --- the same request through successively lower entry points ----------
  LAGraph_Service csvc = nullptr;
  require(LAGraph_Service_new(&csvc, 1, 0, 0, 0, 0, 0), "LAGraph_Service_new");
  GrB_Matrix ca = build_c_matrix(in.n, in.base);
  require(LAGraph_Service_publish(csvc, "g", ca), "publish");
  lagraph::GraphService::Options gopts;
  gopts.service.workers = 1;
  gopts.service.queue_limit = 0;
  lagraph::GraphService gsvc(gopts);
  gsvc.publish("g", Graph(snap->adj().dup(), lagraph::Kind::directed));
  GrB_Vector cv = nullptr;
  require(GrB_Vector_new(&cv, in.n), "GrB_Vector_new");
  LAGraph_Runner crun = nullptr;
  require(LAGraph_Runner_new(&crun), "LAGraph_Runner_new");

  auto capi_request = [&](const char* algo, GrB_Index src) {
    std::uint64_t id = 0;
    require(LAGraph_Service_submit(csvc, algo, "g", src, &id), "submit");
    require(LAGraph_Service_wait(cv, csvc, id), "wait");
    require(LAGraph_Service_release(csvc, id), "release");
  };
  auto service_request = [&](const char* algo, GrB_Index src) {
    const std::uint64_t id = gsvc.submit_algorithm(algo, "g", src);
    (void)gsvc.wait(id);
    gsvc.release(id);
  };
  const lagraph::Checkpoint* none = nullptr;

  struct Levels {
    std::vector<double> untraced, capi, service, runner, driver, ops;
  };
  Levels bfs, pr;
  lagraph::RunnerReport runner_report;
  std::vector<double> bfs_depths, bfs_pulls;
  int pr_iters = 0;
  bool replicas_match = true;
  for (int rep = 0; rep < 3 * kProbeSources; ++rep) {
    const GrB_Index s = srcs[rep % kProbeSources];
    bfs.untraced.push_back(time_ms([&] { capi_request("bfs", s); }));
    bfs.capi.push_back(probe.span("layer.bfs.capi", [&] { capi_request("bfs", s); }));
    bfs.service.push_back(probe.span("layer.bfs.service", [&] { service_request("bfs", s); }));
    bfs.runner.push_back(probe.span("layer.bfs.runner", [&] {
      lagraph::Runner r;
      (void)r.run([&](const lagraph::Checkpoint* cp) {
        return lagraph::bfs(*snap, s, lagraph::BfsVariant::direction_optimizing, cp);
      });
    }));
    lagraph::BfsResult res;
    bfs.driver.push_back(probe.span("layer.bfs.driver", [&] {
      res = lagraph::bfs(*snap, s, lagraph::BfsVariant::direction_optimizing, none);
    }));
    double ops = 0;
    const auto level = bfs_replica(*snap, s, &probe, &ops, nullptr);
    bfs.ops.push_back(ops);
    bfs_depths.push_back(static_cast<double>(res.depth));
    bfs_pulls.push_back(static_cast<double>(std::count(
        res.directions.begin(), res.directions.end(), gb::MxvMethod::pull)));
    std::vector<gb::Index> i1, i2;
    std::vector<std::int64_t> v1, v2;
    level.extract_tuples(i1, v1);
    res.level.extract_tuples(i2, v2);
    replicas_match = replicas_match && i1 == i2 && v1 == v2;
  }
  for (int rep = 0; rep < kReps; ++rep) {
    pr.untraced.push_back(time_ms([&] { capi_request("pagerank", 0); }));
    pr.capi.push_back(probe.span("layer.pagerank.capi", [&] { capi_request("pagerank", 0); }));
    pr.service.push_back(probe.span("layer.pagerank.service", [&] { service_request("pagerank", 0); }));
    pr.runner.push_back(probe.span("layer.pagerank.runner", [&] {
      lagraph::Runner r;
      (void)r.run([&](const lagraph::Checkpoint* cp) {
        return lagraph::pagerank(*snap, kDamping, kTol, kMaxIters, cp);
      });
      runner_report = r.report();
    }));
    lagraph::PageRankResult res;
    pr.driver.push_back(probe.span("layer.pagerank.driver", [&] {
      res = lagraph::pagerank(*snap, kDamping, kTol, kMaxIters, none);
    }));
    double ops = 0;
    const auto rank = pagerank_replica(*snap, &probe, &ops, nullptr);
    pr.ops.push_back(ops);
    pr_iters = res.iterations;
    std::vector<gb::Index> i1, i2;
    std::vector<double> v1, v2;
    rank.extract_tuples(i1, v1);
    res.rank.extract_tuples(i2, v2);
    replicas_match = replicas_match && i1 == i2 && v1 == v2;
  }
  for (auto [name, L] : {std::pair<const char*, Levels*>{"bfs", &bfs},
                         std::pair<const char*, Levels*>{"pagerank", &pr}}) {
    const std::string a = name;
    const double top = median(L->capi), svc = median(L->service),
                 run = median(L->runner), drv = median(L->driver),
                 ops = median(L->ops), untraced = median(L->untraced);
    out.set("layers." + a + ".capi_ms", top - svc, "ms");
    out.set("serving.overhead_ms." + a, svc - run, "ms");
    out.set("runner.overhead_ms." + a, run - drv, "ms");
    out.set("layers." + a + ".driver_ms", drv - ops, "ms");
    out.set("layers." + a + ".ops_ms", ops, "ms");
    out.set("layers." + a + ".untraced_ms", untraced, "ms");
    // The five self times sum to the traced C-API median; what remains of
    // the untraced median is the residual (noise plus span cost).
    out.set("layers." + a + ".residual_ms", untraced - top, "ms");
    out.set("algorithms." + a + "_ms", drv, "ms");
  }
  out.set("runner.slices", runner_report.slices, "count");
  out.set("runner.retries", runner_report.retries, "count");
  out.set("runner.degradations", runner_report.degradations, "count");
  out.set("layers.replicas_match", replicas_match ? 1 : 0, "count");

  // --- the C API: Runner per-call copy, submit, wait on a done job, publish
  const double bfs_drv = median(bfs.driver), pr_drv = median(pr.driver);
  std::vector<double> sssp_drv, cc_drv, sssp_c, cc_c, bfs_c, pr_c;
  std::vector<double> sssp_rounds;
  int cc_rounds = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const GrB_Index s = srcs[rep % kProbeSources];
    lagraph::SsspResult sr;
    sssp_drv.push_back(probe.span("layer.sssp.driver", [&] {
      sr = lagraph::sssp_bellman_ford(*snap, s, none);
    }));
    sssp_rounds.push_back(sr.iterations);
    lagraph::CcResult cr;
    cc_drv.push_back(probe.span("layer.cc.driver", [&] {
      cr = lagraph::connected_components_run(*snap, none);
    }));
    cc_rounds = cr.rounds;
    bfs_c.push_back(probe.span("capi.runner.bfs", [&] {
      require(LAGraph_Runner_bfs_level(cv, crun, ca, s), "runner bfs");
    }));
    sssp_c.push_back(probe.span("capi.runner.sssp", [&] {
      require(LAGraph_Runner_sssp_bellman_ford(cv, crun, ca, s, nullptr),
              "runner sssp");
    }));
    pr_c.push_back(probe.span("capi.runner.pagerank", [&] {
      require(LAGraph_Runner_pagerank(cv, crun, ca, kDamping, kTol, kMaxIters,
                                      nullptr),
              "runner pagerank");
    }));
    cc_c.push_back(probe.span("capi.runner.cc", [&] {
      require(LAGraph_Runner_cc(cv, crun, ca, nullptr), "runner cc");
    }));
  }
  out.set("capi.runner_dup_ms.bfs", median(bfs_c) - bfs_drv, "ms");
  out.set("capi.runner_dup_ms.sssp", median(sssp_c) - median(sssp_drv), "ms");
  out.set("capi.runner_dup_ms.pagerank", median(pr_c) - pr_drv, "ms");
  out.set("capi.runner_dup_ms.cc", median(cc_c) - median(cc_drv), "ms");
  out.set("algorithms.sssp_ms", median(sssp_drv), "ms");
  out.set("algorithms.cc_ms", median(cc_drv), "ms");
  out.set("algorithms.pagerank_iters", pr_iters, "count");
  out.set("algorithms.sssp_rounds", median(sssp_rounds), "count");
  out.set("algorithms.bfs_depth", median(bfs_depths), "count");
  out.set("algorithms.bfs_pull_levels", median(bfs_pulls), "count");
  out.set("algorithms.cc_rounds", cc_rounds, "count");

  std::vector<double> submit_us, wait_us, publish_ms;
  for (int rep = 0; rep < 3 * kReps; ++rep) {
    std::uint64_t id = 0;
    submit_us.push_back(1e3 * probe.span("capi.submit", [&] {
      require(LAGraph_Service_submit(csvc, "bfs", "g", srcs[rep % kProbeSources], &id),
              "submit");
    }));
    LAGraph_JobState st = LAGraph_JOB_QUEUED;
    while (st == LAGraph_JOB_QUEUED || st == LAGraph_JOB_RUNNING) {
      require(LAGraph_Service_poll(csvc, id, &st), "poll");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    wait_us.push_back(1e3 * probe.span("capi.wait_copy", [&] {
      require(LAGraph_Service_wait(cv, csvc, id), "wait");
    }));
    require(LAGraph_Service_release(csvc, id), "release");
  }
  for (int rep = 0; rep < kReps; ++rep) {
    publish_ms.push_back(probe.span("capi.publish", [&] {
      require(LAGraph_Service_publish(csvc, "g", ca), "publish");
    }));
    gb::platform::Epoch::drain();
  }
  out.set("capi.submit_us.p50", median(submit_us), "us");
  out.set("capi.wait_copy_us.p50", median(wait_us), "us");
  out.set("capi.publish_ms.p50", median(publish_ms), "ms");

  // --- batched SSSP: three solo runs against one k = 3 run ----------------
  {
    const std::vector<gb::Index> three(srcs.begin(), srcs.begin() + 3);
    std::vector<double> k3, solo3;
    for (int rep = 0; rep < kReps; ++rep) {
      k3.push_back(probe.span("algo.sssp_ms_k3", [&] {
        (void)lagraph::sssp_bellman_ford_ms(*snap, three, none);
      }));
      solo3.push_back(probe.span("algo.sssp_solo3", [&] {
        for (gb::Index s : three) (void)lagraph::sssp_bellman_ford(*snap, s, none);
      }));
    }
    out.set("algorithms.sssp_ms_k3_ms", median(k3), "ms");
    out.set("algorithms.sssp_batch_gain", median(solo3) / median(k3), "ratio");
  }

  // --- GraphBLAS ops on mid-run operands -----------------------------------
  const std::vector<gb::Index> probe_srcs(srcs.begin(), srcs.end());
  const Operands rmat_ops = make_operands(*snap, probe_srcs);
  for (OpProbe& op : op_probes(*snap, rmat_ops, deg)) {
    op.call();  // warm
    const std::string name = std::string("graphblas.") + op.name;
    out.set(name + ".ms", median_of(kReps, [&](int) {
              return probe.span("graphblas.op", op.call);
            }),
            "ms");
    out.set(name + ".flops", op.flops, "count");
    out.set(name + ".bytes", op.bytes, "B");
  }
  {
    const double nnz = static_cast<double>(snap->nvals());
    const double n = static_cast<double>(snap->nrows());
    out.set("graphblas.dup.ms", median_of(kReps, [&](int) {
              return probe.span("graphblas.dup", [&] { (void)snap->adj().dup(); });
            }),
            "ms");
    out.set("graphblas.dup.flops", nnz, "count");
    out.set("graphblas.dup.bytes", 32 * nnz + 16 * (n + 1), "B");
    out.set("graphblas.freeze.ms", median_of(kReps, [&](int) {
              Graph fresh(snap->adj().dup(), lagraph::Kind::directed);
              return probe.span("graphblas.freeze", [&] { fresh.freeze(); });
            }),
            "ms");
    out.set("graphblas.freeze.flops", 3 * nnz, "count");
    out.set("graphblas.freeze.bytes", 96 * nnz, "B");
  }

  // --- 1 thread against all threads, on R-MAT and Erdős–Rényi -------------
  {
    const Graph er = make_graph(
        in.n, erdos_renyi_like(in.n, in.base.size(), derive_seed(seed, 60)));
    const Snapshot er_snap = er.snapshot();
    const Degrees er_deg = degrees(*er_snap);
    const std::vector<gb::Index> er_srcs = [&] {
      std::vector<gb::Index> s;
      for (gb::Index v = 0; s.size() < static_cast<std::size_t>(kProbeSources); ++v)
        if (er_deg.out[v] > 0) s.push_back(v);
      return s;
    }();
    const Operands er_ops = make_operands(*er_snap, er_srcs);
    const std::pair<const char*, std::vector<OpProbe>> graphs[] = {
        {"rmat", op_probes(*snap, rmat_ops, deg)},
        {"er", op_probes(*er_snap, er_ops, er_deg)}};
    for (const auto& [gname, ops] : graphs) {
      for (const OpProbe& op : ops) {
        const std::string o = op.name;
        if (o != "mxv_pull" && o != "pagerank_iter" && o != "minplus_mxm_k3")
          continue;
        std::vector<double> one, all;
        for (int rep = 0; rep < kReps; ++rep) {
          omp_set_num_threads(1);
          one.push_back(probe.span("platform.one_thread", op.call));
          omp_set_num_threads(full);
          all.push_back(probe.span("platform.all_threads", op.call));
        }
        out.set("platform.speedup." + o + "." + gname, median(one) / median(all),
                "ratio");
      }
    }
    omp_set_num_threads(full);
  }

  GrB_Vector_free(&cv);
  LAGraph_Runner_free(&crun);
  LAGraph_Service_free(&csvc);
  GrB_Matrix_free(&ca);
  out.set("platform.meter_peak_bytes",
          static_cast<double>(gb::platform::MemoryMeter::peak_bytes()), "B");
}

}  // namespace perfbench
