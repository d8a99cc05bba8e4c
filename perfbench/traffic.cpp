#include "traffic.hpp"

#include <condition_variable>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "platform/epoch.hpp"

namespace perfbench {

namespace {

// Open-loop rate of serve-batched-rw, fixed once: the highest rate tried on
// a 4-core machine whose latencies repeat across seeds (see README.md,
// "Offered rate").
constexpr double kOfferedRps = 60.0;

const WorkloadSpec kWorkloads[] = {
    {Kind::direct, "direct", 15, 1, 0, 1, 0.0, 0.0, 0.0, 0.0, {1, 1, 1, 1}},
    {Kind::serve_mixed, "serve-mixed", 14, 4, 4, 1, 0.0, 0.0, 0.0, 0.0,
     {2, 2, 1, 1}},
    {Kind::serve_batched_rw, "serve-batched-rw", 14, 0, 4, 8, 2000.0,
     kOfferedRps, 100.0, 20.0, {0, 3, 1, 0}},
};

constexpr const char* kGraph = "g";

/// Untimed publishes before a quiet-publish series, so the series starts
/// from the steady state the serving workloads run in.
constexpr int kPublishWarmup = 5;

const char* call_span(Algo a) {
  switch (a) {
    case Algo::bfs: return "capi.runner.bfs";
    case Algo::sssp: return "capi.runner.sssp";
    case Algo::pagerank: return "capi.runner.pagerank";
    case Algo::cc: return "capi.runner.cc";
  }
  return "capi.runner";
}

void require(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS)
    throw std::runtime_error(std::string(what) + " failed with GrB_Info " +
                             std::to_string(static_cast<int>(info)));
}

GrB_Info direct_call(LAGraph_Runner r, GrB_Matrix a, Algo algo, GrB_Index src,
                     GrB_Vector out) {
  switch (algo) {
    case Algo::bfs: return LAGraph_Runner_bfs_level(out, r, a, src);
    case Algo::sssp:
      return LAGraph_Runner_sssp_bellman_ford(out, r, a, src, nullptr);
    case Algo::pagerank:
      return LAGraph_Runner_pagerank(out, r, a, 0.85, 1e-9, 100, nullptr);
    case Algo::cc: return LAGraph_Runner_cc(out, r, a, nullptr);
  }
  return GrB_PANIC;
}

/// Requests in a fixed proportion: each cycle holds mix[a] copies of every
/// algorithm, shuffled with the caller's stream.
class MixCycle {
 public:
  MixCycle(const int mix[kAlgos], Rng& rng) : rng_(rng) {
    for (Algo a : kAllAlgos)
      for (int k = 0; k < mix[static_cast<int>(a)]; ++k) cycle_.push_back(a);
  }
  Algo next() {
    if (pos_ == cycle_.size()) {
      for (std::size_t i = cycle_.size(); i > 1; --i)
        std::swap(cycle_[i - 1], cycle_[rng_.below(i)]);
      pos_ = 0;
    }
    return cycle_[pos_++];
  }

 private:
  Rng& rng_;
  std::vector<Algo> cycle_;
  std::size_t pos_ = 0;
};

/// A submitted request on its way through the service.
struct Pending {
  std::uint64_t id = 0;
  Algo algo = Algo::bfs;
  GrB_Index src = 0;
  std::uint64_t v_lo = 0, v_hi = 0;
  Clock::time_point due, submitted;
  bool seen_running = false;
  Clock::time_point running_at;
};

GrB_Info submit(LAGraph_Service s, Pending& p, const Tracer& tr,
                Tracer::Buffer& buf, std::vector<double>* depth) {
  if (depth != nullptr) {
    std::uint64_t q = 0;
    LAGraph_Service_stats(s, nullptr, nullptr, nullptr, nullptr, nullptr,
                          nullptr, &q, nullptr);
    depth->push_back(static_cast<double>(q));
  }
  LAGraph_Service_version(s, kGraph, &p.v_lo);
  const GrB_Info info = traced(tr, buf, "capi.submit", p.id, [&] {
    return LAGraph_Service_submit(s, algo_name(p.algo), kGraph, p.src, &p.id);
  });
  LAGraph_Service_version(s, kGraph, &p.v_hi);
  p.submitted = Clock::now();
  return info;
}

/// Everything one traffic thread gathers; merged into the result at the end.
struct Local {
  explicit Local(std::size_t cap, std::uint64_t seed) : keep(cap, seed) {}
  TrafficResult r;
  Reservoir keep;
  Tracer::Buffer buf;

  void sample(Algo a, GrB_Index src, std::uint64_t lo, std::uint64_t hi,
              GrB_Vector v) {
    const std::size_t slot = keep.offer(a);
    if (slot != Reservoir::kSkip)
      keep.put(slot, Sample{a, takes_source(a) ? src : 0, lo, hi,
                            read_vector(v)});
  }
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void merge_into(TrafficResult& out, Local& l, Tracer& tr) {
  out.attempted += l.r.attempted;
  out.completed += l.r.completed;
  out.failed += l.r.failed;
  for (int a = 0; a < kAlgos; ++a) append(out.lat_ms[a], l.r.lat_ms[a]);
  append(out.publish_ms, l.r.publish_ms);
  append(out.generator_late_ms, l.r.generator_late_ms);
  append(out.writer_late_ms, l.r.writer_late_ms);
  append(out.queue_wait_ms, l.r.queue_wait_ms);
  append(out.run_ms, l.r.run_ms);
  append(out.queue_depth, l.r.queue_depth);
  for (Sample& s : l.keep.take()) out.samples.push_back(std::move(s));
  tr.merge(l.buf);
}

class VectorHandle {
 public:
  explicit VectorHandle(GrB_Index n) { require(GrB_Vector_new(&v_, n), "GrB_Vector_new"); }
  ~VectorHandle() { GrB_Vector_free(&v_); }
  VectorHandle(const VectorHandle&) = delete;
  VectorHandle& operator=(const VectorHandle&) = delete;
  [[nodiscard]] GrB_Vector get() const { return v_; }

 private:
  GrB_Vector v_ = nullptr;
};

/// One closed-loop caller: submit, wait, release, back to back. With
/// `interval_s` > 0 the caller starts request k no earlier than k *
/// interval_s after `t0`. In a traced run the caller polls instead of
/// blocking, to see when the request left the queue.
void closed_loop(LAGraph_Service s, const Inputs& in, const int mix[kAlgos],
                 std::uint64_t seed, Clock::time_point t0,
                 Clock::time_point end, double interval_s, const Tracer& tr,
                 Local& l) {
  Rng rng(seed);
  MixCycle cycle(mix, rng);
  VectorHandle v(in.n);
  for (std::uint64_t k = 0;; ++k) {
    if (interval_s > 0) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(k * interval_s));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    }
    if (Clock::now() >= end) break;
    Pending p;
    p.algo = cycle.next();
    p.src = takes_source(p.algo) ? in.eligible[rng.below(in.eligible.size())]
                                 : 0;
    ++l.r.attempted;
    const auto start = Clock::now();
    if (submit(s, p, tr, l.buf, tr.on() ? &l.r.queue_depth : nullptr) !=
        GrB_SUCCESS) {
      ++l.r.failed;
      continue;
    }
    if (tr.on()) {
      LAGraph_JobState st = LAGraph_JOB_QUEUED;
      for (;;) {
        LAGraph_Service_poll(s, p.id, &st);
        if (st == LAGraph_JOB_RUNNING && !p.seen_running) {
          p.seen_running = true;
          p.running_at = Clock::now();
        }
        if (st != LAGraph_JOB_QUEUED && st != LAGraph_JOB_RUNNING) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const auto done = Clock::now();
      if (p.seen_running) {
        l.r.queue_wait_ms.push_back(ms_between(p.submitted, p.running_at));
        l.r.run_ms.push_back(ms_between(p.running_at, done));
      }
    }
    const GrB_Info info = traced(tr, l.buf, "capi.wait", p.id, [&] {
      return LAGraph_Service_wait(v.get(), s, p.id);
    });
    const double ms = ms_since(start);
    traced(tr, l.buf, "capi.release", p.id,
           [&] { return LAGraph_Service_release(s, p.id); });
    if (info != GrB_SUCCESS) {
      ++l.r.failed;
      continue;
    }
    ++l.r.completed;
    l.r.lat_ms[static_cast<int>(p.algo)].push_back(ms);
    l.sample(p.algo, p.src, p.v_lo, p.v_hi, v.get());
  }
}

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

System::System(const WorkloadSpec& spec, const Inputs& in)
    : spec_(spec), in_(in) {
  try {
    a_ = build_c_matrix(in.n, in.base);
    const GrB_Index first_src = in.eligible.front();
    if (spec.kind == Kind::direct) {
      require(LAGraph_Runner_new(&runner_), "LAGraph_Runner_new");
      VectorHandle v(in.n);
      for (Algo a : kAllAlgos)
        require(direct_call(runner_, a_, a, first_src, v.get()),
                "first direct call");
      return;
    }
    if (spec.republish_ms > 0) rewired_ = build_c_matrix(in.n, in.rewired);
    if (spec.batch_max > 1) {
      require(LAGraph_Service_new_ex(&svc_, spec.workers, 0, 0, 0, 0, 0,
                                     spec.batch_max, spec.batch_window_us),
              "LAGraph_Service_new_ex");
    } else {
      require(LAGraph_Service_new(&svc_, spec.workers, 0, 0, 0, 0, 0),
              "LAGraph_Service_new");
    }
    require(LAGraph_Service_publish(svc_, kGraph, a_), "first publish");
    VectorHandle v(in.n);
    for (Algo a : kAllAlgos) {
      std::uint64_t id = 0;
      require(LAGraph_Service_submit(svc_, algo_name(a), kGraph, first_src,
                                     &id),
              "first submit");
      require(LAGraph_Service_wait(v.get(), svc_, id), "first wait");
      require(LAGraph_Service_release(svc_, id), "first release");
    }
  } catch (...) {
    release();
    throw;
  }
}

System::~System() { release(); }

void System::release() {
  if (svc_ != nullptr) LAGraph_Service_free(&svc_);
  if (runner_ != nullptr) LAGraph_Runner_free(&runner_);
  if (rewired_ != nullptr) GrB_Matrix_free(&rewired_);
  if (a_ != nullptr) GrB_Matrix_free(&a_);
}

GrB_Info System::publish_next() {
  std::uint64_t v = 0;
  LAGraph_Service_version(svc_, kGraph, &v);
  const bool even = (v + 1) % 2 == 0;
  return LAGraph_Service_publish(svc_, kGraph,
                                 even && rewired_ != nullptr ? rewired_ : a_);
}

void System::retire_displaced() {
  // The C API has no retirement hook: a displaced version stays parked in
  // the process-wide epoch limbo until the service is freed. Publishers
  // here drain it after each publish, as a C++ host does through
  // GraphService::drain_retired(), so memory stays bounded.
  gb::platform::Epoch::drain();
}

ServiceCounters System::counters() const {
  ServiceCounters c;
  if (svc_ == nullptr) return c;
  LAGraph_Service_stats(svc_, &c.submitted, &c.shed, &c.completed, &c.failed,
                        &c.cancelled, &c.watchdog_cancels, nullptr, nullptr);
  LAGraph_Service_batch_stats(svc_, &c.batches, &c.batched_requests);
  return c;
}

TrafficResult System::run(double seconds, std::uint64_t seed, Tracer& tracer,
                          std::size_t sample_cap) {
  switch (spec_.kind) {
    case Kind::direct: return run_direct(seconds, seed, tracer, sample_cap);
    case Kind::serve_mixed: return run_closed(seconds, seed, tracer, sample_cap);
    case Kind::serve_batched_rw:
      return run_open(seconds, seed, tracer, sample_cap);
  }
  return {};
}

TrafficResult System::run_direct(double seconds, std::uint64_t seed,
                                 Tracer& tr, std::size_t cap) {
  Local l(cap, derive_seed(seed, 11));
  Rng rng(derive_seed(seed, 10));
  VectorHandle v(in_.n);
  const auto t0 = Clock::now();
  const auto end = after(t0, seconds);
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const Algo a = kAllAlgos[i % kAlgos];
    const GrB_Index src =
        takes_source(a) ? in_.eligible[rng.below(in_.eligible.size())] : 0;
    ++l.r.attempted;
    GrB_Info info = GrB_SUCCESS;
    const double ms = time_ms([&] {
      info = traced(tr, l.buf, call_span(a), i,
                    [&] { return direct_call(runner_, a_, a, src, v.get()); });
    });
    if (info != GrB_SUCCESS) {
      ++l.r.failed;
      continue;
    }
    ++l.r.completed;
    l.r.lat_ms[static_cast<int>(a)].push_back(ms);
    l.sample(a, src, 1, 1, v.get());
  }
  TrafficResult out;
  out.elapsed_s = ms_since(t0) / 1e3;
  merge_into(out, l, tr);
  return out;
}

TrafficResult System::run_closed(double seconds, std::uint64_t seed,
                                 Tracer& tr, std::size_t cap) {
  const int clients = spec_.clients;
  std::vector<Local> locals;
  locals.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    locals.emplace_back(cap, derive_seed(seed, 200 + c));
  const auto t0 = Clock::now();
  const auto end = after(t0, seconds);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        closed_loop(svc_, in_, spec_.mix, derive_seed(seed, 100 + c), t0, end,
                    0.0, tr, locals[static_cast<std::size_t>(c)]);
      });
    }
  }
  TrafficResult out;
  out.elapsed_s = ms_since(t0) / 1e3;
  for (Local& l : locals) merge_into(out, l, tr);
  return out;
}

TrafficResult System::run_open(double seconds, std::uint64_t seed, Tracer& tr,
                               std::size_t cap) {
  // The Poisson schedule of the generator, fixed before the clock starts.
  struct Arrival {
    double at_s;
    Algo algo;
    GrB_Index src;
  };
  std::vector<Arrival> schedule;
  {
    Rng rng(derive_seed(seed, 300));
    MixCycle cycle(spec_.mix, rng);
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.unit()) / spec_.offered_rps;
      if (t >= seconds) break;
      const Algo a = cycle.next();
      schedule.push_back(
          {t, a,
           takes_source(a) ? in_.eligible[rng.below(in_.eligible.size())] : 0});
    }
  }

  Local gen(cap, derive_seed(seed, 301));
  Local col(cap, derive_seed(seed, 302));
  Local writer(cap, derive_seed(seed, 303));
  Local side(cap, derive_seed(seed, 304));

  std::mutex m;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool gen_done = false;

  const auto t0 = Clock::now();
  const auto end = after(t0, seconds);
  const auto drain_limit = after(end, 60.0);
  Clock::time_point last_done = t0;
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {  // generator
      for (const Arrival& arr : schedule) {
        Pending p;
        p.algo = arr.algo;
        p.src = arr.src;
        p.due = after(t0, arr.at_s);
        std::this_thread::sleep_until(p.due);
        gen.r.generator_late_ms.push_back(ms_since(p.due));
        ++gen.r.attempted;
        if (submit(svc_, p, tr, gen.buf, tr.on() ? &gen.r.queue_depth : nullptr) !=
            GrB_SUCCESS) {
          ++gen.r.failed;
          continue;
        }
        std::lock_guard<std::mutex> lk(m);
        handoff.push_back(p);
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lk(m);
      gen_done = true;
      cv.notify_one();
    });
    threads.emplace_back([&] {  // collector
      VectorHandle v(in_.n);
      std::vector<Pending> open;
      bool backlog_taken = false;
      for (;;) {
        bool done_submitting = false;
        {
          std::unique_lock<std::mutex> lk(m);
          if (open.empty() && handoff.empty() && !gen_done)
            cv.wait(lk, [&] { return !handoff.empty() || gen_done; });
          while (!handoff.empty()) {
            open.push_back(handoff.front());
            handoff.pop_front();
          }
          done_submitting = gen_done;
        }
        const auto now = Clock::now();
        if (!backlog_taken && now >= end) {
          col.r.backlog_end = open.size();
          backlog_taken = true;
        }
        if (done_submitting && open.empty()) break;
        if (now >= drain_limit) {
          for (Pending& p : open) {
            LAGraph_Service_cancel(svc_, p.id);
            LAGraph_Service_wait(v.get(), svc_, p.id);
            LAGraph_Service_release(svc_, p.id);
            ++col.r.failed;
          }
          break;
        }
        bool progressed = false;
        for (std::size_t k = 0; k < open.size();) {
          Pending& p = open[k];
          LAGraph_JobState st = LAGraph_JOB_QUEUED;
          LAGraph_Service_poll(svc_, p.id, &st);
          if (st == LAGraph_JOB_RUNNING && !p.seen_running) {
            p.seen_running = true;
            p.running_at = Clock::now();
          }
          if (st == LAGraph_JOB_QUEUED || st == LAGraph_JOB_RUNNING) {
            ++k;
            continue;
          }
          const auto done = Clock::now();
          if (tr.on() && p.seen_running) {
            col.r.queue_wait_ms.push_back(ms_between(p.submitted, p.running_at));
            col.r.run_ms.push_back(ms_between(p.running_at, done));
          }
          const GrB_Info info = traced(tr, col.buf, "capi.wait", p.id, [&] {
            return LAGraph_Service_wait(v.get(), svc_, p.id);
          });
          if (info == GrB_SUCCESS) {
            ++col.r.completed;
            col.r.lat_ms[static_cast<int>(p.algo)].push_back(
                ms_between(p.due, done));
            col.sample(p.algo, p.src, p.v_lo, p.v_hi, v.get());
            last_done = done;
          } else {
            ++col.r.failed;
          }
          traced(tr, col.buf, "capi.release", p.id,
                 [&] { return LAGraph_Service_release(svc_, p.id); });
          open[k] = open.back();
          open.pop_back();
          progressed = true;
        }
        if (!progressed)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    threads.emplace_back([&] {  // writer
      for (int k = 0;; ++k) {
        const auto due = after(t0, k * spec_.republish_ms / 1e3);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        writer.r.writer_late_ms.push_back(ms_since(due));
        const GrB_Info info = traced(tr, writer.buf, "capi.publish", k,
                                     [&] { return publish_next(); });
        if (info != GrB_SUCCESS) {
          ++writer.r.failed;
          continue;
        }
        writer.r.publish_ms.push_back(ms_since(due));
        retire_displaced();
      }
    });
    if (spec_.side_rps > 0) {
      threads.emplace_back([&] {  // paced bfs/cc caller
        const int mix[kAlgos] = {1, 0, 0, 1};
        closed_loop(svc_, in_, mix, derive_seed(seed, 305), t0, end,
                    1.0 / spec_.side_rps, tr, side);
      });
    }
  }
  TrafficResult out;
  out.elapsed_s = std::max(seconds, ms_between(t0, last_done) / 1e3);
  for (Local* l : {&gen, &col, &writer, &side}) merge_into(out, *l, tr);
  return out;
}

std::vector<double> System::quiet_publishes(int count) {
  LAGraph_Service s = svc_;
  LAGraph_Service own = nullptr;
  if (s == nullptr) {
    require(LAGraph_Service_new(&own, 1, 0, 0, 0, 0, 0), "LAGraph_Service_new");
    s = own;
  }
  std::vector<double> ms;
  for (int k = -kPublishWarmup; k < count; ++k) {
    GrB_Info info = GrB_SUCCESS;
    ms.push_back(time_ms(
        [&] { info = s == svc_ ? publish_next() : LAGraph_Service_publish(s, kGraph, a_); }));
    require(info, "LAGraph_Service_publish");
    retire_displaced();
  }
  ms.erase(ms.begin(), ms.begin() + kPublishWarmup);
  if (own != nullptr) LAGraph_Service_free(&own);
  return ms;
}

}  // namespace perfbench
