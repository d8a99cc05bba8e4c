// lagraph_perfbench — one workload per invocation:
//
//   lagraph_perfbench --workload <direct|serve-mixed|serve-batched-rw>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// Sequence: refuse a tainted environment; generate the inputs from the seed;
// set the system up several times (setup_s is the median); warm up until
// the request latency is steady; drive the timed traffic; time publishes;
// check a seeded sample of results against solo and reference runs; with
// --trace 1, repeat the traffic with spans and poll-observed stages on and
// run the per-layer probes. Human-readable lines go first; the last line of
// standard output is the JSON result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <omp.h>

#include "check.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "traffic.hpp"

using namespace perfbench;

namespace {

/// Process knobs that are read once and silently change the measured
/// program (fusion, storage forms, batching, memory governor).
constexpr const char* kTaintingEnv[] = {
    "LAGRAPH_NO_FUSION", "LAGRAPH_FORCE_FORMAT", "LAGRAPH_BATCH_MAX",
    "LAGRAPH_BATCH_WINDOW_US", "LAGRAPH_MEM_BUDGET"};

// The workload graphs are fixed; the workload seed draws the requests
// (sources, mix order, arrival schedule) and the checked sample.
constexpr std::uint64_t kGraphSeed = 20190520;

constexpr int kSetupReps = 5;
constexpr int kPublishSamples = 100;
constexpr std::size_t kSamplesPerAlgo = 24;
constexpr double kWarmWindowS = 0.5;
constexpr int kWarmMinWindows = 2;
constexpr int kWarmMaxWindows = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;      ///< run the checker's own test and exit
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (k == "--selftest") o.selftest = std::strcmp(v, "0") != 0;
    else return false;
  }
  return argc % 2 == 1 && (o.selftest || !o.workload.empty()) && o.seconds > 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<double> all_latencies(const TrafficResult& t) {
  std::vector<double> all;
  for (const auto& v : t.lat_ms) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Warm up with the workload's own traffic until two consecutive windows
/// agree on mean latency within 10%. Returns the last window's median.
double warm_up(System& sys, std::uint64_t seed, Tracer& off) {
  double prev_mean = 0, last_median = 0;
  for (int w = 0; w < kWarmMaxWindows; ++w) {
    const TrafficResult t = sys.run(kWarmWindowS, derive_seed(seed, 900 + w), off, 0);
    const auto lat = all_latencies(t);
    const double m = mean(lat);
    last_median = median(lat);
    std::printf("warm-up window %d: %zu requests, mean %.3f ms, median %.3f ms, max rss %.1f MiB\n",
                w, lat.size(), m, last_median, peak_rss_mb());
    if (w + 1 >= kWarmMinWindows && prev_mean > 0 &&
        std::abs(m - prev_mean) <= 0.10 * prev_mean)
      break;
    prev_mean = m;
  }
  return last_median;
}

void print_counts(const char* label, const TrafficResult& t) {
  std::printf("%s: attempted %llu completed %llu failed %llu in %.2f s;",
              label, static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.completed),
              static_cast<unsigned long long>(t.failed), t.elapsed_s);
  for (Algo a : kAllAlgos)
    std::printf(" %s n=%zu", algo_name(a), t.lat_ms[static_cast<int>(a)].size());
  std::printf(" publish n=%zu\n", t.publish_ms.size());
  for (Algo a : kAllAlgos) {
    const auto& v = t.lat_ms[static_cast<int>(a)];
    if (v.empty()) continue;
    std::printf("  %s ms: min %.2f p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f max %.2f\n",
                algo_name(a), percentile(v, 0), percentile(v, 0.1),
                percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75),
                percentile(v, 0.9), percentile(v, 1));
  }
}

/// The checker's own test: correct results pass; a result from the wrong
/// graph version, a flipped bit and an extra entry are each counted.
int selftest() {
  const Inputs in = make_inputs(10, kGraphSeed, true);
  const lagraph::Graph base = make_graph(in.n, in.base);
  const lagraph::Graph rewired = make_graph(in.n, in.rewired);
  Oracle oracle({&base, &rewired});
  const GrB_Index src = in.eligible.front();
  int failures = 0;
  auto expect = [&](bool got, bool want, const char* what) {
    std::printf("selftest: %-44s %s\n", what, got == want ? "ok" : "FAILED");
    failures += got == want ? 0 : 1;
  };
  for (Algo a : kAllAlgos) {
    std::printf("selftest: %s\n", algo_name(a));
    const Result right = solo_run(base, a, src);
    const Result other = solo_run(rewired, a, src);
    expect(oracle.verify(Sample{a, src, 1, 1, right}), true,
           "base result, window {1}");
    expect(oracle.verify(Sample{a, src, 1, 1, other}), false,
           "rewired result, window {1}");
    expect(oracle.verify(Sample{a, src, 1, 2, other}), true,
           "rewired result, window {1,2}");
    const CheckCounts c = verify_samples(oracle, {Sample{a, src, 1, 1, right}});
    expect(c.failed == 0 && c.selftest_caught, true,
           "corrupted copy of a correct result");
    Result extra = right;
    extra.idx.push_back(in.n - 1);
    extra.vals.push_back(0.0);
    expect(oracle.verify(Sample{a, src, 1, 1, extra}), false,
           "result with an extra entry");
  }
  std::vector<std::string> why;
  expect(oracle.reference_check(src, src, why), true,
         "solo runs match src/reference");
  for (const auto& w : why) std::printf("selftest: %s\n", w.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: lagraph_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  for (const char* name : kTaintingEnv) {
    const char* v = std::getenv(name);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr,
                   "refusing to run: %s=%s changes the measured program; "
                   "unset it\n",
                   name, v);
      return 2;
    }
  }
  if (opt.selftest) return selftest();
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  try {
    const unsigned hw = std::thread::hardware_concurrency();
    const int omp = omp_get_max_threads();
    const Inputs in = make_inputs(spec->scale, kGraphSeed, spec->republish_ms > 0);
    std::printf(
        "config: workload=%s seed=%llu seconds=%g trace=%d hw_threads=%u "
        "omp_threads=%d workers=%d clients=%d batch_max=%llu "
        "batch_window_us=%g offered_rps=%g republish_ms=%g side_rps=%g "
        "scale=%d n=%llu nnz=%zu eligible_sources=%zu build=%s\n",
        spec->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0, hw, omp, spec->workers, spec->clients,
        static_cast<unsigned long long>(spec->batch_max),
        spec->batch_window_us, spec->offered_rps, spec->republish_ms,
        spec->side_rps, spec->scale, static_cast<unsigned long long>(in.n),
        in.base.size(), in.eligible.size(), PERFBENCH_BUILD_TYPE);

    // Set-up, several times; the last system is the one measured.
    std::vector<double> setup_ms;
    std::unique_ptr<System> sys;
    for (int r = 0; r < kSetupReps; ++r) {
      sys.reset();
      const auto t0 = Clock::now();
      sys = std::make_unique<System>(*spec, in);
      setup_ms.push_back(ms_since(t0));
    }
    std::printf("setup: first %.3f ms, median %.3f ms of %d; max rss %.1f MiB\n",
                setup_ms[0], median(setup_ms), kSetupReps, peak_rss_mb());

    Tracer tracer;
    const double warm_median = warm_up(*sys, opt.seed, tracer);

    const ServiceCounters before = sys->counters();
    TrafficResult timed = sys->run(opt.seconds, opt.seed, tracer,
                                   kSamplesPerAlgo);
    const ServiceCounters after = sys->counters();
    print_counts("timed", timed);
    std::printf("timed: max rss %.1f MiB\n", peak_rss_mb());
    if (spec->republish_ms <= 0) timed.publish_ms = sys->quiet_publishes(kPublishSamples);
    const double rss_mb = peak_rss_mb();

    // Output checking: solo runs on the version(s) each request could see.
    lagraph::Graph base = make_graph(in.n, in.base);
    lagraph::Graph rewired;
    std::vector<const lagraph::Graph*> versions{&base};
    if (spec->republish_ms > 0) {
      rewired = make_graph(in.n, in.rewired);
      versions.push_back(&rewired);
    }
    Oracle oracle(versions);
    std::vector<std::string> why;
    const GrB_Index probe_src = in.eligible[Rng(derive_seed(opt.seed, 5)).below(in.eligible.size())];
    const bool reference_ok = oracle.reference_check(probe_src, probe_src, why);
    for (const auto& w : why) std::printf("reference check: %s\n", w.c_str());
    const CheckCounts checks = verify_samples(oracle, timed.samples);
    std::printf(
        "check: %llu samples, %llu wrong, %llu discriminate versions, "
        "corrupted sample %s, reference %s\n",
        static_cast<unsigned long long>(checks.checked),
        static_cast<unsigned long long>(checks.failed),
        static_cast<unsigned long long>(checks.discriminating),
        checks.selftest_caught ? "caught" : "NOT caught",
        reference_ok ? "ok" : "FAILED");

    const std::uint64_t failed = timed.failed + checks.failed;
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(timed.attempted, 1));
    bool correct = reference_ok && checks.failed == 0 && checks.selftest_caught &&
                   timed.attempted > 0;

    Sheet e2e;
    e2e.set("setup_s", median(setup_ms) / 1e3, "s");
    e2e.set("throughput_rps",
            static_cast<double>(timed.completed - checks.failed) / timed.elapsed_s,
            "req/s");
    for (Algo a : kAllAlgos) {
      const auto& lat = timed.lat_ms[static_cast<int>(a)];
      e2e.set(std::string(algo_name(a)) + "_p50_ms", percentile(lat, 0.5), "ms");
      e2e.set(std::string(algo_name(a)) + "_p90_ms", percentile(lat, 0.9), "ms");
    }
    e2e.set("publish_p50_ms", percentile(timed.publish_ms, 0.5), "ms");
    e2e.set("publish_p90_ms", percentile(timed.publish_ms, 0.9), "ms");
    std::printf("end-to-end: failed_frac %.6f (%llu of %llu)\n", failed_frac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(timed.attempted));
    for (const auto& [name, vu] : e2e.all())
      std::printf("end-to-end: %s %.6g %s\n", name.c_str(), vu.first,
                  vu.second.c_str());

    Sheet out = e2e;
    if (opt.trace) {
      Sheet layer;
      tracer.enable(true);
      TrafficResult tt = sys->run(opt.seconds, derive_seed(opt.seed, 7),
                                  tracer, kSamplesPerAlgo);
      tracer.enable(false);
      print_counts("traced", tt);
      const CheckCounts tchecks = verify_samples(oracle, tt.samples);
      correct = correct && tchecks.failed == 0;

      // Serving stages, from poll observations of the traced traffic.
      layer.set("serving.queue_wait_ms.p50", percentile(tt.queue_wait_ms, 0.5), "ms");
      layer.set("serving.queue_wait_ms.p90", percentile(tt.queue_wait_ms, 0.9), "ms");
      layer.set("serving.run_ms.p50", percentile(tt.run_ms, 0.5), "ms");
      layer.set("serving.queue_depth.mean", mean(tt.queue_depth), "count");
      const double batches = static_cast<double>(after.batches - before.batches);
      const double batched = static_cast<double>(after.batched_requests - before.batched_requests);
      layer.set("serving.mean_batch", batches > 0 ? batched / batches : 1.0, "count");
      // Kernel runs the batching stage saved, per request it admitted: a
      // batch of k members saves k - 1 runs.
      layer.set("serving.useful_batch_frac",
                batched > 0 ? (batched - batches) / batched : 0.0, "ratio");
      layer.set("serving.shed", static_cast<double>(after.shed - before.shed), "count");
      layer.set("serving.failed", static_cast<double>(after.failed - before.failed), "count");
      layer.set("serving.cancelled", static_cast<double>(after.cancelled - before.cancelled), "count");
      layer.set("serving.watchdog_cancels",
                static_cast<double>(after.watchdog_cancels - before.watchdog_cancels), "count");

      layer.set("load.generator_late_ms.p90", percentile(timed.generator_late_ms, 0.9), "ms");
      layer.set("load.writer_late_ms.p90", percentile(timed.writer_late_ms, 0.9), "ms");
      layer.set("load.backlog_end", static_cast<double>(timed.backlog_end), "count");
      layer.set("load.warmup_last_p50_ms", warm_median, "ms");

      layer.set("check.failed_frac", failed_frac, "ratio");
      layer.set("check.samples", static_cast<double>(checks.checked + tchecks.checked), "count");
      layer.set("check.discriminating", static_cast<double>(checks.discriminating + tchecks.discriminating), "count");

      // Tracing overhead: traced against untraced traffic in this process.
      const double untraced_p50 = median(all_latencies(timed));
      const double traced_p50 = median(all_latencies(tt));
      layer.set("trace.overhead_pct",
                untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0.0,
                "%");
      layer.set("trace.throughput_rps",
                static_cast<double>(tt.completed) / tt.elapsed_s, "req/s");
      layer.set("trace.spans", static_cast<double>(tracer.size()), "count");

      measure_layers(in, base, opt.seed, tracer, layer);
      layer.set("platform.peak_rss_mb", rss_mb, "MiB");
      layer.set("platform.hw_threads", hw, "count");
      layer.set("platform.omp_threads", omp, "count");
      layer.set("platform.oversubscription",
                static_cast<double>(std::max(spec->workers, 1)) * omp /
                    static_cast<double>(hw == 0 ? 1 : hw),
                "ratio");
      out = layer;
      for (const auto& [name, vu] : layer.all())
        std::printf("per-layer: %s %.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(timed.attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : out.all()) {
      json += first ? "" : ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
              ", \"unit\": \"" + vu.second + "\"}";
    }
    json += "}}";
    std::fflush(stdout);
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lagraph_perfbench: %s\n", e.what());
    return 1;
  }
}
