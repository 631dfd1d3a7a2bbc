// perfbench: one benchmark for both schedulers.
//
//   perfbench --workload <fork_join|fiber_ops|paper_nbody|multitenant>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <path>]
//
// Prints the host shape, the workload's metrics under their workload-specific
// names, and as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.  Every metric is printed on every workload (0 where a
// layer is idle), with its unit.  Exits nonzero when any output check fails.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/trace/trace.h"

namespace sa::perfbench {
namespace {

#ifdef NDEBUG
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

// The metrics every run prints, in order, with units.  A workload leaves a
// layer it does not exercise at 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},   {"unit_p50_ms", "ms"}, {"op_p50_us", "us"},
    {"tail_ms", "ms"},  {"speedup_x", "x"},    {"rate_per_s", "1/s"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"mem.peak_rss_mb", "MB"},
    {"fibers.spawn_lazy_ns", "ns"},
    {"fibers.join_lazy_ns", "ns"},
    {"fibers.lazy_spawns", "count"},
    {"fibers.lazy_promotions", "count"},
    {"fibers.lazy_inlines", "count"},
    {"fibers.promotion_ratio", "ratio"},
    {"fibers.spawn_ns", "ns"},
    {"fibers.join_ns", "ns"},
    {"fibers.post_ns", "ns"},
    {"fibers.wait_ns", "ns"},
    {"fibers.switches_per_op", "ratio"},
    {"fibers.steals", "count"},
    {"fibers.steal_attempts", "count"},
    {"fibers.steal_hit_ratio", "ratio"},
    {"fibers.local_pops", "count"},
    {"fibers.overflow_pops", "count"},
    {"fibers.parks", "count"},
    {"fibers.wakeups", "count"},
    {"fibers.timeout_rescues", "count"},
    {"fibers.seq_ms", "ms"},
    {"fibers.speedup", "x"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"kern.alloc_decisions", "count"},
    {"kern.decisions_per_event", "ratio"},
    {"kern.dispatches", "count"},
    {"kern.timeslices", "count"},
    {"kern.preempt_interrupts", "count"},
    {"kern.io_blocks", "count"},
    {"core.upcalls", "count"},
    {"core.events_per_upcall", "ratio"},
    {"core.activation_reuse_ratio", "ratio"},
    {"core.cs_recoveries", "count"},
    {"core.upcall_latency_p50_us", "us"},
    {"core.upcall_latency_p99_us", "us"},
    {"ult.forks", "count"},
    {"ult.steals", "count"},
    {"ult.spin_contended_ratio", "ratio"},
    {"ult.mgmt_us_per_task", "us"},
    {"rt.run_s", "s"},
    {"rt.report_s", "s"},
    {"rt.user_frac", "frac"},
    {"rt.mgmt_frac", "frac"},
    {"rt.kernel_frac", "frac"},
    {"rt.spin_frac", "frac"},
    {"rt.idle_frac", "frac"},
    {"apps.physics_s", "s"},
    {"apps.cache_misses", "count"},
    {"traffic.arrivals", "count"},
    {"traffic.completions", "count"},
    {"traffic.unserved", "count"},
    {"traffic.hi_violation_frac", "frac"},
    {"traffic.low_bad_frac", "frac"},
    {"traffic.hi_worst_p99_ms", "ms"},
    {"traffic.generator_setup_s", "s"},
    {"trace.records.processor", "count"},
    {"trace.records.kernel", "count"},
    {"trace.records.alloc", "count"},
    {"trace.records.upcall", "count"},
    {"trace.records.ult", "count"},
    {"trace.records.fibers", "count"},
    {"trace.dropped", "count"},
    {"trace.overhead_frac", "frac"},
};

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest round-trip
  return std::string(buf, res.ptr);
}

std::string HostJson() {
  return std::string("{\"host\": {\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) + ", \"build_type\": \"" +
         kBuildType + "\", \"sa_trace\": " + std::to_string(SA_TRACE_ENABLED) +
         ", \"compiler\": \"" + __VERSION__ + "\"}}";
}

// Renders `m` restricted to (and complete over) `canon`; false if the
// workload set a metric the canonical list does not name or with another unit.
bool MetricsJson(const Metrics& m,
                 const std::vector<std::pair<const char*, const char*>>& canon,
                 std::string* out) {
  for (const auto& [name, value_unit] : m.items()) {
    bool known = false;
    for (const auto& [cname, cunit] : canon) {
      known |= name == cname && value_unit.second == cunit;
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s (%s) is not in the canonical list\n",
                   name.c_str(), value_unit.second.c_str());
      return false;
    }
  }
  *out = "{";
  for (size_t i = 0; i < canon.size(); ++i) {
    double value = 0;
    for (const auto& [name, value_unit] : m.items()) {
      if (name == canon[i].first) {
        value = value_unit.first;
      }
    }
    *out += std::string(i == 0 ? "" : ", ") + "\"" + canon[i].first + "\": {\"value\": " +
            Number(value) + ", \"unit\": \"" + canon[i].second + "\"}";
  }
  *out += "}";
  return true;
}

std::string NamedJson(const Metrics& m) {
  std::string s = "{\"workload_metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : m.items()) {
    s += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
         Number(value_unit.first) + ", \"unit\": \"" + value_unit.second + "\"}";
    first = false;
  }
  return s + "}}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fork_join|fiber_ops|"
               "paper_nbody|multitenant> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--spans <path>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace sa::perfbench

int main(int argc, char** argv) {
  using namespace sa::perfbench;
  // The record guard: timings from an unoptimized build are not comparable,
  // and every output this program makes is a record.
  if (std::strcmp(kBuildType, "release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 kBuildType);
    return 3;
  }
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = opt.seconds > 0 && opt.seconds <= 600;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      return Usage(("unexpected argument: " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0 < s <= 600) and --trace 0|1 are required");
  }
  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "fork_join") {
    run = RunForkJoin;
  } else if (opt.workload == "fiber_ops") {
    run = RunFiberOps;
  } else if (opt.workload == "paper_nbody") {
    run = RunPaperNBody;
  } else if (opt.workload == "multitenant") {
    run = RunMultitenant;
  } else {
    return Usage(("unknown workload: " + opt.workload).c_str());
  }

  const std::string host = HostJson();
  std::printf("%s\n", host.c_str());
  const Outcome out = run(opt);
  for (const std::string& why : out.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  std::string metrics;
  if (!MetricsJson(opt.trace ? out.per_layer : out.end_to_end,
                   opt.trace ? kPerLayer : kEndToEnd, &metrics)) {
    return 4;
  }
  if (opt.trace && !opt.spans_path.empty() && !WriteSpans(opt.spans_path, host)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.spans_path.c_str());
    return 4;
  }
  if (!opt.trace) {
    Metrics named = out.named;
    named.Set("peak_rss_mb", PeakRssMb(), "MB");
    named.Set("failed_frac",
              out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                                : 1.0,
              "frac");
    std::printf("%s\n", NamedJson(named).c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
