// Datacenter-shaped multi-tenant simulation (DESIGN.md §15): hundreds of
// kernel-thread tenant spaces at three priority tiers, driven in open loop
// by src/traffic/ across a {processors} x {tenants} x {arrival pattern}
// grid, with per-tenant SLO accounting from RunReport.
//
// The low tier always offers ~1.5x the machine's capacity, so the grid
// measures exactly the paper's multiprogramming claim at cluster scale: the
// explicit processor allocator must keep high-priority tenants inside their
// latency SLOs while the low tier saturates and sheds load.
//
// Emits BENCH_multitenant.json and exits non-zero unless all three gates
// hold (CI runs --smoke, which still includes the 256x256 gate cells):
//   1. In every >=256-processor x >=256-tenant cell, all high-tier tenants
//      meet their p-quantile latency SLO, while the low tier shows
//      saturation (>=20% of its requests unserved or over its own SLO).
//   2. Equal seeds reproduce a cell's arrival sequence byte-identically.
//   3. An inactive generator leaves a seeded SA-protocol trace
//      byte-identical (zero-perturbation, house convention).
//
// Usage: bench_multitenant [--smoke] [out.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/table.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/traffic/traffic.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

enum class Pattern { kPoisson, kBursty };

const char* PatternName(Pattern p) {
  return p == Pattern::kPoisson ? "poisson" : "bursty";
}

// Three tiers: ~1/16 high-priority latency-sensitive tenants, ~1/4 mid-tier
// with a diurnal ramp, the rest low-tier batch offering ~1.5x capacity.
traffic::TrafficConfig MakeConfig(int processors, int tenants, Pattern pattern,
                                  sim::Duration horizon, uint64_t seed,
                                  bool record_arrivals) {
  traffic::TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = horizon;
  tc.drain = sim::Msec(300);
  tc.record_arrivals = record_arrivals;

  const int hi = std::max(1, tenants / 16);
  const int mid = std::max(1, tenants / 4);
  const int low = std::max(1, tenants - hi - mid);

  for (int i = 0; i < hi; ++i) {
    traffic::TenantSpec t;
    t.name = "hi" + std::to_string(i);
    t.priority = 2;
    t.arrivals.rate = 50.0;
    t.mix = {traffic::RequestClass{"rpc", 1.0, sim::Msec(1),
                                   traffic::RequestClass::Dist::kExponential, 0}};
    t.slo.latency = sim::Msec(20);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  // Mid tier: ~0.3x capacity in aggregate, shaped by a diurnal ramp.
  const double mid_rate = 0.3 * processors / (mid * 0.005);
  for (int i = 0; i < mid; ++i) {
    traffic::TenantSpec t;
    t.name = "mid" + std::to_string(i);
    t.priority = 1;
    t.arrivals.rate = mid_rate;
    t.ramp.period = sim::Msec(500);
    t.ramp.points = {{0, 0.5}, {sim::Msec(250), 1.5}};
    t.mix = {traffic::RequestClass{"job", 1.0, sim::Msec(5),
                                   traffic::RequestClass::Dist::kFixed, 0}};
    t.slo.latency = sim::Msec(100);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  // Low tier: ~1.5x capacity in aggregate — deliberately unserviceable.
  const double low_rate = 1.5 * processors / (low * 0.010);
  for (int i = 0; i < low; ++i) {
    traffic::TenantSpec t;
    t.name = "low" + std::to_string(i);
    t.priority = 0;
    t.arrivals.rate = low_rate;
    if (pattern == Pattern::kBursty) {
      t.arrivals.kind = traffic::ArrivalSpec::Kind::kOnOff;
      t.arrivals.rate = low_rate * 2.5;  // same mean load, bursty shape
      t.arrivals.on_mean = sim::Msec(40);
      t.arrivals.off_mean = sim::Msec(60);
    }
    t.mix = {traffic::RequestClass{"batch", 1.0, sim::Msec(10),
                                   traffic::RequestClass::Dist::kFixed,
                                   i % 4 == 0 ? sim::Msec(1) : 0}};
    t.slo.latency = sim::Msec(200);
    t.slo.quantile = 0.9;
    tc.tenants.push_back(t);
  }
  return tc;
}

struct CellResult {
  int processors = 0;
  int tenants = 0;
  Pattern pattern = Pattern::kPoisson;
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t unserved = 0;
  // High tier.
  int hi_tenants = 0;
  int hi_met = 0;
  int64_t hi_worst_p999 = 0;
  // Low tier saturation evidence.
  int64_t low_arrivals = 0;
  int64_t low_bad = 0;  // unserved + completed-over-SLO (approx: violations)
  double low_bad_fraction = 0.0;
  sim::Time virtual_end = 0;
  double wall_sec = 0.0;
};

CellResult RunCell(int processors, int tenants, Pattern pattern,
                   sim::Duration horizon, uint64_t seed) {
  CellResult out;
  out.processors = processors;
  out.tenants = tenants;
  out.pattern = pattern;

  rt::HarnessConfig config;
  config.processors = processors;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  traffic::TrafficGenerator gen(
      &h, MakeConfig(processors, tenants, pattern, horizon, seed,
                     /*record_arrivals=*/false));
  const auto t0 = std::chrono::steady_clock::now();
  out.virtual_end = h.Run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();

  rt::RunReport report = rt::MakeReport(h);
  if (std::getenv("MT_DEBUG") != nullptr) {
    std::printf("%s\n", report.TenantTable().c_str());
  }
  for (const rt::TenantSloRow& row : report.tenants) {
    out.arrivals += row.arrivals;
    out.completions += row.completions;
    out.unserved += row.unserved;
    if (row.tier == 2) {
      ++out.hi_tenants;
      out.hi_met += row.slo_met ? 1 : 0;
      out.hi_worst_p999 = std::max(out.hi_worst_p999, row.p999);
    } else if (row.tier == 0) {
      out.low_arrivals += row.arrivals;
      // violation_fraction already counts censored (unserved-past-bound)
      // requests, so it is the full badness numerator on its own.
      out.low_bad += static_cast<int64_t>(row.violation_fraction *
                                          static_cast<double>(row.arrivals));
    }
  }
  out.low_bad_fraction =
      out.low_arrivals > 0
          ? static_cast<double>(out.low_bad) / static_cast<double>(out.low_arrivals)
          : 0.0;
  return out;
}

// Gate 2: equal seeds → byte-identical arrival sequences (and identical
// completion totals) on a mid-size cell.
bool DeterminismIdentical(sim::Duration horizon) {
  auto run = [&](uint64_t seed) {
    rt::HarnessConfig config;
    config.processors = 64;
    config.seed = 5;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    auto h = std::make_unique<rt::Harness>(config);
    traffic::TrafficGenerator gen(
        h.get(), MakeConfig(64, 64, Pattern::kBursty, horizon, seed,
                            /*record_arrivals=*/true));
    h->Run();
    return std::make_pair(gen.arrival_log(), gen.total_completions());
  };
  const auto first = run(1234);
  const auto second = run(1234);
  if (first.second != second.second || first.first.size() != second.first.size()) {
    return false;
  }
  for (size_t i = 0; i < first.first.size(); ++i) {
    if (!(first.first[i] == second.first[i])) {
      return false;
    }
  }
  return true;
}

// Gate 3: a seeded SA-protocol workload traced with and without an inactive
// TrafficGenerator attached produces byte-identical traces.
std::vector<trace::Record> SeededSaTrace(bool attach_inactive_generator) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 11;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  std::unique_ptr<traffic::TrafficGenerator> gen;
  if (attach_inactive_generator) {
    gen = std::make_unique<traffic::TrafficGenerator>(&h, traffic::TrafficConfig{});
  }
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  ult::UltRuntime sa1(&h.kernel(), "sa1", ult::BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&sa1);
  h.AddRuntime(&kt);
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
  for (int i = 0; i < 8; ++i) {
    auto body = [i](rt::ThreadCtx& t) -> sim::Program {
      for (int k = 0; k < 12; ++k) {
        co_await t.Compute(sim::Usec(50 + 9 * (i % 4)));
        if ((k + i) % 3 == 0) {
          co_await t.Io(sim::Usec(70));
        }
      }
    };
    sa1.Spawn(body, "a" + std::to_string(i));
    if (i % 2 == 0) {
      kt.Spawn(body, "k" + std::to_string(i));
    }
  }
  h.Run();
  return h.trace()->Snapshot();
}

bool ZeroPerturbationIdentical() {
  const std::vector<trace::Record> without = SeededSaTrace(false);
  const std::vector<trace::Record> with = SeededSaTrace(true);
  if (without.size() != with.size()) {
    return false;
  }
  for (size_t i = 0; i < without.size(); ++i) {
    const trace::Record& a = without[i];
    const trace::Record& b = with[i];
    if (a.ts != b.ts || a.cpu != b.cpu || a.as_id != b.as_id ||
        a.kind != b.kind || a.arg0 != b.arg0 || a.arg1 != b.arg1) {
      return false;
    }
  }
  return true;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<CellResult>& cells, bool determinism,
               bool zero_perturbation, bool ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_multitenant: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"multitenant\",\n  \"build_type\": \"%s\",\n"
               "  \"smoke\": %s,\n  \"cells\": [\n",
               bench::kBuildType, smoke ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        f,
        "    {\"processors\": %d, \"tenants\": %d, \"pattern\": \"%s\", "
        "\"arrivals\": %lld, \"completions\": %lld, \"unserved\": %lld, "
        "\"hi_tenants\": %d, \"hi_met\": %d, \"hi_worst_p999_us\": %.1f, "
        "\"low_bad_fraction\": %.3f, \"virtual_ms\": %.1f, \"wall_sec\": %.2f}%s\n",
        c.processors, c.tenants, PatternName(c.pattern),
        static_cast<long long>(c.arrivals), static_cast<long long>(c.completions),
        static_cast<long long>(c.unserved), c.hi_tenants, c.hi_met,
        sim::ToUsec(c.hi_worst_p999), c.low_bad_fraction,
        sim::ToMsec(c.virtual_end), c.wall_sec,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"determinism_identical\": %s,\n"
               "  \"zero_perturbation_identical\": %s,\n"
               "  \"gates_passed\": %s\n}\n",
               determinism ? "true" : "false",
               zero_perturbation ? "true" : "false", ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_multitenant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  sa::bench::WarnIfDebugBuild("bench_multitenant");
  if (sa::bench::RefuseDebugRecord("bench_multitenant", argc, argv)) {
    return 2;
  }

  const sa::sim::Duration horizon = smoke ? sa::sim::Msec(500) : sa::sim::Sec(1);
  std::printf("Multi-tenant open-loop traffic: low tier offers 1.5x capacity, "
              "horizon %s%s\n\n",
              sa::sim::FormatDuration(horizon).c_str(), smoke ? " (smoke)" : "");

  // Grid.  Smoke keeps only the acceptance cells (256 processors x 256
  // tenants, both arrival patterns); the full grid spans 64..512 processors
  // and 16..1024 tenants.
  std::vector<std::pair<int, int>> grid;
  if (smoke) {
    grid = {{256, 256}};
  } else {
    for (int processors : {64, 256, 512}) {
      for (int tenants : {16, 256, 1024}) {
        grid.push_back({processors, tenants});
      }
    }
  }
  std::vector<sa::CellResult> cells;
  for (const auto& [processors, tenants] : grid) {
    for (const sa::Pattern pattern : {sa::Pattern::kPoisson, sa::Pattern::kBursty}) {
      cells.push_back(sa::RunCell(processors, tenants, pattern, horizon, 21));
      const sa::CellResult& c = cells.back();
      std::printf("%4d procs x %4d tenants %-8s: %lld arrivals, %lld done, "
                  "hi %d/%d met (worst p999 %s), low bad %.0f%% [%.1fs]\n",
                  c.processors, c.tenants, sa::PatternName(c.pattern),
                  static_cast<long long>(c.arrivals),
                  static_cast<long long>(c.completions), c.hi_met, c.hi_tenants,
                  sa::sim::FormatDuration(c.hi_worst_p999).c_str(),
                  100.0 * c.low_bad_fraction, c.wall_sec);
    }
  }

  const bool determinism = sa::DeterminismIdentical(sa::sim::Msec(300));
  const bool zero_perturbation = sa::ZeroPerturbationIdentical();

  sa::common::Table t({"processors", "tenants", "pattern", "hi met", "hi p999",
                       "low bad%", "unserved"});
  for (const sa::CellResult& c : cells) {
    t.AddRow({sa::common::Table::Num(c.processors), sa::common::Table::Num(c.tenants),
              sa::PatternName(c.pattern),
              sa::common::Table::Num(c.hi_met) + "/" + sa::common::Table::Num(c.hi_tenants),
              sa::sim::FormatDuration(c.hi_worst_p999),
              sa::common::Table::Num(100.0 * c.low_bad_fraction, 1),
              sa::common::Table::Num(static_cast<double>(c.unserved))});
  }
  std::printf("\n");
  t.Print();

  // Gates.
  bool ok = true;
  bool saw_gate_cell = false;
  for (const sa::CellResult& c : cells) {
    if (c.processors < 256 || c.tenants < 256) {
      continue;
    }
    saw_gate_cell = true;
    if (c.hi_met != c.hi_tenants) {
      std::printf("FAIL: %d/%d high-tier tenants met their SLO at %d procs x "
                  "%d tenants (%s)\n",
                  c.hi_met, c.hi_tenants, c.processors, c.tenants,
                  sa::PatternName(c.pattern));
      ok = false;
    }
    if (c.low_bad_fraction < 0.2) {
      std::printf("FAIL: low tier only %.0f%% unserved/violating at %d procs x "
                  "%d tenants (%s) — load did not saturate\n",
                  100.0 * c.low_bad_fraction, c.processors, c.tenants,
                  sa::PatternName(c.pattern));
      ok = false;
    }
  }
  if (!saw_gate_cell) {
    std::printf("FAIL: no >=256x256 gate cell in the grid\n");
    ok = false;
  }
  if (!determinism) {
    std::printf("FAIL: equal seeds produced different arrival sequences\n");
    ok = false;
  }
  if (!zero_perturbation) {
    std::printf("FAIL: an inactive generator perturbed a seeded SA trace\n");
    ok = false;
  }
  if (ok) {
    std::printf("\ngates passed: high tier met SLOs in every >=256x256 cell "
                "under saturating low-tier load; arrivals deterministic; "
                "inactive generator zero-perturbation\n");
  }

  sa::WriteJson(out_path, smoke, cells, determinism, zero_perturbation, ok);
  return ok ? 0 : 1;
}
