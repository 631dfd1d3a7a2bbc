// Locality ablation (DESIGN.md §13): {affinity off, affinity on} x
// {flat, 2-socket hierarchical} on a migration-heavy multiprogrammed
// workload.  "Affinity on" means both halves of the locality policy:
// affinity-preserving processor allocation in the kernel and same-socket-
// first stealing in FastThreads.
//
// Emits BENCH_locality.json next to the binary's working directory and
// exits non-zero unless, on the hierarchical machine, turning affinity on
// strictly reduces BOTH cross-socket migrations and wall (virtual) time —
// the gate CI runs with --smoke.
//
// Usage: bench_locality [--smoke] [out.json]

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "bench/bench_common.h"
#include "src/common/table.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

struct Cell {
  const char* name;
  int sockets;
  bool affinity;
  rt::RunReport report;
};

// Three eager address spaces (each wants more than its 2-processor fair
// share) with rotating space-wide I/O phases: when one space dips, the
// other two absorb its processors, and at the moment it wakes the next
// space is dipping — so the pool it draws from holds a mix of its own and
// the dipping space's processors.  The blind LIFO pool rotates ownership
// around the ring, teleporting every space's activations across the socket
// boundary each phase; the affinity-preserving allocator pins each space
// to the processors (and socket) it warmed up.  Penalties model a
// cache-pessimal part (10 us core, 500 us socket) so the saved migrations
// show up in elapsed virtual time, not only in the counters.
rt::RunReport RunCell(int sockets, bool affinity, uint64_t seed, int threads,
                      int iters) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.affinity_allocation = affinity;
  config.topology.sockets = sockets;
  config.topology.core_migration_penalty = sim::Usec(10);
  config.topology.socket_migration_penalty = sim::Usec(500);
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  uc.locality_aware_stealing = affinity;
  ult::UltRuntime app_a(&h.kernel(), "app-a", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime app_b(&h.kernel(), "app-b", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime app_c(&h.kernel(), "app-c", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime* apps[3] = {&app_a, &app_b, &app_c};
  for (ult::UltRuntime* rt : apps) {
    h.AddRuntime(rt);
  }
  h.AddDaemon("daemon", sim::Msec(5), sim::Usec(100));
  // Revocation storms (DESIGN.md §11) are what put several differently-owned
  // processors in the free pool at once: each burst revokes three owned
  // processors and the rebalance regrants them — a fresh placement decision
  // per storm for the policy under test.  Steady-state reallocation alone
  // regrants processors one at a time, where every policy picks the same one.
  inject::FaultPlan plan;
  plan.seed = config.seed;
  plan.storm_period = sim::Msec(1);
  plan.storm_burst = 3;
  h.EnableFaultInjection(plan);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < threads; ++i) {
      apps[s]->Spawn(
          [iters, i, s](rt::ThreadCtx& t) -> sim::Program {
            for (int k = 0; k < iters; ++k) {
              co_await t.Compute(sim::Usec(100 + (i % 4)));
              // Rotating phase: space s sleeps through third s of each
              // 12-iteration period, so one space is always dipping and
              // another always waking into a mixed pool.
              if ((k + 4 * s) % 12 < 4) {
                co_await t.Io(sim::Usec(400));
              }
            }
          },
          "w" + std::to_string(i));
    }
  }
  h.Run();
  return rt::MakeReport(h);
}

void WriteJson(const std::string& path, const Cell (&cells)[4]) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_locality: fopen");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"locality\",\n  \"build_type\": \"%s\",\n  \"cells\": [\n",
               bench::kBuildType);
  for (size_t i = 0; i < 4; ++i) {
    const Cell& c = cells[i];
    const kern::KernelCounters& kc = c.report.counters;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"sockets\": %d, \"affinity\": %s, "
        "\"elapsed_ns\": %lld, \"migrations_core\": %lld, "
        "\"migrations_socket\": %lld, \"migration_penalty_ns\": %lld, "
        "\"ult_steals_local\": %lld, \"ult_steals_remote\": %lld, "
        "\"user_utilization\": %.4f}%s\n",
        c.name, c.sockets, c.affinity ? "true" : "false",
        static_cast<long long>(c.report.elapsed),
        static_cast<long long>(kc.migrations_core),
        static_cast<long long>(kc.migrations_socket),
        static_cast<long long>(kc.migration_penalty_time),
        static_cast<long long>(kc.ult_steals_local),
        static_cast<long long>(kc.ult_steals_remote), c.report.UserUtilization(),
        i + 1 < 4 ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::WarnIfDebugBuild("bench_locality");
  if (sa::bench::RefuseDebugRecord("bench_locality", argc, argv)) {
    return 2;
  }
  bool smoke = false;
  std::string out_path = "BENCH_locality.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int threads = 4;
  const int iters = smoke ? 120 : 240;
  // Trajectories diverge chaotically between the blind and affine cells, so
  // a single seed's elapsed time is dominated by scheduling luck; each cell
  // aggregates several seeded runs and the gates compare the totals.
  const uint64_t seeds[] = {17, 29, 43};

  std::printf("Locality ablation: 3 spaces x %d threads x %d iters, "
              "6 processors, revocation storms every 1 ms, %zu seeds%s\n\n",
              threads, iters, std::size(seeds), smoke ? " (smoke)" : "");

  sa::Cell cells[4] = {
      {"flat/blind", 1, false, {}},
      {"flat/affinity", 1, true, {}},
      {"2-socket/blind", 2, false, {}},
      {"2-socket/affinity", 2, true, {}},
  };
  for (sa::Cell& c : cells) {
    for (uint64_t seed : seeds) {
      const sa::rt::RunReport r =
          sa::RunCell(c.sockets, c.affinity, seed, threads, iters);
      c.report.elapsed += r.elapsed;
      c.report.counters.migrations_core += r.counters.migrations_core;
      c.report.counters.migrations_socket += r.counters.migrations_socket;
      c.report.counters.migration_penalty_time += r.counters.migration_penalty_time;
      c.report.counters.ult_steals_local += r.counters.ult_steals_local;
      c.report.counters.ult_steals_remote += r.counters.ult_steals_remote;
      c.report.user += r.user;
      c.report.mgmt += r.mgmt;
      c.report.kernel += r.kernel;
      c.report.spin += r.spin;
      c.report.idle_spin += r.idle_spin;
      c.report.idle += r.idle;
    }
  }

  sa::common::Table t({"cell", "elapsed", "migr core", "migr socket",
                       "penalty", "steals local", "steals remote"});
  for (const sa::Cell& c : cells) {
    const sa::kern::KernelCounters& kc = c.report.counters;
    t.AddRow({c.name, sa::sim::FormatDuration(c.report.elapsed),
              sa::common::Table::Num(kc.migrations_core),
              sa::common::Table::Num(kc.migrations_socket),
              sa::sim::FormatDuration(kc.migration_penalty_time),
              sa::common::Table::Num(kc.ult_steals_local),
              sa::common::Table::Num(kc.ult_steals_remote)});
  }
  t.Print();

  sa::WriteJson(out_path, cells);

  // Gates.  On the flat machine topology must be invisible: no migration
  // or steal-distance accounting at all.
  bool ok = true;
  for (const sa::Cell& c : cells) {
    if (c.sockets != 1) {
      continue;
    }
    const sa::kern::KernelCounters& kc = c.report.counters;
    if (kc.migrations_core + kc.migrations_socket + kc.migration_penalty_time +
            kc.ult_steals_local + kc.ult_steals_remote !=
        0) {
      std::printf("FAIL: flat cell %s accounted locality events\n", c.name);
      ok = false;
    }
  }
  // On the hierarchical machine, affinity must strictly pay for itself.
  const sa::Cell& blind = cells[2];
  const sa::Cell& affine = cells[3];
  if (affine.report.counters.migrations_socket >=
      blind.report.counters.migrations_socket) {
    std::printf("FAIL: affinity did not reduce cross-socket migrations "
                "(%lld vs %lld)\n",
                static_cast<long long>(affine.report.counters.migrations_socket),
                static_cast<long long>(blind.report.counters.migrations_socket));
    ok = false;
  }
  if (affine.report.elapsed >= blind.report.elapsed) {
    std::printf("FAIL: affinity did not reduce elapsed virtual time (%s vs %s)\n",
                sa::sim::FormatDuration(affine.report.elapsed).c_str(),
                sa::sim::FormatDuration(blind.report.elapsed).c_str());
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS: affinity strictly reduces cross-socket "
                           "migrations and elapsed time on 2 sockets"
                         : "FAIL");
  return ok ? 0 : 1;
}
