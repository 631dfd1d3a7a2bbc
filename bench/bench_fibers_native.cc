// The paper's Table 1 on modern hardware (real measurements, not simulation):
// Null Fork and Signal-Wait for user-level fibers (src/fibers), kernel
// threads (std::thread) and processes (fork/waitpid).
//
// The paper's claim — user-level thread operations cost within an order of
// magnitude of a procedure call, roughly an order of magnitude less than
// kernel threads and two to three less than processes — still holds thirty
// years later; only the absolute numbers moved.

#include <benchmark/benchmark.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/fibers/fiber_pool.h"

namespace {

// Reference point: a procedure call (kept opaque to the optimizer).
void __attribute__((noinline)) NullProcedure() { benchmark::ClobberMemory(); }

void BM_ProcedureCall(benchmark::State& state) {
  for (auto _ : state) {
    NullProcedure();
  }
}
BENCHMARK(BM_ProcedureCall);

// ---- Null Fork: create, schedule, execute and complete a null thread ----

void BM_NullFork_Fiber(benchmark::State& state) {
  sa::fibers::FiberPool pool(1);
  for (auto _ : state) {
    auto h = pool.Spawn([] { NullProcedure(); });
    pool.Join(h);
  }
}
BENCHMARK(BM_NullFork_Fiber);

void BM_NullFork_KernelThread(benchmark::State& state) {
  for (auto _ : state) {
    std::thread t([] { NullProcedure(); });
    t.join();
  }
}
BENCHMARK(BM_NullFork_KernelThread);

void BM_NullFork_Process(benchmark::State& state) {
  for (auto _ : state) {
    const pid_t pid = fork();
    if (pid == 0) {
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
  }
}
BENCHMARK(BM_NullFork_Process)->Iterations(200);

// ---- Signal-Wait: signal a waiting thread, then wait on a condition ----

void BM_SignalWait_Fiber(benchmark::State& state) {
  sa::fibers::FiberPool pool(1);
  sa::fibers::FiberSemaphore ping(0), pong(0);
  std::atomic<bool> stop{false};
  auto partner = pool.Spawn([&] {
    for (;;) {
      ping.Wait();
      if (stop.load(std::memory_order_relaxed)) {
        return;
      }
      pong.Post();
    }
  });
  auto driver = pool.Spawn([&] {
    for (auto _ : state) {
      ping.Post();  // signal the waiting fiber...
      pong.Wait();  // ...then wait (one full signal-wait pair each way)
    }
    stop = true;
    ping.Post();
  });
  pool.Join(driver);
  pool.Join(partner);
}
BENCHMARK(BM_SignalWait_Fiber);

void BM_SignalWait_KernelThread(benchmark::State& state) {
  std::mutex mu;
  std::condition_variable cv;
  int token = 0;  // 1 = partner's turn, 2 = driver's turn
  bool stop = false;
  std::thread partner([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return token == 1 || stop; });
      if (stop) {
        return;
      }
      token = 2;
      cv.notify_all();
    }
  });
  for (auto _ : state) {
    {
      std::unique_lock<std::mutex> lock(mu);
      token = 1;
      cv.notify_all();
      cv.wait(lock, [&] { return token == 2; });
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    stop = true;
    cv.notify_all();
  }
  partner.join();
}
BENCHMARK(BM_SignalWait_KernelThread);

// Raw user-level context switch (the primitive everything above builds on).
void BM_ContextSwitchPair_Fiber(benchmark::State& state) {
  sa::fibers::FiberPool pool(1);
  auto driver = pool.Spawn([&] {
    for (auto _ : state) {
      sa::fibers::FiberPool::Yield();  // fiber -> scheduler -> fiber
    }
  });
  pool.Join(driver);
}
BENCHMARK(BM_ContextSwitchPair_Fiber);

// ---- Multi-worker scaling sweep (Section 4.2 structure) --------------------
//
// The paper's FastThreads scales because each processor owns its ready list
// and free list; cross-processor traffic happens only when a local list runs
// dry.  These sweeps measure the three fiber hot paths at 1/2/4/8 workers so
// the per-worker scheduler's effect is measured, not asserted.  All sweeps
// use real time: the work runs on pool workers, not the bench thread.

void ReportSchedCounters(benchmark::State& state,
                         const sa::fibers::FiberPool& pool) {
  const auto s = pool.stats();
  state.counters["local_pops"] =
      benchmark::Counter(static_cast<double>(s.local_pops));
  state.counters["overflow_pops"] =
      benchmark::Counter(static_cast<double>(s.overflow_pops));
  state.counters["steals"] = benchmark::Counter(static_cast<double>(s.steals));
  state.counters["parks"] = benchmark::Counter(static_cast<double>(s.parks));
}

// Spawn-join: a driver fiber forks a batch of null fibers and joins them all
// (fiber-to-fiber join, so the spawn/recycle path stays on the workers).
void BM_MultiSpawnJoin(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  sa::fibers::FiberPool pool(workers);
  constexpr int kBatch = 256;
  for (auto _ : state) {
    auto driver = pool.Spawn([&] {
      std::vector<sa::fibers::FiberHandle> hs;
      hs.reserve(kBatch);
      sa::fibers::FiberPool* p = sa::fibers::FiberPool::Current();
      for (int i = 0; i < kBatch; ++i) {
        hs.push_back(p->Spawn([] { NullProcedure(); }));
      }
      for (auto& h : hs) {
        p->Join(h);
      }
    });
    pool.Join(driver);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  ReportSchedCounters(state, pool);
}
BENCHMARK(BM_MultiSpawnJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Yield ping-pong: two yield-looping fibers per worker; measures the
// scheduler's dispatch loop under full subscription.
void BM_MultiYield(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  sa::fibers::FiberPool pool(workers);
  constexpr int kYields = 512;
  for (auto _ : state) {
    std::vector<sa::fibers::FiberHandle> hs;
    for (int f = 0; f < 2 * workers; ++f) {
      hs.push_back(pool.Spawn([] {
        for (int i = 0; i < kYields; ++i) {
          sa::fibers::FiberPool::Yield();
        }
      }));
    }
    for (auto& h : hs) {
      pool.Join(h);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * workers * kYields);
  ReportSchedCounters(state, pool);
}
BENCHMARK(BM_MultiYield)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Semaphore signal-wait: one ping-pong pair per worker, each pair on its own
// pair of semaphores (blocking sync + cross-fiber wake under load).
void BM_MultiSemSignalWait(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  sa::fibers::FiberPool pool(workers);
  constexpr int kRounds = 256;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sa::fibers::FiberSemaphore>> sems;
    std::vector<sa::fibers::FiberHandle> hs;
    for (int p = 0; p < workers; ++p) {
      sems.push_back(std::make_unique<sa::fibers::FiberSemaphore>(0));
      sems.push_back(std::make_unique<sa::fibers::FiberSemaphore>(0));
      sa::fibers::FiberSemaphore* ping = sems[sems.size() - 2].get();
      sa::fibers::FiberSemaphore* pong = sems[sems.size() - 1].get();
      hs.push_back(pool.Spawn([ping, pong] {
        for (int i = 0; i < kRounds; ++i) {
          ping->Wait();
          pong->Post();
        }
      }));
      hs.push_back(pool.Spawn([ping, pong] {
        for (int i = 0; i < kRounds; ++i) {
          ping->Post();
          pong->Wait();
        }
      }));
    }
    for (auto& h : hs) {
      pool.Join(h);
    }
  }
  state.SetItemsProcessed(state.iterations() * workers * kRounds);
  ReportSchedCounters(state, pool);
}
BENCHMARK(BM_MultiSemSignalWait)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---- Lazy (pcall) spawning (DESIGN.md §17) ----------------------------------

// Pairs per BM_SpawnLazyJoinLazy iteration.
constexpr int kLazyPairBatch = 4096;

// One SpawnLazy/JoinLazy pair that is never promoted: one worker, joined at
// once, so the child runs inline.  The per-item time is the frame path's
// whole cost next to a procedure call (BM_ProcedureCall); main gates the
// ratio.
void BM_SpawnLazyJoinLazy(benchmark::State& state) {
  sa::fibers::FiberPool pool(1);
  for (auto _ : state) {
    auto driver = pool.Spawn([] {
      sa::fibers::FiberPool* p = sa::fibers::FiberPool::Current();
      for (int i = 0; i < kLazyPairBatch; ++i) {
        p->JoinLazy(p->SpawnLazy([] { NullProcedure(); }));
      }
    });
    pool.Join(driver);
  }
  state.SetItemsProcessed(state.iterations() * kLazyPairBatch);
}
BENCHMARK(BM_SpawnLazyJoinLazy)->UseRealTime();

int64_t LazyFib(sa::fibers::FiberPool* pool, int n) {
  if (n < 2) {
    return n;
  }
  int64_t a = 0;
  auto h = pool->SpawnLazy([pool, n, &a] { a = LazyFib(pool, n - 1); });
  const int64_t b = LazyFib(pool, n - 2);
  pool->JoinLazy(h);
  return a + b;
}

// Lazy fib(24) — a SpawnLazy/JoinLazy pair per call, as the fork_join
// workload of perfbench runs it — on 1/2/4/8 workers: the fork-join scaling
// curve.  Items are frames (fib(25) - 1 per solve).
void BM_LazyFib(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  sa::fibers::FiberPool pool(workers);
  constexpr int kN = 24;
  constexpr int64_t kFrames = 75024;  // fib(kN + 1) - 1
  int64_t result = 0;
  for (auto _ : state) {
    auto root = pool.Spawn([&] {
      result = LazyFib(sa::fibers::FiberPool::Current(), kN);
    });
    pool.Join(root);
  }
  if (result != 46368) {
    state.SkipWithError("wrong fib(24)");
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
  ReportSchedCounters(state, pool);
  state.counters["lazy_promotions_per_solve"] = benchmark::Counter(
      static_cast<double>(pool.stats().lazy_promotions),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LazyFib)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The lazy-overhead gate: an unpromoted SpawnLazy/JoinLazy pair must cost
// at most this many procedure calls measured in the same run.  The pair is
// a frame from a free list, a list link and unlink, and an indirect call of
// the child; with a spinlock taken on each side it measured 20-24x on a
// 4-vCPU x86-64 host, without it about 11-12x.
constexpr double kMaxPairPerCall = 16.0;

// Passes every run on to the display reporter the flags chose, recording
// on the way the wall time of BM_ProcedureCall and of one lazy pair: one
// sample per repetition, plus the median of the repetitions when it is
// reported (the only sample under --benchmark_*_aggregates_only; adding a
// set's median to the set leaves its median unchanged).
class LazyOverheadGate : public benchmark::BenchmarkReporter {
 public:
  explicit LazyOverheadGate(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || (run.run_type != Run::RT_Iteration &&
                                 run.aggregate_name != "median")) {
        continue;
      }
      const double ns = run.GetAdjustedRealTime() /
                        benchmark::GetTimeUnitMultiplier(run.time_unit) * 1e9;
      if (run.run_name.function_name == "BM_ProcedureCall") {
        call_ns_.push_back(ns);
      } else if (run.run_name.function_name == "BM_SpawnLazyJoinLazy") {
        pair_ns_.push_back(ns / kLazyPairBatch);
      }
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  // Prints the verdict on stderr; false when the pair is over the bound.
  // Skipped (true) when a filter excluded either benchmark.
  bool Check() const {
    if (call_ns_.empty() || pair_ns_.empty()) {
      std::fprintf(stderr,
                   "lazy-overhead gate: skipped (BM_ProcedureCall and "
                   "BM_SpawnLazyJoinLazy did not both run)\n");
      return true;
    }
    const double call = Median(call_ns_);
    const double pair = Median(pair_ns_);
    const double ratio = pair / call;
    const bool ok = ratio <= kMaxPairPerCall;
    std::fprintf(stderr,
                 "lazy-overhead gate: one SpawnLazy/JoinLazy pair %.2f ns = "
                 "%.1fx a procedure call (%.2f ns); bound %.0fx: %s\n",
                 pair, ratio, call, kMaxPairPerCall, ok ? "ok" : "FAILED");
    return ok;
  }

 private:
  static double Median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }

  benchmark::BenchmarkReporter* display_;
  std::vector<double> call_ns_;
  std::vector<double> pair_ns_;
};

}  // namespace

// Expanded BENCHMARK_MAIN() with three additions: these are *wall-clock*
// numbers, so a debug build warns on stderr and tags the JSON context
// (google-benchmark's own library_build_type field describes the benchmark
// library, not this binary); a debug build asked to *record* (write a JSON
// file) exits nonzero instead, so a mislabeled baseline cannot be checked
// in again; and the lazy-overhead gate exits nonzero when a lazy pair
// costs more than kMaxPairPerCall procedure calls.
int main(int argc, char** argv) {
  sa::bench::WarnIfDebugBuild("bench_fibers_native");
  if (sa::bench::RefuseDebugRecord("bench_fibers_native", argc, argv)) {
    return 2;
  }
  benchmark::AddCustomContext("app_build_type", sa::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  std::unique_ptr<benchmark::BenchmarkReporter> display(
      benchmark::CreateDefaultDisplayReporter());
  LazyOverheadGate gate(display.get());
  benchmark::RunSpecifiedBenchmarks(&gate);
  benchmark::Shutdown();
  return gate.Check() ? 0 : 1;
}
