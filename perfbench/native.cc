// Native workloads on src/fibers: fork_join (lazy fib) and fiber_ops (the
// paper's Table 1 operations under load).  Both use P = nproc workers while
// the driver thread blocks in an external Join.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/fibers/fiber_pool.h"
#include "src/trace/trace.h"

namespace sa::perfbench {
namespace {

using fibers::FiberHandle;
using fibers::FiberPool;
using fibers::FiberPoolStats;
using fibers::FiberSemaphore;
using fibers::LazyHandle;

int Workers() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

FiberPoolStats Delta(const FiberPoolStats& after, const FiberPoolStats& before) {
  FiberPoolStats d;
  d.local_pops = after.local_pops - before.local_pops;
  d.overflow_pops = after.overflow_pops - before.overflow_pops;
  d.steals = after.steals - before.steals;
  d.steal_attempts = after.steal_attempts - before.steal_attempts;
  d.parks = after.parks - before.parks;
  d.wakeups = after.wakeups - before.wakeups;
  d.lazy_spawns = after.lazy_spawns - before.lazy_spawns;
  d.lazy_promotions = after.lazy_promotions - before.lazy_promotions;
  d.lazy_inlines = after.lazy_inlines - before.lazy_inlines;
  d.timeout_rescues = after.timeout_rescues - before.timeout_rescues;
  return d;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Scheduler counters of a measured phase (zero on the simulated workloads).
void SetPoolCounters(Metrics& m, const FiberPoolStats& s) {
  m.Set("fibers.lazy_spawns", static_cast<double>(s.lazy_spawns), "count");
  m.Set("fibers.lazy_promotions", static_cast<double>(s.lazy_promotions), "count");
  m.Set("fibers.lazy_inlines", static_cast<double>(s.lazy_inlines), "count");
  m.Set("fibers.promotion_ratio",
        Ratio(static_cast<double>(s.lazy_promotions), static_cast<double>(s.lazy_spawns)),
        "ratio");
  m.Set("fibers.steals", static_cast<double>(s.steals), "count");
  m.Set("fibers.steal_attempts", static_cast<double>(s.steal_attempts), "count");
  m.Set("fibers.steal_hit_ratio",
        Ratio(static_cast<double>(s.steals), static_cast<double>(s.steal_attempts)), "ratio");
  m.Set("fibers.local_pops", static_cast<double>(s.local_pops), "count");
  m.Set("fibers.overflow_pops", static_cast<double>(s.overflow_pops), "count");
  m.Set("fibers.parks", static_cast<double>(s.parks), "count");
  m.Set("fibers.wakeups", static_cast<double>(s.wakeups), "count");
  m.Set("fibers.timeout_rescues", static_cast<double>(s.timeout_rescues), "count");
}

// Per-call self times from the traced phase.
void SetCallTimes(Metrics& m) {
  m.Set("fibers.spawn_lazy_ns", MeanSelfNs(SpanName::kSpawnLazy), "ns");
  m.Set("fibers.join_lazy_ns", MeanSelfNs(SpanName::kJoinLazy), "ns");
  m.Set("fibers.spawn_ns", MeanSelfNs(SpanName::kSpawn), "ns");
  m.Set("fibers.join_ns", MeanSelfNs(SpanName::kJoin), "ns");
  m.Set("fibers.post_ns", MeanSelfNs(SpanName::kPost), "ns");
  m.Set("fibers.wait_ns", MeanSelfNs(SpanName::kWait), "ns");
}

// ---- fork_join --------------------------------------------------------------

int64_t __attribute__((noinline)) FibSeq(int n) {
  return n < 2 ? n : FibSeq(n - 1) + FibSeq(n - 2);
}

// Every call forks its first subproblem lazily and solves the second itself.
int64_t FibLazy(FiberPool* pool, int n) {
  if (n < 2) {
    return n;
  }
  int64_t a = 0;
  LazyHandle h = pool->SpawnLazy([pool, n, &a] { a = FibLazy(pool, n - 1); });
  const int64_t b = FibLazy(pool, n - 2);
  pool->JoinLazy(h);
  return a + b;
}

// The same recursion with a span around each SpawnLazy and JoinLazy.  A join
// that ran the child inline covers the child's whole body; that body is
// subtracted so the JoinLazy span keeps only its own (self) time.
int64_t FibLazyTraced(FiberPool* pool, int n, uint64_t op) {
  if (n < 2) {
    return n;
  }
  int64_t a = 0;
  int64_t body_start = 0;
  int64_t body_ns = 0;
  const int64_t s0 = NowNs();
  LazyHandle h = pool->SpawnLazy([pool, n, op, &a, &body_start, &body_ns] {
    body_start = NowNs();
    a = FibLazyTraced(pool, n - 1, op);
    body_ns = NowNs() - body_start;
  });
  RecordSpan(SpanName::kSpawnLazy, s0, NowNs(), op, op);
  const int64_t b = FibLazyTraced(pool, n - 2, op);
  const int64_t j0 = NowNs();
  pool->JoinLazy(h);
  const int64_t j1 = NowNs();
  const int64_t inline_ns = body_start >= j0 ? body_ns : 0;
  RecordSpan(SpanName::kJoinLazy, j0, j1, op, op, (j1 - j0) - inline_ns);
  return a + b;
}

// One solve driven from this (non-worker) thread; returns its wall time in ms.
double Solve(FiberPool& pool, int n, bool traced, uint64_t op, int64_t* result) {
  const int64_t t0 = NowNs();
  FiberHandle h = pool.Spawn([&pool, n, traced, op, result] {
    *result = traced ? FibLazyTraced(&pool, n, op) : FibLazy(&pool, n);
  });
  pool.Join(h);
  const int64_t t1 = NowNs();
  if (traced) {
    RecordSpan(SpanName::kSolve, t0, t1, 0, op);
  }
  return static_cast<double>(t1 - t0) / 1e6;
}

struct SolvePhase {
  std::vector<double> solve_ms;      // raw host time per solve
  std::vector<double> solve_ref_ms;  // the same at reference speed
  std::vector<double> seq_ms;        // sequential fib(N) just before each solve
  std::vector<double> speedup;       // sequential over parallel, per solve
  double ref_s = 0;                  // summed solve time at reference speed
  FiberPoolStats stats;
  uint64_t switches = 0;
};

// Constructs a pool plus one warm-up solve, kSetups times; keeps the last.
// Each set-up time is read at reference speed.
std::unique_ptr<FiberPool> SetUpForkJoin(int n, std::vector<double>* setup_s,
                                         trace::TraceBuffer* tracer) {
  std::unique_ptr<FiberPool> pool;
  double before_ms = ReferenceLoopMs(Workers());
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    const int64_t t0 = NowNs();
    pool = std::make_unique<FiberPool>(Workers());
    if (tracer != nullptr) {
      // Races with the already-running workers' reads of the tracer: the
      // pool offers no way to attach one before they start.  Traced runs only.
      pool->set_tracer(tracer);
    }
    int64_t warm = 0;
    Solve(*pool, n, false, 0, &warm);
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    const double after_ms = ReferenceLoopMs(Workers());
    setup_s->push_back(AtReferenceSpeed(s, (before_ms + after_ms) / 2));
    before_ms = after_ms;
  }
  return pool;
}

// Closed loop until `seconds` have passed: the sequential fib, then one
// parallel solve, with the reference loop timed between solves.
SolvePhase RunSolves(FiberPool& pool, int n, int64_t expected, double seconds,
                     bool traced, uint64_t* next_op, Outcome* out) {
  SolvePhase phase;
  const FiberPoolStats before = pool.stats();
  const uint64_t switches_before = pool.switches();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  double before_ms = ReferenceLoopMs(Workers());
  do {
    volatile int vn = n;  // opaque, so the sequential call is not folded away
    const int64_t s0 = NowNs();
    volatile int64_t seq_result = FibSeq(vn);
    (void)seq_result;
    const double seq_ms = static_cast<double>(NowNs() - s0) / 1e6;
    int64_t result = -1;
    const double ms = Solve(pool, n, traced, (*next_op)++, &result);
    const double after_ms = ReferenceLoopMs(Workers());
    const double ref_ms = AtReferenceSpeed(ms, (before_ms + after_ms) / 2);  // bracketed
    before_ms = after_ms;
    phase.solve_ms.push_back(ms);
    phase.solve_ref_ms.push_back(ref_ms);
    phase.seq_ms.push_back(seq_ms);
    phase.speedup.push_back(seq_ms / ms);
    phase.ref_s += ref_ms / 1e3;
    ++out->attempted;
    if (result != expected) {
      out->Fail("fib(" + std::to_string(n) + ") = " + std::to_string(result) +
                ", sequential gives " + std::to_string(expected));
    }
  } while (NowNs() < deadline);
  phase.stats = Delta(pool.stats(), before);
  phase.switches = pool.switches() - switches_before;
  return phase;
}

// ---- fiber_ops --------------------------------------------------------------

constexpr int kForkBatch = 64;   // null fibers per Null Fork sample
constexpr int kRoundBatch = 16;  // round trips per Signal-Wait sample
constexpr double kRoundSeconds = 1;  // one solo stint plus one loaded stint
constexpr double kSoloShare = 0.2;   // of each round, for the solo pair

struct PingPair {
  FiberSemaphore ping;
  FiberSemaphore pong;
  std::atomic<bool> stop{false};
  int64_t rounds = 0;    // completed round trips, counted by the driver side
  int64_t received = 0;  // pings answered, counted by the partner side
  std::vector<double> round_us;
};

// Signal-Wait: post the partner's semaphore, then wait on our own.
void PairDriver(PingPair* p, const std::atomic<bool>* stop, bool traced, uint64_t op) {
  while (!stop->load(std::memory_order_relaxed)) {
    const int64_t t0 = NowNs();
    for (int k = 0; k < kRoundBatch; ++k) {
      if (traced) {
        const int64_t a = NowNs();
        p->ping.Post();
        const int64_t b = NowNs();
        p->pong.Wait();
        const int64_t c = NowNs();
        RecordSpan(SpanName::kPost, a, b, op, op);
        RecordSpan(SpanName::kWait, b, c, op, op);
      } else {
        p->ping.Post();
        p->pong.Wait();
      }
    }
    const int64_t t1 = NowNs();
    if (traced) {
      RecordSpan(SpanName::kBatch, t0, t1, 0, op);
    }
    p->round_us.push_back(static_cast<double>(t1 - t0) / 1e3 / kRoundBatch);
    p->rounds += kRoundBatch;
  }
  p->stop.store(true, std::memory_order_release);
  p->ping.Post();
}

void PairPartner(PingPair* p) {
  for (;;) {
    p->ping.Wait();
    if (p->stop.load(std::memory_order_acquire)) {
      return;
    }
    ++p->received;
    p->pong.Post();
  }
}

struct NullForkDriver {
  std::vector<std::atomic<int>> runs = std::vector<std::atomic<int>>(kForkBatch);
  std::vector<double> fork_us;
  int64_t forks = 0;
  int64_t bad = 0;  // fibers that did not run exactly once
};

// Null Fork: spawn a batch of null fibers, then join them all.
void NullForks(NullForkDriver* d, const std::atomic<bool>* stop, bool traced, uint64_t op) {
  FiberPool* pool = FiberPool::Current();
  std::vector<FiberHandle> hs(kForkBatch);
  while (!stop->load(std::memory_order_relaxed)) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kForkBatch; ++i) {
      std::atomic<int>* slot = &d->runs[static_cast<size_t>(i)];
      auto body = [slot] { slot->fetch_add(1, std::memory_order_relaxed); };
      if (traced) {
        const int64_t a = NowNs();
        hs[static_cast<size_t>(i)] = pool->Spawn(body);
        RecordSpan(SpanName::kSpawn, a, NowNs(), op, op);
      } else {
        hs[static_cast<size_t>(i)] = pool->Spawn(body);
      }
    }
    for (int i = 0; i < kForkBatch; ++i) {
      if (traced) {
        const int64_t a = NowNs();
        pool->Join(hs[static_cast<size_t>(i)]);
        RecordSpan(SpanName::kJoin, a, NowNs(), op, op);
      } else {
        pool->Join(hs[static_cast<size_t>(i)]);
      }
    }
    const int64_t t1 = NowNs();
    if (traced) {
      RecordSpan(SpanName::kBatch, t0, t1, 0, op);
    }
    for (auto& r : d->runs) {
      d->bad += r.exchange(0, std::memory_order_relaxed) != 1 ? 1 : 0;
    }
    d->fork_us.push_back(static_cast<double>(t1 - t0) / 1e3 / kForkBatch);
    d->forks += kForkBatch;
  }
}

// Samples of the loaded phases (raw and at reference speed) and the
// per-round scaling of the pairs' aggregate Signal-Wait rate.
struct OpsPhase {
  std::vector<double> fork_us, fork_ref_us;
  std::vector<double> round_us, round_ref_us;
  std::vector<double> scaling;  // loaded rate over solo rate, per round
  int64_t forks = 0;            // in the loaded phases
  int64_t rounds = 0;           // in the loaded phases
  int64_t all_ops = 0;          // forks and round trips of every stint
  double loaded_ref_s = 0;      // loaded phases' wall time at reference speed
  FiberPoolStats stats;
  uint64_t switches = 0;
};

struct Stint {
  int64_t rounds = 0;
  int64_t forks = 0;
  double ref_s = 0;  // wall time at reference speed
};

// Runs `pairs` ping-pong pairs (plus the null-fork driver if `forks`) for
// `seconds`, then stops and joins them.  The reference loop is timed before
// and after, while the pool is idle; `*loop_ms` carries the last timing from
// stint to stint (null: a warm-up, not timed), and the stint is read at the
// average of the two.  Loaded stints add their samples to `phase`.
Stint RunOpsFor(FiberPool& pool, int pairs, bool forks, double seconds, bool traced,
                uint64_t op, double* loop_ms, OpsPhase* phase, Outcome* out) {
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<PingPair>> ps;
  std::vector<FiberHandle> hs;
  NullForkDriver driver;
  const int64_t start = NowNs();
  for (int i = 0; i < pairs; ++i) {
    ps.push_back(std::make_unique<PingPair>());
    PingPair* p = ps.back().get();
    hs.push_back(pool.Spawn([p] { PairPartner(p); }));
    hs.push_back(pool.Spawn([p, &stop, traced, op] { PairDriver(p, &stop, traced, op); }));
  }
  if (forks) {
    hs.push_back(pool.Spawn([&driver, &stop, traced, op] {
      NullForks(&driver, &stop, traced, op);
    }));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (FiberHandle h : hs) {
    pool.Join(h);
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  double loop = kReferenceLoopMs;  // an uncalibrated (warm-up) stint
  if (loop_ms != nullptr) {
    const double after_ms = ReferenceLoopMs(Workers());
    loop = (*loop_ms + after_ms) / 2;
    *loop_ms = after_ms;
  }

  Stint stint;
  stint.ref_s = AtReferenceSpeed(wall_s, loop);
  for (const auto& p : ps) {
    stint.rounds += p->rounds;
    out->attempted += p->rounds;
    if (p->received != p->rounds) {
      out->Fail("ping-pong pair unbalanced: " + std::to_string(p->rounds) +
                " round trips but " + std::to_string(p->received) + " pings answered");
    }
    if (forks) {
      for (double us : p->round_us) {
        phase->round_us.push_back(us);
        phase->round_ref_us.push_back(AtReferenceSpeed(us, loop));
      }
    }
  }
  stint.forks = driver.forks;
  out->attempted += driver.forks;
  for (int64_t i = 0; i < driver.bad; ++i) {
    out->Fail("a null fiber did not run exactly once");
  }
  for (double us : driver.fork_us) {
    phase->fork_us.push_back(us);
    phase->fork_ref_us.push_back(AtReferenceSpeed(us, loop));
  }
  return stint;
}

std::unique_ptr<FiberPool> SetUpFiberOps(std::vector<double>* setup_s,
                                         trace::TraceBuffer* tracer, Outcome* out) {
  std::unique_ptr<FiberPool> pool;
  double before_ms = ReferenceLoopMs(Workers());
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    const int64_t t0 = NowNs();
    pool = std::make_unique<FiberPool>(Workers());
    if (tracer != nullptr) {
      pool->set_tracer(tracer);  // the same race as in SetUpForkJoin
    }
    // The warm-up is a short loaded stint.  Fixed-work warm-ups were tried
    // and rejected: on a fresh pool with few fibers the workers park between
    // operations, and their time varied from 2 ms to 90 ms.
    OpsPhase warm;
    RunOpsFor(*pool, 1, true, 0.005, false, 0, nullptr, &warm, out);
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    const double after_ms = ReferenceLoopMs(Workers());
    setup_s->push_back(AtReferenceSpeed(s, (before_ms + after_ms) / 2));
    before_ms = after_ms;
  }
  return pool;
}

// Rounds of a solo pair (the scaling baseline) followed by P pairs with the
// null-fork driver running alongside.
OpsPhase RunOps(FiberPool& pool, double seconds, bool traced, uint64_t* next_op,
                Outcome* out) {
  OpsPhase phase;
  const FiberPoolStats before = pool.stats();
  const uint64_t switches_before = pool.switches();
  const int rounds = std::max(1, static_cast<int>(seconds / kRoundSeconds + 0.5));
  const double round_s = seconds / rounds;
  double loop_ms = ReferenceLoopMs(Workers());
  for (int r = 0; r < rounds; ++r) {
    const Stint solo = RunOpsFor(pool, 1, false, round_s * kSoloShare, traced,
                                 (*next_op)++, &loop_ms, &phase, out);
    const Stint loaded = RunOpsFor(pool, Workers(), true, round_s * (1 - kSoloShare),
                                   traced, (*next_op)++, &loop_ms, &phase, out);
    phase.scaling.push_back((static_cast<double>(loaded.rounds) / loaded.ref_s) /
                            (static_cast<double>(solo.rounds) / solo.ref_s));
    phase.forks += loaded.forks;
    phase.rounds += loaded.rounds;
    phase.loaded_ref_s += loaded.ref_s;
    phase.all_ops += solo.rounds + loaded.rounds + loaded.forks;
  }
  phase.stats = Delta(pool.stats(), before);
  phase.switches = pool.switches() - switches_before;
  return phase;
}

}  // namespace

Outcome RunForkJoin(const Options& opt) {
  Outcome out;
  const int n = opt.smoke ? 16 : 27;
  const int64_t expected = FibSeq(n);
  const double pairs = static_cast<double>(FibSeq(n + 1) - 1);  // calls with n >= 2
  uint64_t next_op = 1;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  std::vector<double> setup_s;
  std::unique_ptr<FiberPool> pool = SetUpForkJoin(n, &setup_s, nullptr);
  const SolvePhase plain = RunSolves(*pool, n, expected, untraced_s, false, &next_op, &out);
  pool.reset();
  const double solves = static_cast<double>(plain.solve_ms.size());
  const double ref_p50 = Percentile(plain.solve_ref_ms, 50);

  if (!opt.trace) {
    Metrics& m = out.end_to_end;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("unit_p50_ms", ref_p50, "ms");
    m.Set("op_p50_us", ref_p50 * 1e3 / pairs, "us");
    m.Set("tail_ms", Percentile(plain.solve_ref_ms, 90), "ms");
    m.Set("speedup_x", Median(plain.speedup), "x");
    m.Set("rate_per_s", pairs * solves / plain.ref_s, "1/s");
    out.named.Set("fib_p50_ms", Percentile(plain.solve_ms, 50), "ms");
    out.named.Set("fib_p90_ms", Percentile(plain.solve_ms, 90), "ms");
    return out;
  }

  // Traced phase: a fresh pool with the trace ring attached and spans on.
  const double untraced_rss_mb = PeakRssMb();
  trace::TraceBuffer ring(1u << 16);
  ring.set_enabled(trace::cat::kFibers);
  SetSpansEnabled(true);
  setup_s.clear();
  pool = SetUpForkJoin(n, &setup_s, &ring);
  const SolvePhase traced = RunSolves(*pool, n, expected, opt.seconds / 2, true, &next_op, &out);
  pool.reset();
  SetSpansEnabled(false);

  Metrics& m = out.per_layer;
  m.Set("mem.peak_rss_mb", untraced_rss_mb, "MB");
  SetCallTimes(m);
  SetPoolCounters(m, plain.stats);
  m.Set("fibers.switches_per_op", Ratio(static_cast<double>(plain.switches), pairs * solves),
        "ratio");
  m.Set("fibers.seq_ms", Median(plain.seq_ms), "ms");
  m.Set("fibers.speedup", Median(plain.speedup), "x");
  m.Set("trace.records.fibers", static_cast<double>(ring.total_emitted()), "count");
  m.Set("trace.overhead_frac", Percentile(traced.solve_ref_ms, 50) / ref_p50 - 1.0, "frac");
  return out;
}

Outcome RunFiberOps(const Options& opt) {
  Outcome out;
  uint64_t next_op = 1;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  std::vector<double> setup_s;
  std::unique_ptr<FiberPool> pool = SetUpFiberOps(&setup_s, nullptr, &out);
  const OpsPhase plain = RunOps(*pool, untraced_s, false, &next_op, &out);
  pool.reset();
  const double ops = static_cast<double>(plain.forks + plain.rounds);

  if (!opt.trace) {
    Metrics& m = out.end_to_end;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("unit_p50_ms", Percentile(plain.fork_ref_us, 50) / 1e3, "ms");
    m.Set("op_p50_us", Percentile(plain.round_ref_us, 50), "us");
    m.Set("tail_ms", Percentile(plain.round_ref_us, 90) / 1e3, "ms");
    m.Set("speedup_x", Median(plain.scaling), "x");
    m.Set("rate_per_s", static_cast<double>(plain.forks) / plain.loaded_ref_s, "1/s");
    out.named.Set("null_fork_p50_us", Percentile(plain.fork_us, 50), "us");
    out.named.Set("null_fork_p90_us", Percentile(plain.fork_us, 90), "us");
    out.named.Set("signal_wait_p50_us", Percentile(plain.round_us, 50), "us");
    out.named.Set("signal_wait_p90_us", Percentile(plain.round_us, 90), "us");
    return out;
  }

  const double untraced_rss_mb = PeakRssMb();
  trace::TraceBuffer ring(1u << 16);
  ring.set_enabled(trace::cat::kFibers);
  SetSpansEnabled(true);
  setup_s.clear();
  pool = SetUpFiberOps(&setup_s, &ring, &out);
  const OpsPhase traced = RunOps(*pool, opt.seconds / 2, true, &next_op, &out);
  pool.reset();
  SetSpansEnabled(false);

  Metrics& m = out.per_layer;
  m.Set("mem.peak_rss_mb", untraced_rss_mb, "MB");
  SetCallTimes(m);
  SetPoolCounters(m, plain.stats);
  m.Set("fibers.switches_per_op",
        Ratio(static_cast<double>(plain.switches), static_cast<double>(plain.all_ops)), "ratio");
  m.Set("trace.records.fibers", static_cast<double>(ring.total_emitted()), "count");
  // Loaded-phase work per reference second, untraced over traced.
  const double traced_ops = static_cast<double>(traced.forks + traced.rounds);
  m.Set("trace.overhead_frac",
        Ratio(ops / plain.loaded_ref_s, traced_ops / traced.loaded_ref_s) - 1.0, "frac");
  return out;
}

}  // namespace sa::perfbench
