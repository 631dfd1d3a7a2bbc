// Simulated workloads: paper_nbody (§5.3's N-body on modified FastThreads
// over scheduler activations, multiprogrammed, with I/O and daemons) and
// multitenant (open-loop kernel-thread tenants at datacenter scale).
//
// Each run builds its own harness from the workload seed, so repeated runs
// in one process simulate the same inputs; their virtual-time results and
// counts must repeat exactly, and a run that does not is a failure.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/apps/nbody.h"
#include "src/apps/nbody_workload.h"
#include "src/kern/proc_alloc.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/traffic/traffic.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"

namespace sa::perfbench {
namespace {

// Categories whose record counts the traced run reports, in output order.
constexpr std::array<std::pair<const char*, uint32_t>, 5> kSimCategories = {{
    {"processor", trace::cat::kProcessor},
    {"kernel", trace::cat::kKernel},
    {"alloc", trace::cat::kAlloc},
    {"upcall", trace::cat::kUpcall},
    {"ult", trace::cat::kUlt},
}};
constexpr uint32_t kSimTraceMask = trace::cat::kProcessor | trace::cat::kKernel |
                                   trace::cat::kAlloc | trace::cat::kUpcall |
                                   trace::cat::kUlt;

// Kind values are grouped by category in blocks of 16 (src/trace/trace.h).
uint32_t CategoryOf(uint16_t kind) {
  switch (kind / 16) {
    case 0: return trace::cat::kProcessor;
    case 1: return trace::cat::kKernel;
    case 2: return trace::cat::kAlloc;
    case 3: return trace::cat::kUpcall;
    case 4: return trace::cat::kUlt;
    default: return 0;
  }
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// What one simulated run measured.  Everything but the *_s host times is
// virtual or a count, and must repeat exactly for the same seed.
struct SimRun {
  double generator_s = 0;  // TrafficGenerator construction alone
  double run_s = 0;        // Harness::TryRun
  double report_s = 0;     // rt::MakeReport
  rt::RunOutcome outcome = rt::RunOutcome::kCompleted;
  rt::RunReport report;
  uint64_t events = 0;
  int64_t decisions = 0;
  ult::UltCounters ult;
  std::array<uint64_t, kSimCategories.size()> records{};
  uint64_t dropped = 0;
  // paper_nbody
  double speedup = 0;          // mean over copies of sequential / elapsed
  double tasks_per_vs = 0;     // summed over copies: tasks / elapsed
  std::vector<int64_t> copy_elapsed;
  int64_t tasks = 0;
  int64_t cache_misses = 0;
  // multitenant
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t unserved = 0;
  int64_t hi_arrivals = 0;
  int64_t hi_bad = 0;  // hi-tier requests unserved or over their SLO
  double low_bad_frac = 0;
  double hi_p50_us = 0;
  double hi_p99_us = 0;
  double hi_worst_p99_us = 0;  // worst single hi-tier tenant
  double goodput = 0;  // completions per virtual second

  // The values that must repeat exactly across runs of one seed.
  std::vector<double> Fingerprint() const {
    std::vector<double> f = {static_cast<double>(events),
                             static_cast<double>(decisions),
                             static_cast<double>(report.counters.upcalls),
                             static_cast<double>(report.elapsed),
                             speedup,
                             static_cast<double>(completions),
                             hi_p99_us};
    for (int64_t e : copy_elapsed) {
      f.push_back(static_cast<double>(e));
    }
    return f;
  }
};

double Seconds(int64_t from, int64_t to) { return static_cast<double>(to - from) / 1e9; }

// Runs the harness and fills the fields common to both workloads.
void RunAndReport(rt::Harness& h, bool traced, uint64_t op, SimRun* r) {
  int64_t t0 = NowNs();
  const rt::RunResult result = h.TryRun();
  int64_t t1 = NowNs();
  r->run_s = Seconds(t0, t1);
  r->outcome = result.outcome;
  if (traced) {
    RecordSpan(SpanName::kTryRun, t0, t1, op, op);
  }
  t0 = NowNs();
  r->report = rt::MakeReport(h);
  t1 = NowNs();
  r->report_s = Seconds(t0, t1);
  if (traced) {
    RecordSpan(SpanName::kMakeReport, t0, t1, op, op);
  }
  r->events = h.engine().events_fired();
  r->decisions = h.kernel().allocator()->decisions();
  if (traced) {
    for (const trace::Record& rec : h.trace()->Snapshot()) {
      const uint32_t c = CategoryOf(rec.kind);
      for (size_t i = 0; i < kSimCategories.size(); ++i) {
        r->records[i] += kSimCategories[i].second == c ? 1 : 0;
      }
    }
    r->dropped = h.trace()->dropped();
  }
}

std::unique_ptr<rt::Harness> MakeHarness(const rt::HarnessConfig& config, bool traced,
                                         uint64_t op, size_t trace_capacity) {
  ScopedSpan span(SpanName::kHarnessCtor, op, op);
  auto h = std::make_unique<rt::Harness>(config);
  if (traced) {
    h->EnableTracing(kSimTraceMask, trace_capacity);
  }
  return h;
}

// ---- paper_nbody ------------------------------------------------------------

struct NBodySpec {
  apps::NBodyConfig app;
  int copies = 3;
  int processors = 6;  // the paper's Firefly
  size_t trace_capacity = 1u << 22;  // holds a full run's records
};

NBodySpec MakeNBodySpec(const Options& opt) {
  NBodySpec s;
  s.app.bodies = opt.smoke ? 300 : 8000;
  s.app.steps = opt.smoke ? 2 : 10;
  s.app.memory_percent = 50.0;  // the buffer cache holds half the pages
  s.app.seed = opt.seed;
  s.copies = opt.smoke ? 2 : 3;
  if (opt.smoke) {
    s.trace_capacity = 1u << 18;
  }
  return s;
}

// The same Barnes-Hut steps outside the simulator: the reference the
// simulated copies' final bodies must equal bit for bit.
std::vector<std::vector<apps::Body>> NBodyReplicas(const NBodySpec& s) {
  std::vector<std::vector<apps::Body>> out;
  for (int c = 0; c < s.copies; ++c) {
    const uint64_t op = static_cast<uint64_t>(c) + 1;
    common::Rng rng(s.app.seed + static_cast<uint64_t>(c));
    std::vector<apps::Body> bodies = apps::MakeDisk(s.app.bodies, &rng);
    apps::QuadTree tree;
    for (int step = 0; step < s.app.steps; ++step) {
      {
        ScopedSpan span(SpanName::kQuadTreeBuild, op, op);
        tree.Build(bodies);
      }
      for (int i = 0; i < s.app.bodies; ++i) {
        int64_t interactions = 0;
        apps::Vec2 acc;
        {
          ScopedSpan span(SpanName::kForceOn, op, op);
          acc = tree.ForceOn(bodies, i, s.app.theta, &interactions);
        }
        bodies[static_cast<size_t>(i)].ax = acc.x;
        bodies[static_cast<size_t>(i)].ay = acc.y;
      }
      apps::Integrate(&bodies, s.app.dt);
    }
    out.push_back(std::move(bodies));
  }
  return out;
}

bool SameBodies(const std::vector<apps::Body>& a, const std::vector<apps::Body>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(apps::Body)) == 0;
}

// A paper_nbody set-up: the harness, one runtime and app per copy, and the
// daemons.  Members are destroyed apps first, harness last.
struct NBodyWorld {
  std::unique_ptr<rt::Harness> h;
  std::vector<std::unique_ptr<ult::UltRuntime>> runtimes;
  std::vector<std::unique_ptr<apps::NBodyApp>> apps;
};

NBodyWorld SetUpNBody(const NBodySpec& s, uint64_t seed, bool traced, uint64_t op) {
  NBodyWorld w;
  rt::HarnessConfig hc;
  hc.processors = s.processors;
  hc.seed = seed;
  hc.kernel.mode = kern::KernelMode::kSchedulerActivations;
  w.h = MakeHarness(hc, traced, op, s.trace_capacity);
  for (int c = 0; c < s.copies; ++c) {
    ult::UltConfig uc;
    uc.max_vcpus = s.processors;
    w.runtimes.push_back(std::make_unique<ult::UltRuntime>(
        &w.h->kernel(), "nbody" + std::to_string(c), ult::BackendKind::kSchedulerActivations,
        uc));
    apps::NBodyConfig config = s.app;
    config.seed = s.app.seed + static_cast<uint64_t>(c);
    w.apps.push_back(std::make_unique<apps::NBodyApp>(config));
    w.apps.back()->set_clock(&w.h->engine());
    w.apps.back()->InstallOn(w.runtimes.back().get());
    w.h->AddRuntime(w.runtimes.back().get());
  }
  w.h->AddDaemon("daemon", sim::Msec(200), sim::Msec(2));  // the Topaz daemons
  return w;
}

SimRun RunNBodyOnce(const NBodySpec& s, uint64_t seed, bool traced, uint64_t op,
                    const std::vector<std::vector<apps::Body>>& replicas, Outcome* out) {
  SimRun r;
  const int64_t t0 = NowNs();
  const NBodyWorld w = SetUpNBody(s, seed, traced, op);
  const std::vector<std::unique_ptr<ult::UltRuntime>>& runtimes = w.runtimes;
  const std::vector<std::unique_ptr<apps::NBodyApp>>& apps = w.apps;

  RunAndReport(*w.h, traced, op, &r);
  ++out->attempted;
  const int tasks_per_step = (s.app.bodies + s.app.chunk - 1) / s.app.chunk;
  bool ok = r.outcome == rt::RunOutcome::kCompleted;
  if (!ok) {
    out->Fail(std::string("nbody run ended ") + rt::RunOutcomeName(r.outcome));
  }
  for (int c = 0; c < s.copies; ++c) {
    const apps::NBodyApp& app = *apps[static_cast<size_t>(c)];
    const sim::Duration elapsed = app.finished_at();
    if (ok && (!app.done() || elapsed <= 0)) {
      out->Fail("nbody copy " + std::to_string(c) + " did not finish");
      ok = false;
    }
    if (ok && app.total_tasks_run() != s.app.steps * tasks_per_step) {
      out->Fail("nbody copy " + std::to_string(c) + " ran " +
                std::to_string(app.total_tasks_run()) + " tasks, expected " +
                std::to_string(s.app.steps * tasks_per_step));
      ok = false;
    }
    if (ok && !SameBodies(app.bodies(), replicas[static_cast<size_t>(c)])) {
      out->Fail("nbody copy " + std::to_string(c) + " bodies differ from the QuadTree replica");
      ok = false;
    }
    if (!ok) {
      break;
    }
    r.copy_elapsed.push_back(elapsed);
    r.speedup += static_cast<double>(app.SequentialTime()) / static_cast<double>(elapsed);
    r.tasks_per_vs += static_cast<double>(app.total_tasks_run()) / sim::ToSec(elapsed);
    r.tasks += app.total_tasks_run();
    r.cache_misses += app.cache().misses();
  }
  r.speedup /= s.copies;
  for (const auto& rt : runtimes) {
    const ult::UltCounters& c = rt->fast_threads().counters();
    r.ult.forks += c.forks;
    r.ult.steals += c.steals;
    r.ult.spin_acquires += c.spin_acquires;
    r.ult.spin_contended += c.spin_contended;
    r.ult.mgmt_time += c.mgmt_time;
  }
  if (traced) {
    RecordSpan(SpanName::kRun, t0, NowNs(), 0, op);
  }
  return r;
}

// The samples themselves, read back through Samples' exact percentiles (the
// k-th of n sorted values sits at percentile 100 k / (n - 1)).
void AppendValues(const common::Samples& samples, std::vector<double>* out) {
  const size_t n = samples.size();
  for (size_t k = 0; k < n; ++k) {
    out->push_back(n == 1 ? samples.Percentile(0)
                          : samples.Percentile(100.0 * static_cast<double>(k) /
                                               static_cast<double>(n - 1)));
  }
}

// ---- multitenant ------------------------------------------------------------

// The bench_multitenant tier mix: ~1/16 high-priority latency-sensitive
// tenants, ~1/4 mid tier on a diurnal ramp, and a low tier offering ~1.5x
// the machine's capacity (saturated by design).
traffic::TrafficConfig MakeTrafficConfig(int processors, int tenants, sim::Duration horizon,
                                         uint64_t seed) {
  traffic::TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = horizon;
  tc.drain = sim::Msec(300);
  tc.record_samples = true;  // exact hi-tier percentiles
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
  const double low_rate = 1.5 * processors / (low * 0.010);
  for (int i = 0; i < low; ++i) {
    traffic::TenantSpec t;
    t.name = "low" + std::to_string(i);
    t.priority = 0;
    t.arrivals.rate = low_rate;
    t.mix = {traffic::RequestClass{"batch", 1.0, sim::Msec(10),
                                   traffic::RequestClass::Dist::kFixed,
                                   i % 4 == 0 ? sim::Msec(1) : 0}};
    t.slo.latency = sim::Msec(200);
    t.slo.quantile = 0.9;
    tc.tenants.push_back(t);
  }
  return tc;
}

struct TenantSpec {
  int processors = 512;
  int tenants = 1024;
  sim::Duration horizon = sim::Sec(2);
  size_t trace_capacity = 1u << 22;  // holds a full run's records
};

TenantSpec MakeTenantSpec(const Options& opt) {
  TenantSpec s;
  if (opt.smoke) {
    s.processors = 64;
    s.tenants = 64;
    s.horizon = sim::Msec(200);
    s.trace_capacity = 1u << 18;
  }
  return s;
}

// A multitenant set-up: the harness and the traffic generator, which builds
// the tenants.  The generator is destroyed before the harness.
struct TenantWorld {
  std::unique_ptr<rt::Harness> h;
  std::unique_ptr<traffic::TrafficGenerator> gen;
  double generator_s = 0;  // TrafficGenerator construction alone
};

TenantWorld SetUpTenants(const TenantSpec& s, uint64_t seed, bool traced, uint64_t op) {
  TenantWorld w;
  rt::HarnessConfig hc;
  hc.processors = s.processors;
  hc.seed = seed;
  hc.kernel.mode = kern::KernelMode::kSchedulerActivations;
  w.h = MakeHarness(hc, traced, op, s.trace_capacity);
  const int64_t g0 = NowNs();
  w.gen = std::make_unique<traffic::TrafficGenerator>(
      w.h.get(), MakeTrafficConfig(s.processors, s.tenants, s.horizon, seed));
  const int64_t g1 = NowNs();
  if (traced) {
    RecordSpan(SpanName::kGeneratorCtor, g0, g1, op, op);
  }
  w.generator_s = Seconds(g0, g1);
  return w;
}

SimRun RunTenantsOnce(const TenantSpec& s, uint64_t seed, bool traced, uint64_t op,
                      Outcome* out) {
  SimRun r;
  const int64_t t0 = NowNs();
  const TenantWorld w = SetUpTenants(s, seed, traced, op);
  const traffic::TrafficGenerator& gen = *w.gen;
  r.generator_s = w.generator_s;

  RunAndReport(*w.h, traced, op, &r);
  if (r.outcome != rt::RunOutcome::kCompleted) {
    ++out->attempted;
    out->Fail(std::string("multitenant run ended ") + rt::RunOutcomeName(r.outcome));
  }
  std::vector<double> hi_sojourn;
  int64_t low_arrivals = 0;
  int64_t low_bad = 0;
  for (size_t i = 0; i < r.report.tenants.size(); ++i) {
    const rt::TenantSloRow& row = r.report.tenants[i];
    r.arrivals += row.arrivals;
    r.completions += row.completions;
    r.unserved += row.unserved;
    if (row.tier == 2) {
      const traffic::TenantStats& stats = gen.stats(i);
      AppendValues(stats.samples, &hi_sojourn);
      if (!stats.samples.empty()) {
        r.hi_worst_p99_us = std::max(r.hi_worst_p99_us, stats.samples.Percentile(99) / 1e3);
      }
      r.hi_arrivals += row.arrivals;
      r.hi_bad += stats.completed_violations + row.unserved;
    } else if (row.tier == 0) {
      low_arrivals += row.arrivals;
      low_bad += static_cast<int64_t>(row.violation_fraction * static_cast<double>(row.arrivals));
    }
  }
  out->attempted += r.hi_arrivals;
  for (int64_t i = 0; i < r.hi_bad; ++i) {
    out->Fail("a hi-tier request was unserved or over its 20 ms SLO");
  }
  r.low_bad_frac = Ratio(static_cast<double>(low_bad), static_cast<double>(low_arrivals));
  r.hi_p50_us = Percentile(hi_sojourn, 50) / 1e3;
  r.hi_p99_us = Percentile(hi_sojourn, 99) / 1e3;
  r.goodput = static_cast<double>(r.completions) / sim::ToSec(r.report.elapsed);
  if (traced) {
    RecordSpan(SpanName::kRun, t0, NowNs(), 0, op);
  }
  return r;
}

// ---- shared measurement loop and metrics -------------------------------------

// Repeats `once` until `seconds` have passed (at least once), checking that
// every run repeats the first one's virtual results exactly.  Host times
// here stay raw: the compute-only reference loop does not track this
// memory-heavy simulation's speed, and scaling by it widened the spread
// between runs (perfbench/METRICS.md).
template <typename Once>
std::vector<SimRun> Repeat(double seconds, uint64_t* next_op, Outcome* out, Once once) {
  std::vector<SimRun> runs;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    runs.push_back(once((*next_op)++));
    if (runs.back().Fingerprint() != runs.front().Fingerprint()) {
      out->Fail("a rerun of the same seed gave different virtual results");
    }
  } while (NowNs() < deadline);
  return runs;
}

std::vector<double> Field(const std::vector<SimRun>& runs, double SimRun::*field) {
  std::vector<double> v;
  for (const SimRun& r : runs) {
    v.push_back(r.*field);
  }
  return v;
}

std::vector<double> UsPerEvent(const std::vector<SimRun>& runs) {
  std::vector<double> v;
  for (const SimRun& r : runs) {
    v.push_back(r.run_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, r.events)));
  }
  return v;
}

// Sets a workload up kSetups times and returns the median time.  `set_up`
// returns what it built; tearing that down is not timed.
template <typename SetUp>
double MedianSetUpS(SetUp set_up) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    auto world = set_up();
    setup_s.push_back(Seconds(t0, NowNs()));
  }
  return Median(setup_s);
}

void SetEndToEndCommon(Metrics& m, double setup_s, const std::vector<SimRun>& runs) {
  m.Set("setup_s", setup_s, "s");
  m.Set("unit_p50_ms", 1e3 * Median(Field(runs, &SimRun::run_s)), "ms");
}

// Per-layer metrics of the simulator stack, from the traced runs.
void SetSimLayers(Metrics& m, const std::vector<SimRun>& traced,
                  const std::vector<SimRun>& plain) {
  const SimRun& r = traced.front();
  const kern::KernelCounters& k = r.report.counters;
  const double events = static_cast<double>(r.events);
  const double run_s = Median(Field(traced, &SimRun::run_s));
  m.Set("sim.events", events, "count");
  m.Set("sim.ns_per_event", run_s * 1e9 / events, "ns");
  m.Set("kern.alloc_decisions", static_cast<double>(r.decisions), "count");
  m.Set("kern.decisions_per_event", static_cast<double>(r.decisions) / events, "ratio");
  m.Set("kern.dispatches", static_cast<double>(k.dispatches), "count");
  m.Set("kern.timeslices", static_cast<double>(k.timeslices), "count");
  m.Set("kern.preempt_interrupts", static_cast<double>(k.preempt_interrupts), "count");
  m.Set("kern.io_blocks", static_cast<double>(k.io_blocks), "count");
  m.Set("core.upcalls", static_cast<double>(k.upcalls), "count");
  m.Set("core.events_per_upcall",
        Ratio(static_cast<double>(k.upcall_events), static_cast<double>(k.upcalls)), "ratio");
  m.Set("core.activation_reuse_ratio",
        Ratio(static_cast<double>(k.activation_reuses),
              static_cast<double>(k.activation_reuses + k.activation_allocs)),
        "ratio");
  m.Set("core.cs_recoveries", static_cast<double>(k.cs_recoveries), "count");
  m.Set("core.upcall_latency_p50_us",
        static_cast<double>(r.report.upcall_latency.Quantile(0.5)) / 1e3, "us");
  m.Set("core.upcall_latency_p99_us",
        static_cast<double>(r.report.upcall_latency.Quantile(0.99)) / 1e3, "us");
  m.Set("rt.run_s", run_s, "s");
  m.Set("rt.report_s", Median(Field(traced, &SimRun::report_s)), "s");
  const rt::RunReport& rep = r.report;
  const double total = static_cast<double>(rep.user + rep.mgmt + rep.kernel + rep.spin +
                                           rep.idle_spin + rep.idle);
  m.Set("rt.user_frac", Ratio(static_cast<double>(rep.user), total), "frac");
  m.Set("rt.mgmt_frac", Ratio(static_cast<double>(rep.mgmt), total), "frac");
  m.Set("rt.kernel_frac", Ratio(static_cast<double>(rep.kernel), total), "frac");
  m.Set("rt.spin_frac", Ratio(static_cast<double>(rep.spin), total), "frac");
  m.Set("rt.idle_frac", Ratio(static_cast<double>(rep.idle_spin + rep.idle), total), "frac");
  for (size_t i = 0; i < kSimCategories.size(); ++i) {
    m.Set(std::string("trace.records.") + kSimCategories[i].first,
          static_cast<double>(r.records[i]), "count");
  }
  m.Set("trace.dropped", static_cast<double>(r.dropped), "count");
  m.Set("trace.overhead_frac",
        Median(Field(traced, &SimRun::run_s)) / Median(Field(plain, &SimRun::run_s)) - 1.0,
        "frac");
}

}  // namespace

Outcome RunPaperNBody(const Options& opt) {
  Outcome out;
  const NBodySpec spec = MakeNBodySpec(opt);
  const int64_t p0 = NowNs();
  const std::vector<std::vector<apps::Body>> replicas = NBodyReplicas(spec);
  const double physics_s = Seconds(p0, NowNs());
  uint64_t next_op = 100;
  auto once = [&](bool traced) {
    return [&, traced](uint64_t op) {
      return RunNBodyOnce(spec, opt.seed, traced, op, replicas, &out);
    };
  };
  const std::vector<SimRun> plain =
      Repeat(opt.trace ? opt.seconds / 2 : opt.seconds, &next_op, &out, once(false));
  const SimRun& first = plain.front();
  if (!opt.trace) {
    Metrics& m = out.end_to_end;
    SetEndToEndCommon(m, MedianSetUpS([&] { return SetUpNBody(spec, opt.seed, false, 0); }),
                      plain);
    m.Set("op_p50_us", Percentile(UsPerEvent(plain), 50), "us");
    const auto last = std::max_element(first.copy_elapsed.begin(), first.copy_elapsed.end());
    m.Set("tail_ms", last == first.copy_elapsed.end() ? 0.0 : sim::ToMsec(*last), "ms");
    m.Set("speedup_x", first.speedup, "x");
    m.Set("rate_per_s", first.tasks_per_vs, "1/s");
    out.named.Set("nbody_run_s", Median(Field(plain, &SimRun::run_s)), "s");
    out.named.Set("nbody_speedup", first.speedup, "x");
    return out;
  }
  const double untraced_rss_mb = PeakRssMb();
  SetSpansEnabled(true);
  // The QuadTree call spans come from a second pass over the replica, so
  // that apps.physics_s, timed on the first, carries no span overhead.
  NBodyReplicas(spec);
  const std::vector<SimRun> traced = Repeat(opt.seconds / 2, &next_op, &out, once(true));
  SetSpansEnabled(false);
  Metrics& m = out.per_layer;
  m.Set("mem.peak_rss_mb", untraced_rss_mb, "MB");
  SetSimLayers(m, traced, plain);
  m.Set("ult.forks", static_cast<double>(first.ult.forks), "count");
  m.Set("ult.steals", static_cast<double>(first.ult.steals), "count");
  m.Set("ult.spin_contended_ratio",
        Ratio(static_cast<double>(first.ult.spin_contended),
              static_cast<double>(first.ult.spin_acquires)),
        "ratio");
  m.Set("ult.mgmt_us_per_task",
        Ratio(sim::ToUsec(first.ult.mgmt_time), static_cast<double>(first.tasks)), "us");
  m.Set("apps.physics_s", physics_s, "s");
  m.Set("apps.cache_misses", static_cast<double>(first.cache_misses), "count");
  return out;
}

Outcome RunMultitenant(const Options& opt) {
  Outcome out;
  const TenantSpec spec = MakeTenantSpec(opt);
  uint64_t next_op = 100;
  auto once = [&](bool traced) {
    return [&, traced](uint64_t op) { return RunTenantsOnce(spec, opt.seed, traced, op, &out); };
  };
  const std::vector<SimRun> plain =
      Repeat(opt.trace ? opt.seconds / 2 : opt.seconds, &next_op, &out, once(false));
  const SimRun& first = plain.front();
  if (!opt.trace) {
    Metrics& m = out.end_to_end;
    SetEndToEndCommon(m, MedianSetUpS([&] { return SetUpTenants(spec, opt.seed, false, 0); }),
                      plain);
    m.Set("op_p50_us", first.hi_p50_us, "us");
    m.Set("tail_ms", first.hi_p99_us / 1e3, "ms");
    m.Set("speedup_x",
          Ratio(static_cast<double>(first.report.user), static_cast<double>(first.report.elapsed)),
          "x");
    m.Set("rate_per_s", first.goodput, "1/s");
    out.named.Set("tenants_run_s", Median(Field(plain, &SimRun::run_s)), "s");
    out.named.Set("hi_p99_ms", first.hi_p99_us / 1e3, "ms");
    out.named.Set("goodput_per_s", first.goodput, "1/s");
    return out;
  }
  const double untraced_rss_mb = PeakRssMb();
  SetSpansEnabled(true);
  const std::vector<SimRun> traced = Repeat(opt.seconds / 2, &next_op, &out, once(true));
  SetSpansEnabled(false);
  Metrics& m = out.per_layer;
  m.Set("mem.peak_rss_mb", untraced_rss_mb, "MB");
  SetSimLayers(m, traced, plain);
  m.Set("traffic.arrivals", static_cast<double>(first.arrivals), "count");
  m.Set("traffic.completions", static_cast<double>(first.completions), "count");
  m.Set("traffic.unserved", static_cast<double>(first.unserved), "count");
  m.Set("traffic.hi_violation_frac",
        Ratio(static_cast<double>(first.hi_bad), static_cast<double>(first.hi_arrivals)), "frac");
  m.Set("traffic.low_bad_frac", first.low_bad_frac, "frac");
  m.Set("traffic.hi_worst_p99_ms", first.hi_worst_p99_us / 1e3, "ms");
  m.Set("traffic.generator_setup_s", Median(Field(traced, &SimRun::generator_s)), "s");
  return out;
}

}  // namespace sa::perfbench
