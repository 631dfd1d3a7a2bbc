// Shared pieces of the benchmark: options, the metric sink, percentiles,
// and the benchmark's own spans (name, start, end, parent, op id) that wrap
// calls into the library's public functions during a traced run.
//
// Spans are recorded by the benchmark, never by the library: each layer is
// measured from outside, at the boundary where the benchmark calls it.
// Every span also adds its self time to a per-name aggregate, so per-layer
// timings cover every call even though only the first kMaxStoredSpans per
// thread are kept for the span file.

#ifndef SA_PERFBENCH_PERFBENCH_H_
#define SA_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sa::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      // tiny sizes: every code path, little time
  std::string spans_path;  // where a traced run writes its spans (optional)
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// What one workload run produced.  `end_to_end` is filled by untraced runs,
// `per_layer` by the traced run; `named` repeats the end-to-end numbers
// under their workload-specific names (fib_p50_ms, hi_p99_ms, ...).
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  Metrics end_to_end;
  Metrics per_layer;
  Metrics named;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
};

// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(const std::vector<double>& values);

// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb();

// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 15;

// ---- reference speed -------------------------------------------------------
//
// On a shared host the CPU speed can drift by 2x over a few seconds as other
// tenants load the cores, and repeating the work does not average that out.
// The native workloads' gated host times are therefore read at reference
// speed: each is scaled by kReferenceLoopMs over the time of a fixed
// sequential loop (fib(24), best of three) measured between solves and
// stints while the fiber pool is idle, on as many threads at once as the
// pool has workers.  The result reads as the time on a host where that loop
// takes kReferenceLoopMs; raw times are printed too, under the
// workload-specific names.  The simulated workloads report raw host times
// (see Repeat in simulated.cc).
constexpr double kReferenceLoopMs = 0.2;
// The loop's time in ms: the mean over `threads` copies run at once.
double ReferenceLoopMs(int threads);
inline double AtReferenceSpeed(double host_time, double loop_ms) {
  return host_time * kReferenceLoopMs / loop_ms;
}

// ---- spans ----------------------------------------------------------------

// Span names: one per public function wrapped, plus the benchmark's units.
enum class SpanName : uint16_t {
  kSolve,           // one fib(N) solve (fork_join op)
  kBatch,           // one null-fork batch or signal-wait batch (fiber_ops op)
  kRun,             // one simulated run (paper_nbody / multitenant op)
  kSpawnLazy,       // FiberPool::SpawnLazy
  kJoinLazy,        // FiberPool::JoinLazy (self time: inline child excluded)
  kSpawn,           // FiberPool::Spawn
  kJoin,            // FiberPool::Join
  kPost,            // FiberSemaphore::Post
  kWait,            // FiberSemaphore::Wait
  kHarnessCtor,     // rt::Harness construction
  kTryRun,          // Harness::TryRun
  kMakeReport,      // rt::MakeReport
  kGeneratorCtor,   // traffic::TrafficGenerator construction
  kQuadTreeBuild,   // apps::QuadTree::Build
  kForceOn,         // apps::QuadTree::ForceOn
  kCount,
};

const char* SpanNameString(SpanName name);

// Op ids tie the spans of one solve, batch or run together.  The op span's
// id is its op id; the fine-grained spans inside name it as their parent.
// Fibers set the op they work for explicitly (they migrate between threads).
void SetSpansEnabled(bool enabled);
bool SpansEnabled();

// Records a finished span on the calling thread's sink.  `self_ns` < 0
// means "the whole duration".
void RecordSpan(SpanName name, int64_t start, int64_t end, uint64_t parent,
                uint64_t op, int64_t self_ns = -1);

// Mean self time of a span name in ns across every thread that recorded it
// (0 if never recorded); self time is the duration minus the child spans it
// covers (see kJoinLazy).
double MeanSelfNs(SpanName name);

// Writes the kept spans as JSON lines, the host shape first.  Call only once
// every recording thread has stopped (pools destroyed).
bool WriteSpans(const std::string& path, const std::string& host_json);

// Scoped span for code that does not migrate between threads.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t parent, uint64_t op)
      : name_(name), parent_(parent), op_(op),
        start_(SpansEnabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (start_ != 0) {
      RecordSpan(name_, start_, NowNs(), parent_, op_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  uint64_t parent_;
  uint64_t op_;
  int64_t start_;
};

// ---- workloads ------------------------------------------------------------

Outcome RunForkJoin(const Options& opt);
Outcome RunFiberOps(const Options& opt);
Outcome RunPaperNBody(const Options& opt);
Outcome RunMultitenant(const Options& opt);

}  // namespace sa::perfbench

#endif  // SA_PERFBENCH_PERFBENCH_H_
