#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"

namespace sa::perfbench {

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) { return Percentile(values, 50.0); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

namespace {
int64_t __attribute__((noinline)) ReferenceFib(int n) {
  return n < 2 ? n : ReferenceFib(n - 1) + ReferenceFib(n - 2);
}

double OneReferenceLoopMs() {
  double best = 0;
  for (int i = 0; i < 3; ++i) {
    volatile int n = 24;  // opaque, so no call is folded away
    const int64_t t0 = NowNs();
    volatile int64_t sink = ReferenceFib(n);
    (void)sink;
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    best = i == 0 ? ms : std::min(best, ms);
  }
  return best;
}
}  // namespace

double ReferenceLoopMs(int threads) {
  if (threads <= 1) {
    return OneReferenceLoopMs();
  }
  std::vector<double> ms(static_cast<size_t>(threads));
  std::vector<std::thread> loops;
  for (size_t i = 0; i < ms.size(); ++i) {
    loops.emplace_back([&ms, i] { ms[i] = OneReferenceLoopMs(); });
  }
  for (std::thread& t : loops) {
    t.join();
  }
  double sum = 0;
  for (double v : ms) {
    sum += v;
  }
  return sum / static_cast<double>(ms.size());
}

// ---- spans ----------------------------------------------------------------

namespace {

constexpr size_t kMaxStoredSpans = 1u << 15;  // per thread

struct SpanTotals {
  uint64_t count = 0;
  int64_t self_ns = 0;
};

struct StoredSpan {
  SpanName name;
  int64_t start;
  int64_t end;
  uint64_t parent;
  uint64_t op;
};

// One per recording thread; owned by the registry so worker threads may
// exit (their pool destroyed) before the totals are read.
struct Sink {
  SpanTotals totals[static_cast<size_t>(SpanName::kCount)];
  std::vector<StoredSpan> spans;
};

std::mutex g_sinks_mu;
std::vector<std::unique_ptr<Sink>> g_sinks;  // guarded by g_sinks_mu
bool g_enabled = false;  // set before any recording thread starts

thread_local Sink* t_sink = nullptr;

// Not inlined: a fiber that blocked may resume on another thread, and the
// compiler must not reuse a thread_local address computed before the switch.
__attribute__((noinline)) Sink* CurrentSink() {
  if (t_sink == nullptr) {
    auto sink = std::make_unique<Sink>();
    sink->spans.reserve(1024);
    t_sink = sink.get();
    std::lock_guard<std::mutex> lock(g_sinks_mu);
    g_sinks.push_back(std::move(sink));
  }
  return t_sink;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSolve: return "solve";
    case SpanName::kBatch: return "batch";
    case SpanName::kRun: return "run";
    case SpanName::kSpawnLazy: return "FiberPool::SpawnLazy";
    case SpanName::kJoinLazy: return "FiberPool::JoinLazy";
    case SpanName::kSpawn: return "FiberPool::Spawn";
    case SpanName::kJoin: return "FiberPool::Join";
    case SpanName::kPost: return "FiberSemaphore::Post";
    case SpanName::kWait: return "FiberSemaphore::Wait";
    case SpanName::kHarnessCtor: return "rt::Harness::Harness";
    case SpanName::kTryRun: return "rt::Harness::TryRun";
    case SpanName::kMakeReport: return "rt::MakeReport";
    case SpanName::kGeneratorCtor: return "traffic::TrafficGenerator::TrafficGenerator";
    case SpanName::kQuadTreeBuild: return "apps::QuadTree::Build";
    case SpanName::kForceOn: return "apps::QuadTree::ForceOn";
    case SpanName::kCount: break;
  }
  return "?";
}

void SetSpansEnabled(bool enabled) { g_enabled = enabled; }
bool SpansEnabled() { return g_enabled; }

void RecordSpan(SpanName name, int64_t start, int64_t end, uint64_t parent,
                uint64_t op, int64_t self_ns) {
  Sink* sink = CurrentSink();
  SpanTotals& t = sink->totals[static_cast<size_t>(name)];
  ++t.count;
  t.self_ns += self_ns < 0 ? end - start : self_ns;
  if (sink->spans.size() < kMaxStoredSpans) {
    sink->spans.push_back(StoredSpan{name, start, end, parent, op});
  }
}

double MeanSelfNs(SpanName name) {
  SpanTotals sum;
  std::lock_guard<std::mutex> lock(g_sinks_mu);
  for (const auto& sink : g_sinks) {
    sum.count += sink->totals[static_cast<size_t>(name)].count;
    sum.self_ns += sink->totals[static_cast<size_t>(name)].self_ns;
  }
  return sum.count == 0 ? 0.0
                        : static_cast<double>(sum.self_ns) / static_cast<double>(sum.count);
}

bool WriteSpans(const std::string& path, const std::string& host_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%s\n", host_json.c_str());
  std::lock_guard<std::mutex> lock(g_sinks_mu);
  for (size_t thread = 0; thread < g_sinks.size(); ++thread) {
    for (const StoredSpan& s : g_sinks[thread]->spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %llu, \"op\": %llu, \"thread\": %zu}\n",
                   SpanNameString(s.name), static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), thread);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace sa::perfbench
