// Allocator scaling (DESIGN.md §14): wall-clock cost of one allocation
// decision as the machine and the multiprogramming level grow.
//
// The allocator is driven directly — stub SA spaces, no simulator — so the
// numbers isolate kern::ProcessorAllocator itself.  Stub spaces never start
// spans, so every storm revocation takes the synchronous idle-in-kernel path
// and a whole burst resolves before InjectRevocations returns.  Two cell
// shapes, both mixed with revocation storms (the shape that made the legacy
// rescan allocator O(free x spaces) per decision):
//   - flat: four tiers of Poisson demand churn with demands >= 1, so no
//     tier is short of processors for long and tier membership is stable
//     (lifecycle churn is the differential fuzz suite's job);
//   - tiered: a high, a mid and a saturated low tier, as in the multi-tenant
//     workload.  High and mid demands (which may be 0) churn around a fixed
//     share of the machine, shifting the low tier's pool, and low demands
//     toggle between 0 and >= 1.  The low tier splits its pool as an even
//     share plus a leftover frontier that every such op moves, the case a
//     tier refresh must handle without walking the tier.
//
// Emits BENCH_alloc_scale.json and exits non-zero unless all three gates
// hold (CI runs --smoke):
//   1. At 2048 spaces x 256 processors the incremental path's mean decision
//      cost is >= 10x below the reference-oracle (legacy full-rescan) path.
//   2. Doubling the space count at 256 processors raises the mean decision
//      cost by < 1.5x per doubling (sublinearity), in both cell shapes.
//      Series cells are timed as a min of 7 reps, interleaved across the
//      series, so drifting host load lands on both cells of a pair.
//   3. A scripted churn+storm sequence of each shape produces an identical
//      grant/revoke event sequence under both decision paths (the in-bench
//      cross-check of the differential fuzz proof in alloc_incremental_test).
//
// Usage: bench_alloc_scale [--smoke] [out.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/hw/machine.h"
#include "src/kern/address_space.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/sa_iface.h"

namespace sa {
namespace {

using AllocEvent = std::tuple<char, int, int>;  // kind ('G'/'R'), space id, cpu

// Counts grants/revocations; logs them too when the cell checks sequence
// identity.  Never starts spans, so revocations resolve synchronously.
class StubSaSpace : public kern::SaSpaceIface {
 public:
  StubSaSpace(int as_id, std::vector<AllocEvent>* log) : as_id_(as_id), log_(log) {}
  void OnProcessorGranted(hw::Processor* p) override {
    ++grants_;
    if (log_ != nullptr) {
      log_->emplace_back('G', as_id_, p->id());
    }
  }
  void OnProcessorRevoked(hw::Processor* p, kern::KThread*) override {
    ++revokes_;
    if (log_ != nullptr) {
      log_->emplace_back('R', as_id_, p == nullptr ? -1 : p->id());
    }
  }
  void OnThreadBlockedInKernel(kern::KThread*, hw::Processor*) override {}
  void OnThreadUnblockedInKernel(kern::KThread*) override {}
  void OnUpcallProcessorReady(hw::Processor*, kern::KThread*) override {}
  int OnSpaceReaped() override { return 0; }

  int64_t grants() const { return grants_; }

 private:
  int as_id_;
  std::vector<AllocEvent>* log_;
  int64_t grants_ = 0;
  int64_t revokes_ = 0;
};

enum class Shape { kFlat, kTiered };

const char* ShapeName(Shape shape) { return shape == Shape::kFlat ? "flat" : "tiered"; }

// Flat: four interleaved tiers.  Tiered: 1/16 high (2), 1/4 mid (1), the
// rest low (0), interleaved by id.
int PriorityOf(Shape shape, int i) {
  if (shape == Shape::kFlat) {
    return i % 4;
  }
  const int r = i % 16;
  return r == 0 ? 2 : r <= 4 ? 1 : 0;
}

class AllocBench {
 public:
  AllocBench(int processors, bool reference_oracle, bool keep_log)
      : machine_(processors, /*seed=*/1) {
    kern::Config config;
    config.mode = kern::KernelMode::kSchedulerActivations;
    kernel_ = std::make_unique<kern::Kernel>(&machine_, config);
    kernel_->allocator()->set_reference_oracle(reference_oracle);
    if (keep_log) {
      log_ = std::make_unique<std::vector<AllocEvent>>();
    }
  }

  kern::ProcessorAllocator* alloc() { return kernel_->allocator(); }

  void CreateSpaces(int n, Shape shape) {
    for (int i = 0; i < n; ++i) {
      kern::AddressSpace* as = kernel_->CreateAddressSpace(
          "s" + std::to_string(i), kern::AsMode::kSchedulerActivations,
          PriorityOf(shape, i));
      stubs_.push_back(std::make_unique<StubSaSpace>(as->id(), log_.get()));
      as->set_sa(stubs_.back().get());
      spaces_.push_back(as);
    }
  }

  const std::vector<kern::AddressSpace*>& spaces() const { return spaces_; }
  const std::vector<AllocEvent>& log() const { return *log_; }
  int64_t total_grants() const {
    int64_t g = 0;
    for (const auto& s : stubs_) {
      g += s->grants();
    }
    return g;
  }

 private:
  hw::Machine machine_;
  std::unique_ptr<kern::Kernel> kernel_;
  std::unique_ptr<std::vector<AllocEvent>> log_;
  std::vector<std::unique_ptr<StubSaSpace>> stubs_;
  std::vector<kern::AddressSpace*> spaces_;
};

// Knuth's Poisson sampler; fine for the small means used here.
int Poisson(common::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit);
  return k - 1;
}

// A fresh demand for space `i`.  Flat: 1 + Poisson(3).  Tiered: high and
// mid spaces draw Poisson demands (possibly 0) whose means hold the tiers at
// about 1/8 and 1/2 of the machine at any space count; low spaces want
// 1 + Poisson(1), far more than the ~3/8 of the machine left to them.
int Demand(Shape shape, common::Rng& rng, int i, int processors, int spaces) {
  if (shape == Shape::kFlat) {
    return 1 + Poisson(rng, 3.0);
  }
  switch (PriorityOf(shape, i)) {
    case 2:
      return Poisson(rng, processors / 8.0 / (spaces / 16.0));
    case 1:
      return Poisson(rng, processors / 2.0 / (spaces / 4.0));
    default:
      return 1 + Poisson(rng, 1.0);
  }
}

// One op of the shared churn script.  Identical draws in both modes, so the
// same (seed, processors, spaces) cell is directly comparable across modes
// and usable for the sequence-identity gate.  Tiered low-tier ops toggle
// the demand between 0 and a fresh draw.
void ChurnOp(AllocBench& b, Shape shape, common::Rng& script, common::Rng& storm,
             int processors) {
  const uint64_t pick = script.Below(100);
  if (pick < 88) {
    const size_t idx = static_cast<size_t>(script.Below(b.spaces().size()));
    kern::AddressSpace* as = b.spaces()[idx];
    const int spaces = static_cast<int>(b.spaces().size());
    int demand = Demand(shape, script, static_cast<int>(idx), processors, spaces);
    if (shape == Shape::kTiered && as->priority() == 0 && as->desired_processors() > 0) {
      demand = 0;
    }
    b.alloc()->SetDesired(as, demand);
  } else {
    const int burst =
        1 + static_cast<int>(script.Below(static_cast<uint64_t>(processors / 8 + 1)));
    b.alloc()->InjectRevocations(burst, storm);
  }
}

struct CellResult {
  int processors = 0;
  int spaces = 0;
  const char* mode = "incremental";
  Shape shape = Shape::kFlat;
  int ops = 0;
  int64_t decisions = 0;
  double ns_per_decision = 0.0;
};

// Times one rep of a cell: mean wall-clock ns per allocator decision over
// `ops` churn ops.  Rep r always runs script seed 42 + r.
double TimeRep(int processors, int spaces, bool reference_oracle, int ops, int rep,
               Shape shape, int64_t* decisions) {
  AllocBench b(processors, reference_oracle, /*keep_log=*/false);
  b.CreateSpaces(spaces, shape);
  common::Rng script(42 + static_cast<uint64_t>(rep));
  common::Rng storm(script.Next() ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < spaces; ++i) {
    b.alloc()->SetDesired(b.spaces()[static_cast<size_t>(i)],
                          Demand(shape, script, i, processors, spaces));
  }
  const int64_t before = b.alloc()->decisions();
  const auto t0 = std::chrono::steady_clock::now();
  for (int op = 0; op < ops; ++op) {
    ChurnOp(b, shape, script, storm, processors);
  }
  const auto t1 = std::chrono::steady_clock::now();
  *decisions = b.alloc()->decisions() - before;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         static_cast<double>(*decisions > 0 ? *decisions : 1);
}

// Times `reps` reps of one cell per entry of `spaces`, interleaved
// round-robin across the cells: host noise that comes and goes (another
// tenant, a frequency step) then lands on every cell alike instead of on
// one of them, so it cannot pass for a scaling ratio.  Each cell keeps its
// min over reps: wall-clock noise only ever adds.
std::vector<CellResult> RunCells(int processors, const std::vector<int>& spaces,
                                 bool reference_oracle, int ops, int reps, Shape shape) {
  std::vector<CellResult> cells;
  for (int n : spaces) {
    CellResult c;
    c.processors = processors;
    c.spaces = n;
    c.shape = shape;
    c.mode = reference_oracle ? "reference" : "incremental";
    c.ops = ops;
    cells.push_back(c);
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (CellResult& c : cells) {
      int64_t decisions = 0;
      const double ns =
          TimeRep(processors, c.spaces, reference_oracle, ops, rep, shape, &decisions);
      if (rep == 0 || ns < c.ns_per_decision) {
        c.ns_per_decision = ns;
        c.decisions = decisions;
      }
    }
  }
  return cells;
}

CellResult RunCell(int processors, int spaces, bool reference_oracle, int ops,
                   int reps, Shape shape = Shape::kFlat) {
  return RunCells(processors, {spaces}, reference_oracle, ops, reps, shape).front();
}

// Replays one scripted cell under both decision paths and compares the full
// grant/revoke event sequences and the final targets.
bool GrantSequencesIdentical(int processors, int spaces, int ops, Shape shape) {
  AllocBench inc(processors, /*reference_oracle=*/false, /*keep_log=*/true);
  AllocBench ref(processors, /*reference_oracle=*/true, /*keep_log=*/true);
  inc.CreateSpaces(spaces, shape);
  ref.CreateSpaces(spaces, shape);
  common::Rng script_inc(7), script_ref(7);
  common::Rng storm_inc(99), storm_ref(99);
  for (int i = 0; i < spaces; ++i) {
    const int demand = Demand(shape, script_inc, i, processors, spaces);
    Demand(shape, script_ref, i, processors, spaces);  // keep the paired stream aligned
    inc.alloc()->SetDesired(inc.spaces()[static_cast<size_t>(i)], demand);
    ref.alloc()->SetDesired(ref.spaces()[static_cast<size_t>(i)], demand);
  }
  for (int op = 0; op < ops; ++op) {
    ChurnOp(inc, shape, script_inc, storm_inc, processors);
    ChurnOp(ref, shape, script_ref, storm_ref, processors);
  }
  return inc.log() == ref.log() &&
         inc.alloc()->ComputeTargets() == ref.alloc()->ComputeTargets();
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<CellResult>& cells,
               const std::vector<CellResult>& series,
               const std::vector<double>& ratios,
               const std::vector<CellResult>& tiered,
               const std::vector<double>& tiered_ratios, const CellResult& gate_inc,
               const CellResult& gate_ref, double speedup, bool identical,
               bool ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_alloc_scale: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"alloc_scale\",\n  \"build_type\": \"%s\",\n"
               "  \"smoke\": %s,\n  \"machine_cap\": 512,\n  \"cells\": [\n",
               bench::kBuildType, smoke ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"processors\": %d, \"spaces\": %d, \"mode\": \"%s\", "
                 "\"ops\": %d, \"decisions\": %lld, \"ns_per_decision\": %.1f}%s\n",
                 c.processors, c.spaces, c.mode, c.ops,
                 static_cast<long long>(c.decisions), c.ns_per_decision,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"doubling_series\": {\"processors\": %d, \"cells\": [\n",
               series.empty() ? 0 : series.front().processors);
  for (size_t i = 0; i < series.size(); ++i) {
    std::fprintf(f, "    {\"spaces\": %d, \"ns_per_decision\": %.1f}%s\n",
                 series[i].spaces, series[i].ns_per_decision,
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ], \"ratios\": [");
  for (size_t i = 0; i < ratios.size(); ++i) {
    std::fprintf(f, "%.3f%s", ratios[i], i + 1 < ratios.size() ? ", " : "");
  }
  std::fprintf(f, "]},\n  \"tiered_series\": {\"processors\": %d, \"cells\": [\n",
               tiered.empty() ? 0 : tiered.front().processors);
  for (size_t i = 0; i < tiered.size(); ++i) {
    std::fprintf(f, "    {\"spaces\": %d, \"ns_per_decision\": %.1f}%s\n",
                 tiered[i].spaces, tiered[i].ns_per_decision,
                 i + 1 < tiered.size() ? "," : "");
  }
  std::fprintf(f, "  ], \"ratios\": [");
  for (size_t i = 0; i < tiered_ratios.size(); ++i) {
    std::fprintf(f, "%.3f%s", tiered_ratios[i], i + 1 < tiered_ratios.size() ? ", " : "");
  }
  std::fprintf(f,
               "]},\n  \"reference_gate\": {\"processors\": %d, \"spaces\": %d, "
               "\"incremental_ns\": %.1f, \"reference_ns\": %.1f, "
               "\"speedup\": %.1f},\n"
               "  \"grant_sequence_identical\": %s,\n  \"gates_passed\": %s\n}\n",
               gate_inc.processors, gate_inc.spaces, gate_inc.ns_per_decision,
               gate_ref.ns_per_decision, speedup, identical ? "true" : "false",
               ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_alloc_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  sa::bench::WarnIfDebugBuild("bench_alloc_scale");
  if (sa::bench::RefuseDebugRecord("bench_alloc_scale", argc, argv)) {
    return 2;
  }

  const int ops = smoke ? 3000 : 6000;
  const int reps = smoke ? 2 : 3;
  // The doubling gate compares 1-2 us cells against a 1.5x bound, so its
  // series takes more reps than the survey, interleaved across its cells.
  const int series_reps = 7;
  std::printf("Allocator scaling: Poisson demand churn + revocation storms, "
              "%d ops/cell, min of %d reps (doubling series: %d, interleaved)%s\n\n",
              ops, reps, series_reps, smoke ? " (smoke)" : "");

  // Survey grid (incremental path): machine sizes up to the new 512 cap,
  // multiprogramming up to 4096 spaces.
  std::vector<sa::CellResult> cells;
  if (!smoke) {
    for (int processors : {6, 64, 256, 512}) {
      for (int spaces : {8, 128, 2048, 4096}) {
        cells.push_back(sa::RunCell(processors, spaces, false, ops, reps));
      }
    }
  }

  // Sublinearity series: 256 processors, spaces doubling, in both shapes.
  const std::vector<int> series_spaces =
      smoke ? std::vector<int>{1024, 2048}
            : std::vector<int>{256, 512, 1024, 2048, 4096};
  auto run_series = [&](sa::Shape shape, std::vector<sa::CellResult>* series,
                        std::vector<double>* ratios) {
    *series = sa::RunCells(256, series_spaces, /*reference_oracle=*/false, ops, series_reps,
                           shape);
    for (size_t i = 1; i < series->size(); ++i) {
      ratios->push_back((*series)[i].ns_per_decision / (*series)[i - 1].ns_per_decision);
    }
  };
  std::vector<sa::CellResult> series;
  std::vector<double> ratios;
  run_series(sa::Shape::kFlat, &series, &ratios);
  std::vector<sa::CellResult> tiered;
  std::vector<double> tiered_ratios;
  run_series(sa::Shape::kTiered, &tiered, &tiered_ratios);

  // Reference gate cell: the legacy full-rescan path on the same script.
  const sa::CellResult gate_inc = sa::RunCell(256, 2048, false, ops, reps);
  const sa::CellResult gate_ref =
      sa::RunCell(256, 2048, true, smoke ? 800 : 1500, 1);
  const double speedup = gate_ref.ns_per_decision /
                         (gate_inc.ns_per_decision > 0.0 ? gate_inc.ns_per_decision : 1.0);

  const bool identical =
      sa::GrantSequencesIdentical(64, 256, smoke ? 500 : 1500, sa::Shape::kFlat) &&
      sa::GrantSequencesIdentical(64, 256, smoke ? 500 : 1500, sa::Shape::kTiered);

  sa::common::Table t({"processors", "spaces", "mode", "ns/decision"});
  for (const sa::CellResult& c : cells) {
    t.AddRow({sa::common::Table::Num(c.processors), sa::common::Table::Num(c.spaces),
              c.mode, sa::common::Table::Num(c.ns_per_decision, 1)});
  }
  for (const std::vector<sa::CellResult>* s : {&series, &tiered}) {
    for (const sa::CellResult& c : *s) {
      t.AddRow({sa::common::Table::Num(c.processors), sa::common::Table::Num(c.spaces),
                std::string("incremental (") + sa::ShapeName(c.shape) + " series)",
                sa::common::Table::Num(c.ns_per_decision, 1)});
    }
  }
  t.AddRow({sa::common::Table::Num(gate_ref.processors),
            sa::common::Table::Num(gate_ref.spaces), "reference",
            sa::common::Table::Num(gate_ref.ns_per_decision, 1)});
  t.Print();
  std::printf("\nreference/incremental speedup at 2048x256: %.1fx\n", speedup);

  // Gates.
  bool ok = true;
  if (speedup < 10.0) {
    std::printf("FAIL: incremental path only %.1fx faster than the reference "
                "oracle at 2048 spaces x 256 processors (need >= 10x)\n",
                speedup);
    ok = false;
  }
  for (const auto& [s, r] : {std::pair{&series, &ratios}, std::pair{&tiered, &tiered_ratios}}) {
    for (size_t i = 0; i < r->size(); ++i) {
      if ((*r)[i] >= 1.5) {
        std::printf("FAIL: %s cells: doubling spaces %d -> %d raised decision cost "
                    "%.2fx (need < 1.5x)\n",
                    sa::ShapeName((*s)[i].shape), (*s)[i].spaces, (*s)[i + 1].spaces,
                    (*r)[i]);
        ok = false;
      }
    }
  }
  if (!identical) {
    std::printf("FAIL: incremental and reference grant/revoke sequences "
                "diverged on a scripted cell\n");
    ok = false;
  }
  if (ok) {
    std::printf("gates passed: >= 10x vs reference at 2048x256, < 1.5x per "
                "space doubling (flat and tiered), grant sequences identical\n");
  }

  sa::WriteJson(out_path, smoke, cells, series, ratios, tiered, tiered_ratios, gate_inc,
                gate_ref,
                speedup, identical, ok);
  return ok ? 0 : 1;
}
