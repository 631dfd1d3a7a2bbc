// Incremental processor allocation (DESIGN.md §14).
//
// The allocator's incremental decision structures (tier Fenwick aggregates,
// deficit heap, surplus index) must be *policy-invisible*: every target,
// every grant, and every revocation must be exactly what the legacy
// full-rescan implementation — preserved as ComputeTargetsReference() and,
// behind set_reference_oracle(), as a complete decision path — would have
// produced.  This file proves that three ways:
//
//   1. Differential fuzzing: >= 10,000 randomized demand/priority/churn/
//      storm/release sequences driven against a paired incremental and
//      reference-oracle kernel, comparing targets, holdings, the free pool,
//      and the full grant/revoke event order after every operation.
//   2. In-place oracle checks: the incremental kernel's cached targets are
//      also compared against its own ComputeTargetsReference() rescan.
//   3. Zero-perturbation byte-identity: a seeded SA-protocol workload, a
//      seeded revocation-storm (fuzz-style) workload and a seeded three-tier
//      traffic run produce byte-identical traces under the incremental and
//      the reference-oracle policies.
//
// A work bound rides along: under a saturated low tier, a tier refresh must
// touch about as many members as it changes targets for.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/inject/fault_plan.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/sa_iface.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/trace.h"
#include "src/traffic/traffic.h"
#include "src/ult/ult_runtime.h"

namespace sa::kern {
namespace {

// ---------------------------------------------------------------------------
// Stub-driven allocator harness.
//
// Stub SA hooks log every grant and revocation; because stub spaces never
// start spans, every revocation takes the synchronous idle-in-kernel fast
// path, so a whole storm/rebalance resolves before the injection call
// returns — ideal for lockstep differential comparison.
// ---------------------------------------------------------------------------

using AllocEvent = std::tuple<char, int, int>;  // kind ('G'/'R'), space id, cpu

class LoggingSaSpace : public SaSpaceIface {
 public:
  LoggingSaSpace(int as_id, std::vector<AllocEvent>* log) : as_id_(as_id), log_(log) {}
  void OnProcessorGranted(hw::Processor* p) override {
    log_->emplace_back('G', as_id_, p->id());
  }
  void OnProcessorRevoked(hw::Processor* p, KThread*) override {
    log_->emplace_back('R', as_id_, p == nullptr ? -1 : p->id());
  }
  void OnThreadBlockedInKernel(KThread*, hw::Processor*) override {}
  void OnThreadUnblockedInKernel(KThread*) override {}
  void OnUpcallProcessorReady(hw::Processor*, KThread*) override {}
  int OnSpaceReaped() override { return 0; }

 private:
  int as_id_;
  std::vector<AllocEvent>* log_;
};

class AllocDriver {
 public:
  AllocDriver(int processors, bool reference_oracle) : machine_(processors, 1) {
    Config config;
    config.mode = KernelMode::kSchedulerActivations;
    kernel_ = std::make_unique<Kernel>(&machine_, config);
    kernel_->allocator()->set_reference_oracle(reference_oracle);
  }

  ProcessorAllocator* alloc() { return kernel_->allocator(); }

  AddressSpace* CreateSpace(int priority) {
    AddressSpace* as = kernel_->CreateAddressSpace(
        "s" + std::to_string(live_.size()), AsMode::kSchedulerActivations, priority);
    stubs_.push_back(std::make_unique<LoggingSaSpace>(as->id(), &log_));
    as->set_sa(stubs_.back().get());
    live_.push_back(as);
    return as;
  }

  // Emulates the reaper's teardown: demand to zero, idle processors
  // detached through OnRevokeComplete, then the registration dropped.
  void ReleaseSpace(size_t idx) {
    AddressSpace* as = live_[idx];
    alloc()->SetDesired(as, 0);
    std::vector<hw::Processor*> held(as->assigned());
    for (hw::Processor* proc : held) {
      if (!as->IsAssigned(proc)) {
        continue;  // reclaimed by a reentrant rebalance
      }
      kernel_->UnassignProcessor(proc);
      alloc()->OnRevokeComplete(as, proc);
    }
    alloc()->ReleaseSpace(as);
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(idx));
  }

  const std::vector<AddressSpace*>& live() const { return live_; }
  const std::vector<AllocEvent>& log() const { return log_; }

  std::vector<int> AssignedIds() const {
    std::vector<int> out;
    for (const AddressSpace* as : live_) {
      out.push_back(as->id());
      for (const hw::Processor* p : as->assigned()) {
        out.push_back(p->id());
      }
      out.push_back(-1);
    }
    return out;
  }

 private:
  hw::Machine machine_;
  std::unique_ptr<Kernel> kernel_;
  std::vector<std::unique_ptr<LoggingSaSpace>> stubs_;
  std::vector<AddressSpace*> live_;
  std::vector<AllocEvent> log_;
};

// The two kernels of a differential pair must agree on targets, holdings
// (including grant order), free-pool size, and the entire grant/revoke event
// history; the incremental kernel's cached targets must also match its own
// full rescan.
void ExpectLockstep(AllocDriver& inc, AllocDriver& ref, uint64_t seed, int op) {
  const std::vector<int> t_inc = inc.alloc()->ComputeTargets();
  const std::vector<int> t_ref = ref.alloc()->ComputeTargets();
  ASSERT_EQ(t_inc, t_ref) << "targets diverged (seed " << seed << ", op " << op << ")";
  ASSERT_EQ(t_inc, inc.alloc()->ComputeTargetsReference())
      << "cached targets disagree with the in-place rescan (seed " << seed
      << ", op " << op << ")";
  ASSERT_EQ(inc.alloc()->num_free(), ref.alloc()->num_free())
      << "free pool diverged (seed " << seed << ", op " << op << ")";
  ASSERT_EQ(inc.AssignedIds(), ref.AssignedIds())
      << "holdings diverged (seed " << seed << ", op " << op << ")";
  ASSERT_EQ(inc.log(), ref.log())
      << "grant/revoke order diverged (seed " << seed << ", op " << op << ")";
}

// One randomized sequence, mirrored op-for-op onto an incremental and a
// reference-oracle kernel.  After every operation the two must agree on
// targets, holdings (including grant order), free-pool size, and the entire
// grant/revoke event history; the incremental kernel's cached targets must
// also match its own full rescan.
void RunDifferentialSequence(uint64_t seed, int processors, int max_spaces, int ops) {
  AllocDriver inc(processors, /*reference_oracle=*/false);
  AllocDriver ref(processors, /*reference_oracle=*/true);
  common::Rng script(seed);
  common::Rng storm_inc(seed ^ 0x9e3779b97f4a7c15ull);
  common::Rng storm_ref(seed ^ 0x9e3779b97f4a7c15ull);

  const int initial = 1 + static_cast<int>(script.Below(3));
  for (int i = 0; i < initial; ++i) {
    const int prio = static_cast<int>(script.Below(4));
    inc.CreateSpace(prio);
    ref.CreateSpace(prio);
  }

  for (int op = 0; op < ops; ++op) {
    const uint64_t pick = script.Below(100);
    if (pick < 12 && static_cast<int>(inc.live().size()) < max_spaces) {
      const int prio = static_cast<int>(script.Below(4));
      inc.CreateSpace(prio);
      ref.CreateSpace(prio);
    } else if (pick < 60 && !inc.live().empty()) {
      const size_t idx = static_cast<size_t>(script.Below(inc.live().size()));
      const int demand = static_cast<int>(script.Below(2 * static_cast<uint64_t>(processors) + 2));
      inc.alloc()->SetDesired(inc.live()[idx], demand);
      ref.alloc()->SetDesired(ref.live()[idx], demand);
    } else if (pick < 80) {
      const int burst = 1 + static_cast<int>(script.Below(static_cast<uint64_t>(processors)));
      inc.alloc()->InjectRevocations(burst, storm_inc);
      ref.alloc()->InjectRevocations(burst, storm_ref);
    } else if (pick < 90) {
      inc.alloc()->Rebalance();
      ref.alloc()->Rebalance();
    } else if (inc.live().size() > 1) {
      const size_t idx = static_cast<size_t>(script.Below(inc.live().size()));
      inc.ReleaseSpace(idx);
      ref.ReleaseSpace(idx);
    }

    ExpectLockstep(inc, ref, seed, op);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(AllocDifferentialFuzz, TenThousandSmallSequences) {
  // Small machines, few spaces, short scripts: maximum sequence diversity.
  for (uint64_t seed = 1; seed <= 10000; ++seed) {
    const int processors = 2 + static_cast<int>(seed % 7);
    RunDifferentialSequence(seed, processors, /*max_spaces=*/8, /*ops=*/14);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(AllocDifferentialFuzz, DeepSequencesOnLargerMachines) {
  // Fewer seeds, but bigger machines, more spaces, and longer scripts so
  // multi-tier water-fills, deep storms, and release churn interleave.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const int processors = 16 + static_cast<int>(seed % 4) * 16;  // 16..64
    RunDifferentialSequence(seed * 31 + 7, processors, /*max_spaces=*/40, /*ops=*/60);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A tiered-saturation sequence: three tiers, the lowest offered more demand
// than the processors left to it, so its members split a small pool and a
// leftover frontier.  The ops are the ones that move a tier's summary
// without moving its share: higher-tier demand churn (shifts the lower
// tiers' pools), demands set near the capping threshold (crossings), low-tier
// 0<->k toggles, and mid-tier releases, with creations and storms mixed in.
void RunTieredSaturationSequence(uint64_t seed, int processors, int ops) {
  AllocDriver inc(processors, /*reference_oracle=*/false);
  AllocDriver ref(processors, /*reference_oracle=*/true);
  common::Rng script(seed);
  common::Rng storm_inc(seed ^ 0x9e3779b97f4a7c15ull);
  common::Rng storm_ref(seed ^ 0x9e3779b97f4a7c15ull);
  auto set = [&](size_t idx, int demand) {
    inc.alloc()->SetDesired(inc.live()[idx], demand);
    ref.alloc()->SetDesired(ref.live()[idx], demand);
  };
  auto create = [&](int priority, int demand) {
    inc.CreateSpace(priority);
    ref.CreateSpace(priority);
    set(inc.live().size() - 1, demand);
  };
  // A random live space of the given tier, or -1.
  auto pick_in = [&](int priority) -> int {
    std::vector<int> idx;
    for (size_t i = 0; i < inc.live().size(); ++i) {
      if (inc.live()[i]->priority() == priority) {
        idx.push_back(static_cast<int>(i));
      }
    }
    return idx.empty() ? -1 : idx[static_cast<size_t>(script.Below(idx.size()))];
  };
  for (int i = 0; i < 1 + processors / 16; ++i) {
    create(2, 1 + static_cast<int>(script.Below(2)));
  }
  for (int i = 0; i < processors / 4; ++i) {
    create(1, 1 + static_cast<int>(script.Below(4)));
  }
  for (int i = 0; i < processors + processors / 2; ++i) {
    create(0, 1 + static_cast<int>(script.Below(3)));
  }
  ExpectLockstep(inc, ref, seed, -1);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  for (int op = 0; op < ops; ++op) {
    const uint64_t pick = script.Below(100);
    if (pick < 30) {
      // Higher-tier churn by a step of 1..2.
      const int i = pick_in(1 + static_cast<int>(script.Below(2)));
      if (i >= 0) {
        const int d = inc.live()[static_cast<size_t>(i)]->desired_processors();
        const int step = 1 + static_cast<int>(script.Below(2));
        set(static_cast<size_t>(i), script.Below(2) == 0 ? d + step : std::max(0, d - step));
      }
    } else if (pick < 50) {
      // A mid or low demand set near the small shares those tiers split.
      const int i = pick_in(static_cast<int>(script.Below(2)));
      if (i >= 0) {
        set(static_cast<size_t>(i), static_cast<int>(script.Below(8)));
      }
    } else if (pick < 75) {
      const int i = pick_in(0);
      if (i >= 0) {
        const int d = inc.live()[static_cast<size_t>(i)]->desired_processors();
        set(static_cast<size_t>(i), d == 0 ? 1 + static_cast<int>(script.Below(3)) : 0);
      }
    } else if (pick < 85) {
      const int i = pick_in(1);
      if (i >= 0) {
        inc.ReleaseSpace(static_cast<size_t>(i));
        ref.ReleaseSpace(static_cast<size_t>(i));
      }
    } else if (pick < 93) {
      const int priority = static_cast<int>(script.Below(3));
      create(priority, static_cast<int>(script.Below(5)));
    } else {
      const int burst =
          1 + static_cast<int>(script.Below(static_cast<uint64_t>(processors / 4)));
      inc.alloc()->InjectRevocations(burst, storm_inc);
      ref.alloc()->InjectRevocations(burst, storm_ref);
    }
    ExpectLockstep(inc, ref, seed, op);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(AllocDifferentialFuzz, TieredSaturationSequences) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    const int processors = 16 + static_cast<int>(seed % 4) * 16;  // 16..64
    RunTieredSaturationSequence(seed * 131 + 3, processors, /*ops=*/80);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Targeted incremental-structure regressions.
// ---------------------------------------------------------------------------

TEST(AllocIncremental, GrantsBreakTiesByLowestId) {
  // Three equally needy spaces: the deficit heap must reproduce the legacy
  // scan's lowest-id-first tie-break.
  AllocDriver d(3, /*reference_oracle=*/false);
  AddressSpace* a = d.CreateSpace(0);
  AddressSpace* b = d.CreateSpace(0);
  AddressSpace* c = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 1);
  d.alloc()->SetDesired(b, 1);
  d.alloc()->SetDesired(c, 1);
  const std::vector<AllocEvent> expected = {
      {'G', a->id(), 2}, {'G', b->id(), 1}, {'G', c->id(), 0}};
  EXPECT_EQ(d.log(), expected);
}

TEST(AllocIncremental, ReleasePreservesIdOrderedPolicy) {
  // Swap-removal in the dense registry must not leak into policy order:
  // after releasing a middle space, leftovers still distribute by id.
  AllocDriver d(6, /*reference_oracle=*/false);
  d.CreateSpace(0);
  for (int i = 0; i < 4; ++i) {
    d.CreateSpace(0);
  }
  for (AddressSpace* as : d.live()) {
    d.alloc()->SetDesired(as, 6);
  }
  d.ReleaseSpace(1);  // spaces 0,2,3,4 remain; dense registry is now shuffled
  ASSERT_EQ(d.live().size(), 4u);
  // 6 processors over 4 eager spaces: 2,2,1,1 by ascending id.
  std::vector<std::pair<int, int>> got;  // (id, target)
  const std::vector<int> targets = d.alloc()->ComputeTargets();
  const auto& spaces = d.alloc()->spaces();
  for (size_t i = 0; i < spaces.size(); ++i) {
    got.emplace_back(spaces[i]->id(), targets[i]);
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<int, int>> expected = {{0, 2}, {2, 2}, {3, 1}, {4, 1}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(targets, d.alloc()->ComputeTargetsReference());
}

TEST(AllocIncremental, RevokeCompletionForReleasedSpaceIsTolerated) {
  AllocDriver d(2, /*reference_oracle=*/false);
  AddressSpace* a = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 2);
  ASSERT_EQ(a->assigned().size(), 2u);
  d.ReleaseSpace(0);
  EXPECT_FALSE(d.alloc()->IsRegistered(a));
  EXPECT_EQ(d.alloc()->num_free(), 2);
  // A straggling completion for the dead space must not underflow anything.
  common::Rng rng(1);
  EXPECT_EQ(d.alloc()->InjectRevocations(1, rng), 0);
}

TEST(AllocIncremental, StatsSurviveTheFieldMigration) {
  // stats_for() reads through the new per-space fields.
  AllocDriver d(2, /*reference_oracle=*/false);
  AddressSpace* a = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 1);
  common::Rng rng(5);
  ASSERT_EQ(d.alloc()->InjectRevocations(1, rng), 1);
  const auto stats = d.alloc()->stats_for(a);
  EXPECT_EQ(stats.warm_grants, 1);  // regrant of its own processor
  EXPECT_EQ(stats.cold_grants, 1);  // the boot grant
}

TEST(AllocIncremental, CompactionKeepsTheLeftoverFrontier) {
  // Released members leave holes in their tier's id-ordered slots; once
  // holes are the majority the tier renumbers, and the leftover frontier
  // must move with the members.  Zero-demand fillers make the holes without
  // moving the share, so the next refresh relies on the stored frontier.
  AllocDriver d(20, /*reference_oracle=*/false);
  for (int i = 0; i < 16; ++i) {
    d.CreateSpace(0);
  }
  std::vector<AddressSpace*> eager;
  for (int i = 0; i < 12; ++i) {
    eager.push_back(d.CreateSpace(0));
    d.alloc()->SetDesired(eager.back(), 100);  // 12 over 20: share 1, leftover 8
  }
  for (int i = 0; i < 15; ++i) {
    d.ReleaseSpace(0);  // the fillers, lowest id first
  }
  d.alloc()->SetDesired(eager.back(), 0);  // leftover 9: the 9th eager gains one
  EXPECT_EQ(d.alloc()->ComputeTargets(), d.alloc()->ComputeTargetsReference());
  EXPECT_EQ(eager[8]->alloc_state().target, 2);
}

// The refresh work bound.  Three tiers (64/256/704 spaces on 512
// processors) with the low tier saturated: 192 processors left for 704
// members, an even share of 0 and a leftover frontier.  A step of one
// hi-tier demand shifts the low tier's pool by one; a low-tier 0<->1 toggle
// shifts its uncapped ranks.  Either moves one or two targets, so a refresh
// may touch only a few members beyond the targets it changes — not the tier.
TEST(AllocIncremental, TieredRefreshTouchesOnlyMovingTargets) {
  AllocDriver d(512, /*reference_oracle=*/false);
  std::vector<AddressSpace*> hi, low;
  for (int i = 0; i < 64; ++i) {
    hi.push_back(d.CreateSpace(2));
  }
  for (int i = 0; i < 256; ++i) {
    d.alloc()->SetDesired(d.CreateSpace(1), 1);
  }
  for (int i = 0; i < 704; ++i) {
    low.push_back(d.CreateSpace(0));
  }
  for (AddressSpace* as : hi) {
    d.alloc()->SetDesired(as, 1);
  }
  for (AddressSpace* as : low) {
    d.alloc()->SetDesired(as, 1);
  }
  common::Rng rng(17);
  std::vector<int> before = d.alloc()->ComputeTargets();
  int64_t touched_total = 0;
  int64_t changed_total = 0;
  for (int op = 0; op < 400; ++op) {
    const int64_t touched0 = d.alloc()->members_touched();
    if (op % 2 == 0) {
      AddressSpace* as = hi[static_cast<size_t>(rng.Below(hi.size()))];
      d.alloc()->SetDesired(as, as->desired_processors() == 1 ? 2 : 1);
    } else {
      AddressSpace* as = low[static_cast<size_t>(rng.Below(low.size()))];
      d.alloc()->SetDesired(as, as->desired_processors() == 0 ? 1 : 0);
    }
    const int64_t touched = d.alloc()->members_touched() - touched0;
    const std::vector<int> after = d.alloc()->ComputeTargets();
    int changed = 0;
    for (size_t i = 0; i < after.size(); ++i) {
      changed += after[i] != before[i] ? 1 : 0;
    }
    ASSERT_LE(touched, 4 + changed) << "op " << op << ": touched " << touched
                                    << " members for " << changed << " target changes";
    touched_total += touched;
    changed_total += changed;
    before = after;
  }
  EXPECT_GT(changed_total, 0);
  EXPECT_LE(touched_total, 4 * 400 + changed_total);
}

// ---------------------------------------------------------------------------
// Zero-perturbation byte-identity on seeded end-to-end traces.
// ---------------------------------------------------------------------------

std::vector<trace::Record> RunSeededWorkload(bool reference_oracle, bool storm) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 11;
  config.kernel.mode = KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.kernel().allocator()->set_reference_oracle(reference_oracle);
  h.EnableTracing(trace::cat::kAll);
  if (storm) {
    inject::FaultPlan plan;
    plan.seed = 7;
    plan.storm_period = sim::Msec(1);
    plan.storm_burst = 2;
    h.EnableFaultInjection(plan);
  }
  // Two SA runtimes and a kernel-thread runtime compete for processors, so
  // demand shifts exercise multi-space rebalances throughout the run.
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  ult::UltRuntime sa1(&h.kernel(), "sa1", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime sa2(&h.kernel(), "sa2", ult::BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&sa1);
  h.AddRuntime(&sa2);
  h.AddRuntime(&kt);
  // Periodic daemon preemptions keep processors churning through the
  // allocator (and redispatch any kernel thread parked by a revocation).
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
    sa2.Spawn(body, "b" + std::to_string(i));
    if (i % 2 == 0) {
      kt.Spawn(body, "k" + std::to_string(i));
    }
  }
  h.Run();
  return h.trace()->Snapshot();
}

void ExpectByteIdentical(const std::vector<trace::Record>& base,
                         const std::vector<trace::Record>& other) {
#if SA_TRACE_ENABLED
  ASSERT_GT(base.size(), 0u);
#endif
  ASSERT_EQ(base.size(), other.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const trace::Record& a = base[i];
    const trace::Record& b = other[i];
    const bool same = a.ts == b.ts && a.cpu == b.cpu && a.as_id == b.as_id &&
                      a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1;
    ASSERT_TRUE(same) << "trace diverged at record " << i << ": t=" << a.ts
                      << " vs t=" << b.ts << ", kind " << a.kind << " vs "
                      << b.kind;
  }
}

TEST(AllocZeroPerturbation, SaProtocolTraceIsByteIdentical) {
  const auto reference = RunSeededWorkload(/*reference_oracle=*/true, /*storm=*/false);
  const auto incremental = RunSeededWorkload(/*reference_oracle=*/false, /*storm=*/false);
  ExpectByteIdentical(reference, incremental);
}

TEST(AllocZeroPerturbation, RevocationStormTraceIsByteIdentical) {
  const auto reference = RunSeededWorkload(/*reference_oracle=*/true, /*storm=*/true);
  const auto incremental = RunSeededWorkload(/*reference_oracle=*/false, /*storm=*/true);
  ExpectByteIdentical(reference, incremental);
}

// A three-tier open-loop traffic run on 64 processors and 64 tenants (the
// multi-tenant benchmark's tier mix, scaled down): the allocator's tiered
// refresh paths under real kernel scheduling.
std::vector<trace::Record> RunTieredTraffic(bool reference_oracle) {
  rt::HarnessConfig config;
  config.processors = 64;
  config.seed = 5;
  config.kernel.mode = KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.kernel().allocator()->set_reference_oracle(reference_oracle);
  h.EnableTracing(trace::cat::kAll, 1u << 20);
  traffic::TrafficConfig tc;
  tc.seed = 5;
  tc.horizon = sim::Msec(60);
  tc.drain = sim::Msec(40);
  const int tiers[3][2] = {{2, 4}, {1, 16}, {0, 44}};  // (priority, tenants)
  for (const auto& [priority, count] : tiers) {
    for (int i = 0; i < count; ++i) {
      traffic::TenantSpec t;
      t.name = "t" + std::to_string(priority) + "_" + std::to_string(i);
      t.priority = priority;
      const double service_s = priority == 2 ? 0.001 : priority == 1 ? 0.005 : 0.010;
      const double load = priority == 2 ? 0.05 : priority == 1 ? 0.3 : 1.5;  // x machine
      t.arrivals.rate = priority == 2 ? 50.0 : load * 64 / (count * service_s);
      t.mix = {traffic::RequestClass{"req", 1.0,
                                     sim::Usec(static_cast<int64_t>(service_s * 1e6)),
                                     priority == 2 ? traffic::RequestClass::Dist::kExponential
                                                   : traffic::RequestClass::Dist::kFixed,
                                     priority == 0 && i % 4 == 0 ? sim::Msec(1) : 0}};
      if (priority == 1) {
        t.ramp.period = sim::Msec(20);
        t.ramp.points = {{0, 0.5}, {sim::Msec(10), 1.5}};
      }
      tc.tenants.push_back(t);
    }
  }
  traffic::TrafficGenerator gen(&h, tc);
  h.Run();
  EXPECT_GT(gen.total_arrivals(), 0);
  EXPECT_GT(h.kernel().allocator()->decisions(), 1000);
  return h.trace()->Snapshot();
}

TEST(AllocZeroPerturbation, TieredTrafficTraceIsByteIdentical) {
  const auto reference = RunTieredTraffic(/*reference_oracle=*/true);
  const auto incremental = RunTieredTraffic(/*reference_oracle=*/false);
  ExpectByteIdentical(reference, incremental);
}

}  // namespace
}  // namespace sa::kern
