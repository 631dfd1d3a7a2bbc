// Heap traffic on the simulator's event path, and the sim::Callback that
// keeps it off the heap.
//
// The budget case runs the multitenant smoke shape (64 simulated processors,
// 64 kernel-thread tenants, 200 ms of open-loop arrivals) and bounds the heap
// allocations made during Harness::TryRun.  What each request still costs
// (its KThread, WorkThread, body closure and coroutine frame) is paid per
// arrival; everything else the event path does must come to a small
// fraction of an allocation per event.
//
// This binary replaces the global allocation functions to count heap
// allocations, so it is kept apart from the other suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "src/rt/harness.h"
#include "src/sim/callback.h"
#include "src/traffic/traffic.h"

namespace {

std::atomic<uint64_t> g_heap_allocations{0};

void* CountedAlloc(size_t size, size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

uint64_t Allocations() { return g_heap_allocations.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size, 0); }
void* operator new[](size_t size) { return CountedAlloc(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace sa {
namespace {

using sim::Callback;

// ---- Callback ---------------------------------------------------------------

// Closures with the captures of the hottest continuations: the kernel's
// quantum timer (Kernel::ArmQuantum: kernel, processor id, thread, dispatch
// sequence), a thread's exit (Kernel::SysExit: kernel, thread, processor) and
// a processor span's completion (Processor::BeginSpan: the processor).
struct FakeKernel;
struct FakeThread;
struct FakeProcessor;
FakeKernel* const kKernel = nullptr;
FakeThread* const kThread = nullptr;
FakeProcessor* const kProcessor = nullptr;
const auto kArmQuantum = [kernel = kKernel, proc_id = 0, kt = kThread, seq = uint64_t{0}] {
  (void)kernel, (void)proc_id, (void)kt, (void)seq;
};
const auto kSysExit = [kernel = kKernel, caller = kThread, proc = kProcessor] {
  (void)kernel, (void)caller, (void)proc;
};
const auto kSpanComplete = [processor = kProcessor] { (void)processor; };
static_assert(Callback::kStoredInline<std::decay_t<decltype(kArmQuantum)>>);
static_assert(Callback::kStoredInline<std::decay_t<decltype(kSysExit)>>);
static_assert(Callback::kStoredInline<std::decay_t<decltype(kSpanComplete)>>);

static_assert(!std::is_copy_constructible_v<Callback>);
static_assert(!std::is_copy_assignable_v<Callback>);
static_assert(std::is_nothrow_move_constructible_v<Callback>);
static_assert(std::is_nothrow_move_assignable_v<Callback>);

TEST(Callback, SmallCapturesAreStoredInline) {
  int ran = 0;
  int* target = &ran;
  const uint64_t before = Allocations();
  Callback cb = [target, a = uint64_t{1}, b = uint64_t{2}, c = uint64_t{3}, d = 4] {
    *target += static_cast<int>(a + b + c) + d;
  };
  Callback moved = std::move(cb);
  moved();
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(ran, 10);
}

TEST(Callback, LargeCapturesTakeOneHeapBlock) {
  int ran = 0;
  Callback inner = [&ran] { ++ran; };
  const uint64_t before = Allocations();
  // A continuation capturing another continuation is wider than the buffer.
  Callback outer = [inner = std::move(inner), &ran] {
    inner();
    ++ran;
  };
  EXPECT_EQ(Allocations(), before + 1);
  Callback moved = std::move(outer);
  Callback assigned;
  assigned = std::move(moved);
  EXPECT_EQ(Allocations(), before + 1);  // moves pass the block along
  assigned();
  EXPECT_EQ(ran, 2);
}

TEST(Callback, MoveLeavesTheSourceEmpty) {
  int ran = 0;
  Callback a = [&ran] { ++ran; };
  EXPECT_TRUE(a);
  Callback b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the contract under test
  EXPECT_TRUE(a == nullptr);
  ASSERT_TRUE(b);
  b();
  b();  // a Callback may run more than once
  EXPECT_EQ(ran, 2);
  b = nullptr;
  EXPECT_FALSE(b);
  Callback empty = nullptr;
  EXPECT_FALSE(empty);
}

TEST(Callback, CapturesAreDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    Callback small = [token] {};
    Callback large = [token, pad = std::array<uint64_t, 8>{}] { (void)pad; };
    EXPECT_EQ(token.use_count(), 3);
    Callback small2 = std::move(small);
    Callback large2 = std::move(large);
    EXPECT_EQ(token.use_count(), 3);  // moved, not copied
    small2 = std::move(large2);       // drops the inline closure
    EXPECT_EQ(token.use_count(), 2);
    small2();
    EXPECT_EQ(token.use_count(), 2);  // running does not consume
  }
  EXPECT_EQ(token.use_count(), 1);
  {
    Callback reset = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    reset = nullptr;
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---- the event path's budget ------------------------------------------------

// The multitenant tier mix: ~1/16 high-priority latency-sensitive tenants,
// ~1/4 mid tier on a diurnal ramp, and a low tier offering ~1.5x the
// machine's capacity.
traffic::TrafficConfig TierMix(int processors, int tenants, sim::Duration horizon,
                               uint64_t seed) {
  traffic::TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = horizon;
  tc.drain = sim::Msec(300);
  tc.record_samples = true;
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

TEST(SimAllocBudget, TrafficRunStaysWithinPerArrivalAndPerEventBudget) {
  constexpr int kProcessors = 64;
  rt::HarnessConfig hc;
  hc.processors = kProcessors;
  hc.seed = 1;
  hc.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(hc);
  traffic::TrafficGenerator gen(&h, TierMix(kProcessors, 64, sim::Msec(200), 1));

  const uint64_t before = Allocations();
  const rt::RunResult result = h.TryRun();
  const uint64_t allocations = Allocations() - before;
  ASSERT_EQ(result.outcome, rt::RunOutcome::kCompleted);

  const auto arrivals = static_cast<double>(gen.total_arrivals());
  const auto events = static_cast<double>(h.engine().events_fired());
  ASSERT_GT(arrivals, 0);
  // Per request: its KThread, WorkThread, body closure and coroutine frame,
  // with one to spare.  Per event: almost nothing.
  const double budget = 5 * arrivals + 0.1 * events;
  EXPECT_LE(static_cast<double>(allocations), budget)
      << allocations << " allocations for " << arrivals << " arrivals and " << events
      << " events (" << static_cast<double>(allocations) / events << " per event)";
}

}  // namespace
}  // namespace sa
