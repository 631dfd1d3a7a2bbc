// Discrete-event engine: ordering, cancellation, clock semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/program.h"

namespace sa::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(Usec(30), [&] { order.push_back(3); });
  e.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  e.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Usec(30));
}

TEST(Engine, SameTimestampIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(Usec(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Time seen = -1;
  e.ScheduleAt(Usec(10), [&] {
    e.ScheduleAfter(Usec(5), [&] { seen = e.now(); });
  });
  e.Run();
  EXPECT_EQ(seen, Usec(15));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  EventHandle h = e.ScheduleAt(Usec(10), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  e.Run();
  EXPECT_FALSE(ran);
}

// Regression: pending_events() used to report the raw heap size, which
// includes lazily-cancelled entries.  Schedule N, cancel N-1: the count must
// be exactly 1, not N.
TEST(Engine, PendingEventsExcludesCancelled) {
  Engine e;
  constexpr int kN = 10;
  std::vector<EventHandle> handles;
  for (int i = 0; i < kN; ++i) {
    handles.push_back(e.ScheduleAt(Usec(i + 1), [] {}));
  }
  EXPECT_EQ(e.pending_events(), static_cast<size_t>(kN));
  for (int i = 0; i < kN - 1; ++i) {
    EXPECT_TRUE(handles[static_cast<size_t>(i)].Cancel());
  }
  EXPECT_EQ(e.pending_events(), 1u);
  int fired = 0;
  e.ScheduleAt(Usec(100), [&] { ++fired; });  // keep the survivor company
  EXPECT_EQ(e.pending_events(), 2u);
  e.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.events_fired(), 2u);  // cancelled events never fire
}

// The heap compacts once more than half its entries are dead; cancellation
// bookkeeping must stay exact across the rebuild and the surviving events
// must still fire in order.
TEST(Engine, CompactionPreservesLiveEvents) {
  Engine e;
  constexpr int kN = 1000;
  std::vector<EventHandle> handles;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    handles.push_back(
        e.ScheduleAt(Usec(i + 1), [&order, i] { order.push_back(i); }));
  }
  // Cancel all the odd ones (well past the >50% dead threshold together with
  // interleaved scheduling below).
  for (int i = 1; i < kN; i += 2) {
    EXPECT_TRUE(handles[static_cast<size_t>(i)].Cancel());
  }
  for (int i = 0; i < kN; i += 2) {
    if (i % 4 == 0) {
      EXPECT_TRUE(handles[static_cast<size_t>(i)].Cancel());
    }
  }
  EXPECT_EQ(e.pending_events(), static_cast<size_t>(kN / 4));
  e.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kN / 4));
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
  // Cancelling after the run is inert.
  for (auto& h : handles) {
    EXPECT_FALSE(h.Cancel());
  }
  EXPECT_EQ(e.pending_events(), 0u);
}

// Contract: Cancel() after the event fired returns false and stays inert —
// including across Reset() and handle reassignment, and in any order of
// repeated calls.
TEST(Engine, CancelAfterFireIsInert) {
  Engine e;
  int runs = 0;
  EventHandle h = e.ScheduleAt(Usec(1), [&] { ++runs; });
  e.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.Cancel());  // double-cancel after fire
  EXPECT_EQ(e.pending_events(), 0u);

  // Reassigning the handle to a new event must not resurrect the old state:
  // the new event is independently cancellable, the old one stays fired.
  EventHandle old = h;
  h = e.ScheduleAt(Usec(2), [&] { ++runs; });
  EXPECT_TRUE(h.pending());
  EXPECT_FALSE(old.Cancel());
  EXPECT_TRUE(h.Cancel());
  e.Run();
  EXPECT_EQ(runs, 1);

  // Reset() drops the reference; the handle is inert afterwards.
  EventHandle h2 = e.ScheduleAt(Usec(3), [&] { ++runs; });
  h2.Reset();
  EXPECT_FALSE(h2.pending());
  EXPECT_FALSE(h2.Cancel());
  e.Run();
  EXPECT_EQ(runs, 2);  // Reset() is not Cancel(): the event still fires
}

TEST(Engine, CancelDuringEventCallbackIsCounted) {
  Engine e;
  bool victim_ran = false;
  EventHandle victim = e.ScheduleAt(Usec(10), [&] { victim_ran = true; });
  e.ScheduleAt(Usec(5), [&] {
    EXPECT_TRUE(victim.Cancel());
    EXPECT_EQ(e.pending_events(), 0u);
  });
  EXPECT_EQ(e.pending_events(), 2u);
  e.Run();
  EXPECT_FALSE(victim_ran);
}

// A handle may outlive the engine; Cancel() must not touch freed memory.
TEST(Engine, CancelAfterEngineDestructionIsSafe) {
  EventHandle h;
  {
    Engine e;
    h = e.ScheduleAt(Usec(1), [] {});
  }
  EXPECT_TRUE(h.pending());  // never fired, never cancelled
  EXPECT_TRUE(h.Cancel());   // flips state only; engine is gone
  EXPECT_FALSE(h.Cancel());
}

// The heap holds keys only; callbacks live in recycled slots.  A fired
// callback must not linger in its slot until the slot is reused.
TEST(EngineSlots, CapturesAreReleasedRightAfterFiring) {
  Engine e;
  auto token = std::make_shared<int>(7);
  long seen_inside = 0;
  e.ScheduleAt(Usec(1), [token, &seen_inside] { seen_inside = token.use_count(); });
  EventHandle h = e.ScheduleAt(Usec(2), [token] {});
  EXPECT_EQ(token.use_count(), 3);
  ASSERT_TRUE(e.Step());
  EXPECT_EQ(seen_inside, 3);
  EXPECT_EQ(token.use_count(), 2);  // the first callback is gone
  ASSERT_TRUE(e.Step());
  EXPECT_EQ(token.use_count(), 1);  // so is the handled one
  EXPECT_FALSE(h.pending());
}

TEST(EngineSlots, SameInstantFifoHoldsAcrossReusedSlots) {
  Engine e;
  std::vector<int> order;
  // Fill and drain a few slots so later events reuse them in LIFO order,
  // which is the reverse of their scheduling order.
  for (int i = 0; i < 8; ++i) {
    e.ScheduleAt(Usec(1), [] {});
  }
  e.Run();
  for (int round = 0; round < 3; ++round) {
    order.clear();
    const Time at = e.now() + Usec(5);
    for (int i = 0; i < 12; ++i) {
      e.ScheduleAt(at, [&order, i] { order.push_back(i); });
    }
    e.Run();
    ASSERT_EQ(order.size(), 12u);
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i) << "round " << round;
    }
  }
}

TEST(EngineSlots, CancelCompactThenScheduleKeepsOrder) {
  Engine e;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    handles.push_back(e.ScheduleAt(Usec(10 + i % 7), [&fired, i] { fired.push_back(i); }));
  }
  // Cancel three in four: compaction runs and frees their slots.
  for (int i = 0; i < kN; ++i) {
    if (i % 4 != 0) {
      EXPECT_TRUE(handles[static_cast<size_t>(i)].Cancel());
    }
  }
  EXPECT_EQ(e.pending_events(), static_cast<size_t>(kN / 4));
  // New events land in the freed slots, interleaved in time with the
  // survivors; everything must still fire in (at, seq) order.
  std::vector<std::pair<Time, int>> expect;
  for (int i = 0; i < kN; i += 4) {
    expect.emplace_back(Usec(10 + i % 7), i);
  }
  for (int j = 0; j < 60; ++j) {
    const int id = 1000 + j;
    const Time at = Usec(8 + j % 9);
    e.ScheduleAt(at, [&fired, id] { fired.push_back(id); });
    expect.emplace_back(at, id);
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  e.Run();
  ASSERT_EQ(fired.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].second) << "at " << i;
  }
  EXPECT_EQ(e.pending_events(), 0u);
}

// A handle names its event by (slot, generation).  Once the event leaves its
// slot — by firing, or by being cancelled and compacted away — the slot's
// next occupant must be out of the old handle's reach.
TEST(EngineSlots, StaleHandleNeverCancelsTheSlotsNextEvent) {
  {
    // Fired, then the slot is reused: slots are reused last-freed first, so
    // the next event lands in the fired event's slot.
    Engine e;
    EventHandle fired = e.ScheduleAt(Usec(1), [] {});
    ASSERT_TRUE(e.Step());
    int next_ran = 0;
    EventHandle next = e.ScheduleAt(Usec(2), [&next_ran] { ++next_ran; });
    ASSERT_EQ(e.pending_events(), 1u);
    EXPECT_FALSE(fired.pending());
    EXPECT_FALSE(fired.Cancel());
    EXPECT_EQ(e.pending_events(), 1u);
    EXPECT_TRUE(next.pending());
    e.Run();
    EXPECT_EQ(next_ran, 1);
  }
  {
    // Cancelled, compacted away, then every freed slot is reused.
    Engine e;
    constexpr int kN = 64;  // the smallest heap that compacts
    std::vector<EventHandle> old;
    for (int i = 0; i < kN; ++i) {
      old.push_back(e.ScheduleAt(Usec(10 + i), [] {}));
    }
    constexpr int kCancelled = kN / 2 + 1;  // crosses the half-dead mark
    for (int i = 0; i < kCancelled; ++i) {
      ASSERT_TRUE(old[static_cast<size_t>(i)].Cancel());
    }
    int new_ran = 0;
    std::vector<EventHandle> fresh;
    for (int i = 0; i < kCancelled; ++i) {
      fresh.push_back(e.ScheduleAt(Usec(5), [&new_ran] { ++new_ran; }));
    }
    const size_t pending = e.pending_events();
    ASSERT_EQ(pending, static_cast<size_t>(kN));
    for (int i = 0; i < kCancelled; ++i) {
      EXPECT_FALSE(old[static_cast<size_t>(i)].pending());
      EXPECT_FALSE(old[static_cast<size_t>(i)].Cancel());
    }
    EXPECT_EQ(e.pending_events(), pending);
    for (const EventHandle& h : fresh) {
      EXPECT_TRUE(h.pending());
    }
    e.Run();
    EXPECT_EQ(new_ran, kCancelled);
  }
}

TEST(EngineSlots, PendingHandleCancelledAfterEngineDiesStaysInert) {
  EventHandle h;
  auto token = std::make_shared<int>(1);
  {
    Engine e;
    e.ScheduleAt(Usec(1), [] {});
    h = e.ScheduleAt(Usec(5), [token] {});
    e.Step();  // the first event's slot is free; h's is still pending
    EXPECT_TRUE(h.pending());
  }
  EXPECT_EQ(token.use_count(), 1);  // the engine's slots died with it
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(Engine, HandleReportsFiredState) {
  Engine e;
  EventHandle h = e.ScheduleAt(Usec(1), [] {});
  e.Run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(Engine, ZeroDelayEventRunsAfterCurrentEvent) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(Usec(10), [&] {
    order.push_back(1);
    e.ScheduleAfter(0, [&] { order.push_back(2); });
    order.push_back(3);  // still inside the first event
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  int count = 0;
  e.ScheduleAt(Usec(10), [&] { ++count; });
  e.ScheduleAt(Usec(20), [&] { ++count; });
  e.ScheduleAt(Usec(30), [&] { ++count; });
  e.RunUntil(Usec(20));
  EXPECT_EQ(count, 2);  // inclusive boundary
  EXPECT_EQ(e.now(), Usec(20));
  e.Run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.RunUntil(Msec(5));
  EXPECT_EQ(e.now(), Msec(5));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.Step());
  e.ScheduleAt(1, [] {});
  EXPECT_TRUE(e.Step());
  EXPECT_FALSE(e.Step());
  EXPECT_EQ(e.events_fired(), 1u);
}

TEST(Engine, CascadedEventsRunToCompletion) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      e.ScheduleAfter(Usec(1), chain);
    }
  };
  e.ScheduleAt(0, chain);
  e.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), Usec(99));
}

TEST(Engine, MaxEventsBoundsExecution) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(i, [&] { ++count; });
  }
  e.Run(4);
  EXPECT_EQ(count, 4);
}

TEST(TimeFormat, AutoSelectsUnits) {
  EXPECT_EQ(FormatDuration(Nsec(500)), "500ns");
  EXPECT_EQ(FormatDuration(Usec(17)), "17.00us");
  EXPECT_EQ(FormatDuration(Msec(2) + Usec(400)), "2.400ms");
  EXPECT_EQ(FormatDuration(Sec(3)), "3.000s");
  EXPECT_EQ(FormatDuration(-Usec(5)), "-5.00us");
}

TEST(TimeUnits, ConversionsAreConsistent) {
  EXPECT_EQ(Usec(1), Nsec(1000));
  EXPECT_EQ(Msec(1), Usec(1000));
  EXPECT_EQ(Sec(1), Msec(1000));
  EXPECT_DOUBLE_EQ(ToUsec(Usec(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToMsec(Msec(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSec(Sec(42)), 42.0);
}

// Minimal checks of the coroutine plumbing outside any runtime.
TEST(Program, BodyRunsOnlyWhenResumed) {
  int stage = 0;
  auto make = [&]() -> Program {
    stage = 1;
    co_await TrapAwait{};
    stage = 2;
  };
  Program p = make();
  EXPECT_EQ(stage, 0);  // initial_suspend: nothing ran yet
  p.Resume();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(p.done());
  p.Resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(p.done());
}

TEST(Program, DestroyingSuspendedProgramReleasesFrame) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    auto make = [&]() -> Program {
      Sentinel s{&destroyed};
      co_await TrapAwait{};
      co_await TrapAwait{};
    };
    Program p = make();
    p.Resume();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Program, MoveTransfersOwnership) {
  auto make = []() -> Program { co_await TrapAwait{}; };
  Program a = make();
  Program b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Resume();
  b.Resume();
  EXPECT_TRUE(b.done());
}

}  // namespace
}  // namespace sa::sim
