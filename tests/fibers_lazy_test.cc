// The native lazy-frame path (FiberPool::SpawnLazy / JoinLazy): closures
// stored inline in recycled frames, frames unlinked from an intrusive
// per-worker list, promotion by the dispatch tick, by dry workers and at
// push time.  The cases here pin what that design must keep: every closure
// is destroyed exactly once whichever way its frame resolves, joins may come
// in any order and from any worker, promotion stays rare, and a warm
// spawn/join pair touches no heap at all.
//
// This binary replaces the global allocation functions to count heap
// allocations (WarmLazyFibAllocatesNothing), so it is kept apart from the
// other fiber suites.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "src/fibers/fiber_pool.h"

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
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sa::fibers {
namespace {

// The kernel thread running the calling fiber.  Out of line and opaque:
// pthread_self is declared const, so an inlined call could be reused across
// a switch that resumed the fiber on another thread.
__attribute__((noinline)) std::thread::id WorkerThread() {
  asm volatile("");
  return std::this_thread::get_id();
}

// A non-trivially destructible capture that counts its live copies: a
// closure destroyed twice drives `live` negative (and drops the token's
// count twice), one never destroyed leaves it positive.
struct Tracked {
  Tracked(std::shared_ptr<int> t, std::atomic<int>* l) : token(std::move(t)), live(l) {
    live->fetch_add(1);
  }
  Tracked(const Tracked& o) : token(o.token), live(o.live) { live->fetch_add(1); }
  Tracked(Tracked&& o) noexcept : token(std::move(o.token)), live(o.live) {
    live->fetch_add(1);
  }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { live->fetch_sub(1); }
  std::shared_ptr<int> token;
  std::atomic<int>* live;
};

// A closure exactly at the frame's inline limit.
struct LimitChild {
  Tracked tracked;
  std::atomic<int>* ran;
  std::array<unsigned char, FiberPool::kLazyClosureBytes - sizeof(Tracked) -
                                sizeof(std::atomic<int>*)>
      pad{};
  void operator()() const { ran->fetch_add(1); }
};
static_assert(sizeof(LimitChild) == FiberPool::kLazyClosureBytes);

// Spawns the closure `make(ran)` lazily on a one-worker pool and resolves it
// inline (join at once) or promoted (yield until the dispatch tick has
// promoted and run it); checks it ran once and every copy is gone.
template <typename Make>
void RunOnceEachWay(Make make) {
  for (const bool promote : {false, true}) {
    SCOPED_TRACE(promote ? "promoted" : "inline");
    auto token = std::make_shared<int>(7);
    std::atomic<int> live{0};
    std::atomic<int> ran{0};
    FiberPool pool(1);
    auto driver = pool.Spawn([&] {
      FiberPool* p = FiberPool::Current();
      LazyHandle h = p->SpawnLazy(make(Tracked(token, &live), &ran));
      for (int i = 0; promote && i < 1024 && ran.load() == 0; ++i) {
        FiberPool::Yield();
      }
      p->JoinLazy(h);
    });
    pool.Join(driver);
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(live.load(), 0) << "closure copies leaked or destroyed twice";
    EXPECT_EQ(token.use_count(), 1);
    const FiberPoolStats s = pool.stats();
    EXPECT_EQ(s.lazy_promotions, promote ? 1u : 0u);
    EXPECT_EQ(s.lazy_inlines, promote ? 0u : 1u);
  }
}

TEST(FiberLazyFrame, ClosureAtInlineLimitIsDestroyedOnce) {
  RunOnceEachWay([](Tracked t, std::atomic<int>* ran) {
    return LimitChild{std::move(t), ran};
  });
}

TEST(FiberLazyFrame, SharedPtrCaptureIsDestroyedOnce) {
  RunOnceEachWay([](Tracked t, std::atomic<int>* ran) {
    return [t = std::move(t), ran] { ran->fetch_add(1); };
  });
}

// Joins that do not mirror the spawns — oldest first, then middle-out —
// unlink frames from the head and the middle of the pending list.  On one
// worker every frame inlines, so children run in join order.
TEST(FiberLazyFrame, NonLifoJoinsRunEachChildOnce) {
  constexpr int kChildren = 16;
  FiberPool pool(1);
  std::vector<int> order;
  std::vector<int> expected;
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<LazyHandle> hs;
      for (int i = 0; i < kChildren; ++i) {
        hs.push_back(p->SpawnLazy([&order, i] { order.push_back(i); }));
      }
      std::vector<int> join_order;
      if (pass == 0) {
        for (int i = 0; i < kChildren; ++i) {
          join_order.push_back(i);  // FIFO: always the head
        }
      } else {
        for (int d = 0; d < kChildren / 2; ++d) {  // middle-out
          join_order.push_back(kChildren / 2 - 1 - d);
          join_order.push_back(kChildren / 2 + d);
        }
      }
      for (int i : join_order) {
        p->JoinLazy(hs[static_cast<size_t>(i)]);
        expected.push_back(i);
      }
    }
  });
  pool.Join(driver);
  EXPECT_EQ(order, expected);
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, 2u * kChildren);
  EXPECT_EQ(s.lazy_inlines, 2u * kChildren);
  EXPECT_EQ(s.lazy_promotions, 0u);
}

// The frame's owner is the worker the spawner ran on; the join comes after
// the spawner has moved to the other worker.  Each round pins the moves:
// the spawner D waits until a helper S is running on the other worker, so
// both workers are busy and nothing promotes at push time or from a dry
// scan.  D then queues T behind itself and blocks on a semaphore; its
// worker runs T (spinning), and S, seeing T run, posts D onto its own
// worker and exits — so D resumes there and joins a frame owned by the
// worker T is holding.  The owner's dispatch tick may still promote the
// frame in the one dispatch that picks T; that round then covers the
// promoted join instead, and over the rounds at least one must inline.
TEST(FiberLazyFrame, JoinAfterMigratingOffTheOwner) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(2, options);
  constexpr int kRounds = 8;
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<bool> s_running{false};
      std::atomic<bool> t_running{false};
      std::atomic<bool> t_release{false};
      std::atomic<int> ran{0};
      FiberSemaphore sem;
      const std::thread::id spawned_on = WorkerThread();
      FiberHandle s = p->Spawn([&] {
        s_running.store(true);
        while (!t_running.load()) {
        }
        sem.Post();
      });
      while (!s_running.load()) {
      }
      FiberHandle t = p->Spawn([&] {
        t_running.store(true);
        while (!t_release.load()) {
        }
      });
      LazyHandle h = p->SpawnLazy([&ran] { ran.fetch_add(1); });
      sem.Wait();
      EXPECT_NE(WorkerThread(), spawned_on)
          << "round " << round << ": the spawner did not migrate";
      p->JoinLazy(h);
      EXPECT_EQ(ran.load(), 1) << "round " << round;
      t_release.store(true);
      p->Join(s);
      p->Join(t);
    }
  });
  pool.Join(driver);
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(s.lazy_promotions + s.lazy_inlines, s.lazy_spawns);
  EXPECT_GT(s.lazy_inlines, 0u);
}

// Push-time promotion: with the other worker parked, nobody searching and
// the spawner's deque empty, SpawnLazy promotes its frame at once and the
// push wakes the parked worker, which runs the child while the spawner
// spins.  Each round first waits for a park newer than the last round, so
// the other worker is asleep (not still searching after the last child);
// a round in which it woke from a timed park just before the spawn, and
// so promoted the frame itself from a dry scan with no wake, is retried.
TEST(FiberLazyFrame, PushTimePromotionWakesAParkedWorker) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(2, options);
  bool woke = false;
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    uint64_t parks_seen = 0;
    for (int round = 0; round < 50 && !woke; ++round) {
      while (p->stats().parks <= parks_seen) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the idle worker never parked";
      }
      const FiberPoolStats before = p->stats();
      std::atomic<bool> ran{false};
      LazyHandle h = p->SpawnLazy([&] { ran.store(true); });
      while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
      }
      EXPECT_TRUE(ran.load()) << "no worker ran the child while we spun";
      p->JoinLazy(h);
      const FiberPoolStats after = p->stats();
      woke = after.wakeups > before.wakeups &&
             after.lazy_promotions > before.lazy_promotions;
      parks_seen = after.parks;
    }
  });
  pool.Join(driver);
  EXPECT_TRUE(woke) << "no lazy push ever promoted for a parked worker";
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_promotions + s.lazy_inlines, s.lazy_spawns);
}

int64_t FibSeq(int n) { return n < 2 ? n : FibSeq(n - 1) + FibSeq(n - 2); }

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

// A parallel recursion on four workers: correct result, every frame
// resolved exactly once, and promotion a small share of frames.  The last
// bound guards the push-time path against a promotion storm (promoting
// whenever any worker is parked, without the empty-deque bound, turned a
// quarter of all frames into fibers).
TEST(FiberLazyFrame, FourWorkerFibKeepsPromotionsRare) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(4, options);
  constexpr int kN = 22;
  int64_t result = -1;
  auto root = pool.Spawn([&] { result = FibLazy(FiberPool::Current(), kN); });
  pool.Join(root);
  EXPECT_EQ(result, FibSeq(kN));
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, static_cast<uint64_t>(FibSeq(kN + 1) - 1));
  EXPECT_EQ(s.lazy_spawns, s.lazy_promotions + s.lazy_inlines);
  EXPECT_LT(s.lazy_promotions * 20, s.lazy_spawns)
      << s.lazy_promotions << " of " << s.lazy_spawns << " frames promoted";
}

// Under a sanitizer each round costs far more; fewer rounds still cross the
// owner/remote window many times.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SA_LAZY_TEST_SANITIZED 1
#endif
#endif
#if !defined(SA_LAZY_TEST_SANITIZED) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define SA_LAZY_TEST_SANITIZED 1
#endif
#if defined(SA_LAZY_TEST_SANITIZED)
constexpr int kHammerRounds = 300;
#else
constexpr int kHammerRounds = 3000;
#endif

// The owner edits its pending list with no lock or fence; a dry worker
// promoting from that list must still never edit it at the same time.
// Many short parallel recursions keep workers running dry and promoting
// from each other's lists while the owners spawn and join at full speed.
// With the remote side's membarrier weakened to a compiler barrier this
// crashes within a few hundred rounds ("lazy handle already joined", or a
// corrupted list).
TEST(FiberLazyFrame, RemotePromotersNeverShareTheOwnersList) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(4, options);
  constexpr int kN = 18;
  const int64_t expected = FibSeq(kN);
  int wrong = 0;
  for (int round = 0; round < kHammerRounds; ++round) {
    int64_t result = -1;
    auto root =
        pool.Spawn([&] { result = FibLazy(FiberPool::Current(), kN); });
    pool.Join(root);
    if (result != expected) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0) << "of " << kHammerRounds << " rounds";
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, static_cast<uint64_t>(kHammerRounds) *
                               static_cast<uint64_t>(FibSeq(kN + 1) - 1));
  EXPECT_EQ(s.lazy_spawns, s.lazy_promotions + s.lazy_inlines);
  EXPECT_GT(s.lazy_promotions, 0u);
}

// Once the worker's frame free list is warm, an unpromoted SpawnLazy /
// JoinLazy pair allocates nothing: the closure lives in the frame and the
// frame is recycled.  One worker, so nothing is promoted.
TEST(FiberLazyFrame, WarmLazyFibAllocatesNothing) {
  FiberPool pool(1);
  constexpr int kN = 18;
  int64_t result = -1;
  uint64_t allocations = ~uint64_t{0};
  auto root = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    FibLazy(p, kN);  // warms the frame free list
    const uint64_t before = g_heap_allocations.load();
    result = FibLazy(p, kN);
    allocations = g_heap_allocations.load() - before;
  });
  pool.Join(root);
  EXPECT_EQ(result, FibSeq(kN));
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.stats().lazy_promotions, 0u);
}

}  // namespace
}  // namespace sa::fibers
