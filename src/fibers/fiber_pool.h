// A native M:N user-level thread ("fiber") library for x86-64 Linux.
//
// This is real code, not simulation: fibers run on a pool of kernel worker
// threads and switch contexts entirely at user level (src/fibers/context.h).
// It exists to demonstrate the paper's Table-1 claim on modern hardware —
// user-level thread operations cost on the order of a procedure call, one
// to two orders of magnitude less than kernel threads (std::thread) and
// three to four less than processes (fork) — see bench_fibers_native.
//
// Design follows the same shape as the simulated FastThreads (paper
// Section 4.2): each worker owns a lock-free ready deque
// (src/fibers/work_stealing_deque.h) that it pushes and pops without
// synchronization in the common case, plus an unlocked free list of recycled
// fiber stacks; a worker touches shared state only when its own deque runs
// dry — first a global overflow queue (fed by non-worker threads), then by
// stealing from other workers in random order, and finally by parking on a
// per-worker condition variable until a PushRunnable wakes exactly one
// parked worker.  Lazy spawns (SpawnLazy) follow the same rule: the closure
// goes into a frame from the spawning worker's free list, pending on that
// worker's own list, and only a promotion touches another worker's state.
// The pool-wide mutex survives only for external joins, the overflow queue,
// fiber-slab allocation and shutdown.  (It deliberately does NOT get
// scheduler activations: that requires the kernel support this repository
// simulates — the point of the paper.)

#ifndef SA_FIBERS_FIBER_POOL_H_
#define SA_FIBERS_FIBER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/fibers/context.h"
#include "src/fibers/spinlock.h"
#include "src/trace/trace.h"

namespace sa::fibers {

class FiberPool;

namespace internal {

struct Fiber {
  std::unique_ptr<char[]> stack;
  size_t stack_size = 0;
  ContextSp sp = nullptr;
  std::function<void()> fn;
  FiberPool* pool = nullptr;

  // Join state.  join_mu is per-fiber so the join/completion handshake never
  // touches the pool-wide mutex; done and generation are atomic because a
  // stale handle may probe them while the spawn path recycles the fiber.
  // A SpinLock (not std::mutex) because Join holds it across the switch to
  // the scheduler stack — see spinlock.h.
  SpinLock join_mu;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> generation{0};  // guards handles across recycling
  Fiber* joiners_head = nullptr;  // fibers blocked in Join; guarded by join_mu
  Fiber* next_joiner = nullptr;   // intrusive link in another fiber's joiners
  std::atomic<int> ext_waiters{0};  // external threads blocked in Join on us

  bool exiting = false;       // set just before the final switch-out
  void* tsan_fiber = nullptr;  // ThreadSanitizer fiber context (if enabled)
  void* asan_fake_stack = nullptr;  // AddressSanitizer fake-stack save slot
};

struct WorkerState;  // per-kernel-thread scheduler state (fiber_pool.cc)
struct LazyTask;     // a lazy spawn's frame (defined below FiberPool)

}  // namespace internal

// Handle to a spawned fiber; valid until joined.
class FiberHandle {
 public:
  FiberHandle() = default;

 private:
  friend class FiberPool;
  FiberHandle(internal::Fiber* fiber, uint64_t generation)
      : fiber_(fiber), generation_(generation) {}
  internal::Fiber* fiber_ = nullptr;
  uint64_t generation_ = 0;
};

// Handle to a lazily spawned task (SpawnLazy); must be passed to JoinLazy
// exactly once — the join is what runs a never-promoted task.  A plain
// pointer: copies name the same frame.
class LazyHandle {
 public:
  LazyHandle() = default;

 private:
  friend class FiberPool;
  explicit LazyHandle(internal::LazyTask* task) : task_(task) {}
  internal::LazyTask* task_ = nullptr;
};

// Aggregated scheduler counters (summed across workers); see stats().
struct FiberPoolStats {
  uint64_t local_pops = 0;     // fibers taken from the owner's own deque
  uint64_t overflow_pops = 0;  // fibers taken from the global overflow queue
  uint64_t steals = 0;         // fibers stolen from another worker's deque
  uint64_t steal_attempts = 0;  // victim deques probed (hit or miss)
  uint64_t parks = 0;          // times a worker blocked with nothing to run
  uint64_t wakeups = 0;        // parked workers woken by PushRunnable
  // Steal distance split, populated only when the pool was built with
  // workers_per_socket > 0 (local_steals + remote_steals == steals then).
  uint64_t local_steals = 0;   // victim in the thief's worker group
  uint64_t remote_steals = 0;  // steal crossed worker groups
  // Lazy (pcall) spawning — see SpawnLazy.  Every lazy_spawn resolves as
  // exactly one of {lazy_promotions, lazy_inlines}.
  uint64_t lazy_spawns = 0;      // frames pushed by SpawnLazy
  uint64_t lazy_promotions = 0;  // frames promoted into real fibers
  uint64_t lazy_inlines = 0;     // frames run inline by JoinLazy
  // Timed parks that woke to visible work no push had signalled.  With the
  // push/park Dekker handshake in place this must stay zero; a nonzero count
  // means a lost wakeup happened and only the timeout backstop saved it
  // (regression canary for the fiber_lost_wakeup_test).
  uint64_t timeout_rescues = 0;
};

// Construction options.  workers_per_socket > 0 partitions workers into
// contiguous groups of that size (mirroring the simulated machine's sockets
// — see src/hw/topology.h): the steal scan probes same-group victims before
// remote ones, and stats() splits steals by distance.  0 keeps the flat
// random scan.
struct FiberPoolOptions {
  size_t stack_size = 128 * 1024;  // per-fiber stack
  int workers_per_socket = 0;
  // Whether worker-local pushes wake a parked worker whenever one exists:
  // -1 = auto (eager on multi-CPU hosts, conservative on one CPU — the
  // pusher will dispatch its own push, so a wake just time-slices one
  // processor), 0 = conservative, 1 = eager.  Tests force 1 to exercise the
  // push/park wakeup handshake deterministically regardless of host shape.
  int wake_eagerly = -1;
};

class FiberPool {
 public:
  // Starts `workers` kernel threads.  stack_size is per fiber.
  explicit FiberPool(int workers, size_t stack_size = 128 * 1024);
  FiberPool(int workers, const FiberPoolOptions& options);
  ~FiberPool();
  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  // Creates a fiber; it becomes runnable immediately.  When called from a
  // fiber, the child lands in the calling worker's own deque and free fibers
  // are recycled from the worker's local list without locks.
  FiberHandle Spawn(std::function<void()> fn);

  // Waits until the fiber finishes.  Callable from a fiber (blocks the
  // fiber, the worker keeps running others) or from an external thread
  // (blocks the thread).
  void Join(FiberHandle handle);

  // Lazy (pcall) spawn — the native analogue of the simulated heartbeat
  // promotion (DESIGN.md §17).  The task starts as a frame on the calling
  // worker's pending list, not a fiber: the closure is moved into the
  // frame's inline buffer (at most kLazyClosureBytes — a static_assert
  // enforces it), the frame comes from the worker's own free list, and
  // nothing is allocated, woken or pushed.  It becomes a real fiber only if
  // promoted — by the owner's dispatch-loop tick (the native stand-in for
  // the heartbeat), by a worker that runs dry (steal-side promotion), or at
  // push time when a worker is parked and none is searching.  Must be
  // called from a fiber of this pool.
  template <typename F>
  LazyHandle SpawnLazy(F&& fn);

  // Largest closure SpawnLazy stores inline in a frame.
  static constexpr size_t kLazyClosureBytes = 64;

  // Resolves a lazy spawn: runs a still-unpromoted task inline on the
  // calling fiber's stack (a plain procedure call — the entire point), or
  // joins the promoted fiber.  Must be called exactly once per handle, from
  // a fiber of this pool (any worker — the fiber may have migrated since
  // the spawn).  Join the newest spawns first so unpromoted frames inline
  // while promotion takes the oldest.
  void JoinLazy(LazyHandle handle);

  // From inside a fiber: give up the processor to another runnable fiber.
  static void Yield();

  // From inside a fiber: the pool running the current fiber (nullptr if not
  // on a fiber).
  static FiberPool* Current();

  // The currently running fiber on this worker (nullptr outside fibers).
  // For synchronization primitives (src/fibers/sync.h).
  static internal::Fiber* CurrentFiber();

  // Makes a blocked fiber runnable again (synchronization primitives only).
  // Callable from any thread, including non-worker threads.
  void WakeFiber(internal::Fiber* fiber) { PushRunnable(fiber); }

  // Switches from the current fiber back to the worker's scheduler context;
  // `post(a, b)` runs on the scheduler stack after the switch (so a fiber
  // can safely publish itself to a wait queue it is no longer running on).
  // A raw function pointer, not std::function: this sits on the
  // context-switch hot path and no post action needs more than two pointers.
  using PostFn = void (*)(void* a, void* b);
  void SwitchOut(PostFn post, void* a, void* b);

  // The ubiquitous post action: release `lock` once off the fiber's stack.
  // Takes the fiber library's SpinLock: a pthread mutex must not be
  // released from a different (TSan-logical) thread than locked it.
  void SwitchOutUnlock(SpinLock* lock);

  // Number of user-level context switches performed so far (summed across
  // workers; each worker counts its own switches without atomic RMWs).
  uint64_t switches() const;

  // Scheduler counters summed across workers (monotonic over the pool's life).
  FiberPoolStats stats() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Event tracing (cat::kFibers, host monotonic clock).  The buffer must
  // outlive the pool; read it back only after the pool is destroyed (workers
  // emit concurrently).  Pass nullptr to detach.  Safe while the workers
  // run: each emit site loads the pointer with acquire, pairing with this
  // release store, so a worker sees the buffer fully set up or not at all.
  void set_tracer(trace::TraceBuffer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

 private:
  friend class FiberMutex;
  friend class FiberSemaphore;
  friend struct internal::WorkerState;  // names the private Worker type
  friend struct internal::LazyTask;     // likewise (owning worker pointer)
  struct Worker;
  static void FiberMain(void* arg);

  trace::TraceBuffer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }

  // Spawn minus the final PushRunnable: the fiber is set up and its handle
  // valid, but nobody can run it until it is pushed.
  internal::Fiber* NewFiber(std::function<void()> fn, FiberHandle* handle);

  void WorkerLoop(int index);

  // Dispatch: local deque first, then overflow, then stealing, then park.
  internal::Fiber* PopRunnable(Worker* w);
  internal::Fiber* PopOverflow(Worker* w);
  internal::Fiber* TrySteal(Worker* w);
  // The non-template halves of SpawnLazy: take a frame from the calling
  // worker's free list, then publish it once the closure is in place.
  internal::LazyTask* NewLazyFrame();
  LazyHandle PushLazy(internal::LazyTask* task);
  // Promotes `victim`'s oldest pending frame into a fiber on `w`'s deque.
  // False if it had none.
  bool PromoteOldest(Worker* w, Worker* victim, trace::HbPromoteSource source);
  // Dry-worker promotion: `w`'s own frames first, else those of the worker
  // with the most pending, chosen from the lock-free counts.
  bool PromoteOneLazy(Worker* w);
  bool AnyWorkVisible(const Worker* w) const;
  void ParkWorker(Worker* w);
  // Un-park after losing the race for our parked slot to a waker.
  void AdoptClaim(Worker* w);
  void WakeOne();
  void PushRunnable(internal::Fiber* fiber);

  // Fiber recycling: per-worker free lists with a global overflow.
  internal::Fiber* AllocFiber();
  void RecycleFiber(internal::Fiber* fiber);

  const size_t stack_size_;
  const int workers_per_socket_;  // 0 = no grouping (flat steal scan)
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<trace::TraceBuffer*> tracer_{nullptr};

  std::atomic<bool> stopping_{false};
  std::atomic<int> num_parked_{0};
  // Workers woken from the parking lot that have not yet found work.  At
  // most one wake is in flight at a time (Go-style): wakers skip WakeOne
  // while a searcher exists, and a searcher that finds work wakes the next
  // worker itself if more work is visible.
  std::atomic<int> num_searching_{0};
  // Spin-scan rounds (with a sched_yield between them) before parking.
  int spin_rounds_ = 0;
  // On multi-CPU hosts, worker-local pushes wake a parked worker whenever
  // one exists (parallel drain).  On a single CPU that wake buys nothing —
  // the pusher itself will dispatch the work — so local pushes only wake
  // when every worker is parked; the timed park covers redistribution if a
  // worker ever blocks in a real syscall.
  bool wake_eagerly_ = true;
  std::atomic<size_t> overflow_size_{0};
  // Fibers spawned from non-worker threads; worker-side spawns and all
  // completions are tracked in per-worker deltas (summed at destruction).
  std::atomic<int64_t> live_external_{0};

  // Cold state: external joins, overflow run queue, fiber-slab ownership.
  std::mutex mu_;
  std::condition_variable joiner_cv_;  // external threads waiting in Join
  std::deque<internal::Fiber*> overflow_;       // guarded by mu_
  std::vector<internal::Fiber*> global_free_;   // guarded by mu_
  std::vector<std::unique_ptr<internal::Fiber>> all_fibers_;  // guarded by mu_
};

// Mutex that blocks the *fiber* (the worker thread keeps running other
// fibers); never enters the kernel while uncontended or contended.
class FiberMutex {
 public:
  void Lock();
  void Unlock();

 private:
  SpinLock mu_;  // protects the tiny state below
  internal::Fiber* owner_ = nullptr;
  std::deque<internal::Fiber*> waiters_;
};

// Counting semaphore with fiber-blocking semantics (condition with memory —
// the same primitive the simulated benchmarks use for Signal-Wait).  Wait
// must be called from a fiber; Post may be called from any thread.
class FiberSemaphore {
 public:
  explicit FiberSemaphore(int initial = 0) : count_(initial) {}
  void Post();
  void Wait();

 private:
  SpinLock mu_;
  int count_;
  std::deque<internal::Fiber*> waiters_;
};

namespace internal {

// A lazy spawn's frame (SpawnLazy).  The closure lives in `closure`, and
// `run` invokes it and then destroys it, so a frame is resolved by exactly
// one call of `run`: inline in JoinLazy, or on the fiber a promotion
// spawned.  Frames are recycled through per-worker free lists.  While
// pending, a frame is linked (prev/next) into its owner's list, oldest at
// the head; `promoted`, `handle` and the links change only under the
// owner's lazy_mu.  On a free list, `next` is the free-list link and
// `owner` is null.
struct LazyTask {
  void (*run)(void* closure) = nullptr;
  FiberPool::Worker* owner = nullptr;
  LazyTask* prev = nullptr;
  LazyTask* next = nullptr;
  bool promoted = false;
  FiberHandle handle;  // valid once promoted
  alignas(std::max_align_t) unsigned char closure[FiberPool::kLazyClosureBytes];
};

}  // namespace internal

template <typename F>
LazyHandle FiberPool::SpawnLazy(F&& fn) {
  using Closure = std::decay_t<F>;
  static_assert(sizeof(Closure) <= kLazyClosureBytes,
                "SpawnLazy closure exceeds the frame's inline buffer");
  static_assert(alignof(Closure) <= alignof(std::max_align_t),
                "SpawnLazy closure is over-aligned for the frame");
  internal::LazyTask* task = NewLazyFrame();
  ::new (static_cast<void*>(task->closure)) Closure(std::forward<F>(fn));
  task->run = [](void* closure) {
    struct Destroy {  // destroys the closure even if it throws
      Closure* c;
      ~Destroy() { c->~Closure(); }
    } destroy{std::launder(static_cast<Closure*>(closure))};
    (*destroy.c)();
  };
  return PushLazy(task);
}

}  // namespace sa::fibers

#endif  // SA_FIBERS_FIBER_POOL_H_
