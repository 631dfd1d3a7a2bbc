// Discrete-event simulation engine.
//
// A single Engine owns the virtual clock and a min-heap of scheduled events.
// Events scheduled for the same instant fire in scheduling order (stable FIFO
// by sequence number), which keeps runs deterministic.  The heap holds only
// 24-byte (at, seq, slot) keys; each event's callback and its (generation,
// cancelled) word live in a slot vector whose slots are recycled once the
// event fires or is discarded.  Cancellation is lazy: a cancelled heap entry
// stays in the heap and is discarded when it reaches the top, but the engine
// tracks live-vs-dead counts exactly (pending_events never counts cancelled
// entries) and compacts the heap when more than half of it is dead.

#ifndef SA_SIM_ENGINE_H_
#define SA_SIM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/assert.h"
#include "src/sim/callback.h"
#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace sa::sim {

class Engine;

// Handle to a scheduled event; allows cancellation.  Default-constructed
// handles are inert.  Handles do not keep callbacks alive after firing.
//
// Cancellation contract:
//   - Cancel() on a pending event marks it cancelled and returns true; the
//     callback will never run.
//   - Cancel() after the event fired (or was already cancelled) returns
//     false and has no effect — a fired event is inert forever, even if the
//     handle is later Reset() or reassigned and even if the engine has been
//     destroyed.  Double-cancel likewise returns false the second time.
//   - pending() is true only between scheduling and fire/cancel.
//
// A handle is the event's (slot, generation) pair.  A slot's generation
// advances each time the slot is emptied, so a handle whose event fired or
// was discarded never matches the slot's next occupant.  Handles share one
// liveness block per engine; when the engine dies it hands the block its
// slots' (generation, cancelled) words, so a handle to a never-fired event
// still reads pending and can still be cancelled (a pure state flip).
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  bool pending() const;

  // Cancels the event if still pending.  Returns true if it was pending.
  bool Cancel();

  void Reset() { block_.reset(); }

 private:
  friend class Engine;
  // Per-slot state a handle checks: the occupant's generation, and whether
  // that occupant was cancelled.
  struct SlotState {
    uint32_t generation = 0;
    bool cancelled = false;
  };
  // Shared by an engine and its handles.  `orphans` is filled from the
  // engine's slots when the engine dies.
  struct Block {
    Engine* engine = nullptr;
    std::vector<SlotState> orphans;
  };
  EventHandle(std::shared_ptr<Block> block, uint32_t slot, uint32_t generation)
      : block_(std::move(block)), slot_(slot), generation_(generation) {}
  // The slot state this handle's event owns, or null if the event fired,
  // was discarded, or the handle is inert.
  SlotState* state() const;

  std::shared_ptr<Block> block_;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `at` (>= now).
  EventHandle ScheduleAt(Time at, Callback fn);

  // Schedules `fn` to run `delay` (>= 0) after now.
  EventHandle ScheduleAfter(Duration delay, Callback fn) {
    SA_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Handle-free variants for fire-and-forget events that will never be
  // cancelled or queried: no handle is built, so no reference to the
  // liveness block is taken.  Most simulation events (span completions,
  // I/O completions, timer re-arms) are never cancelled.
  void Schedule(Time at, Callback fn);
  void ScheduleIn(Duration delay, Callback fn) {
    SA_CHECK(delay >= 0);
    Schedule(now_ + delay, std::move(fn));
  }

  // Runs the next pending event, if any.  Returns false when the queue is
  // drained (ignoring cancelled events).
  bool Step();

  // Runs until the queue drains or `max_events` fire.
  void Run(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`; clock ends at min(until, last event).
  void RunUntil(Time until);

  uint64_t events_fired() const { return events_fired_; }

  // Number of scheduled events that are still live: excludes cancelled
  // entries that have not yet been discarded from the heap.
  size_t pending_events() const { return live_events_; }

  // Event tracing (DESIGN.md §10).  The engine stamps records with the
  // virtual clock; components that hold an Engine* emit through it.  The
  // buffer is owned by the harness (or test); null means tracing is off.
  void set_tracer(trace::TraceBuffer* tracer) { tracer_ = tracer; }
  trace::TraceBuffer* tracer() const { return tracer_; }
  void TraceEmit(uint32_t category, trace::Kind kind, int cpu, int as_id,
                 uint64_t arg0 = 0, uint64_t arg1 = 0) {
    SA_TRACE_EMIT(tracer_, category, kind, static_cast<int64_t>(now_), cpu,
                  as_id, arg0, arg1);
  }

 private:
  friend class EventHandle;

  // What the heap orders: the (at, seq) key plus where the event's payload
  // sits.  Keys are unique, so any heap pops them in the same order.
  struct Key {
    Time at;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    EventHandle::SlotState state;
  };

  bool Cancelled(const Key& key) const { return slots_[key.slot].state.cancelled; }
  // Empties a slot (dropping its callback's captures) for reuse, advancing
  // its generation so no handle to the old occupant matches again.
  void FreeSlot(uint32_t slot);
  // Discards cancelled entries sitting at the top of the heap.
  void DropCancelledTop();
  // Returns the slot the event landed in.
  uint32_t PushEvent(Time at, Callback fn);
  // EventHandle::Cancel() notification: one live entry became dead.
  void NoteCancelled();
  // Rebuilds the heap without its dead entries once >50% are dead.
  void MaybeCompact();

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;  // heap entries not cancelled
  std::vector<Key> queue_;     // min-heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;    // event payloads, indexed by Key::slot
  std::vector<uint32_t> free_slots_;  // empty slots, reused last-freed first
  std::shared_ptr<EventHandle::Block> handles_;  // made by the first ScheduleAt
  trace::TraceBuffer* tracer_ = nullptr;
};

}  // namespace sa::sim

#endif  // SA_SIM_ENGINE_H_
