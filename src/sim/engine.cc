#include "src/sim/engine.h"

#include <algorithm>
#include <cstdio>

namespace sa::sim {
namespace {

// Heaps smaller than this are never compacted: the dead entries cost less
// than the rebuild.
constexpr size_t kCompactMinSize = 64;

}  // namespace

std::string FormatDuration(Duration d) {
  char buf[64];
  const char* sign = d < 0 ? "-" : "";
  const int64_t v = d < 0 ? -d : d;
  if (v >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", sign, static_cast<double>(v) / kSecond);
  } else if (v >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%s%.3fms", sign, static_cast<double>(v) / kMillisecond);
  } else if (v >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%s%.2fus", sign, static_cast<double>(v) / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%ldns", sign, static_cast<long>(v));
  }
  return buf;
}

EventHandle::SlotState* EventHandle::state() const {
  if (block_ == nullptr) {
    return nullptr;
  }
  SlotState* s = block_->engine != nullptr ? &block_->engine->slots_[slot_].state
                                           : &block_->orphans[slot_];
  return s->generation == generation_ ? s : nullptr;
}

bool EventHandle::pending() const {
  const SlotState* s = state();
  return s != nullptr && !s->cancelled;
}

bool EventHandle::Cancel() {
  SlotState* s = state();
  if (s == nullptr || s->cancelled) {
    // Fired, discarded, already cancelled, or never scheduled: stays inert.
    // A fired or discarded event's slot has moved to a later generation, so
    // this holds even after the slot is reused.
    return false;
  }
  s->cancelled = true;
  if (block_->engine != nullptr) {
    block_->engine->NoteCancelled();
  }
  return true;
}

Engine::~Engine() {
  // Outstanding handles may be queried or cancelled after the engine is
  // gone: leave them the slot states, so Cancel() degrades to a pure state
  // flip on the handle's own (never-fired) event.
  if (handles_ != nullptr) {
    handles_->orphans.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      handles_->orphans.push_back(slot.state);
    }
    handles_->engine = nullptr;
  }
}

uint32_t Engine::PushEvent(Time at, Callback fn) {
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), {}});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
  }
  queue_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++live_events_;
  return slot;
}

void Engine::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.state.generation;
  s.state.cancelled = false;
  free_slots_.push_back(slot);
}

EventHandle Engine::ScheduleAt(Time at, Callback fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  if (handles_ == nullptr) {
    handles_ = std::make_shared<EventHandle::Block>();
    handles_->engine = this;
  }
  const uint32_t slot = PushEvent(at, std::move(fn));
  return EventHandle(handles_, slot, slots_[slot].state.generation);
}

void Engine::Schedule(Time at, Callback fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  PushEvent(at, std::move(fn));
}

void Engine::NoteCancelled() {
  SA_DCHECK(live_events_ > 0);
  --live_events_;
  MaybeCompact();
}

void Engine::MaybeCompact() {
  const size_t dead = queue_.size() - live_events_;
  if (queue_.size() < kCompactMinSize || dead * 2 <= queue_.size()) {
    return;
  }
  std::erase_if(queue_, [this](const Key& key) {
    if (!Cancelled(key)) {
      return false;
    }
    FreeSlot(key.slot);
    return true;
  });
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  SA_DCHECK(queue_.size() == live_events_);
}

void Engine::DropCancelledTop() {
  while (!queue_.empty() && Cancelled(queue_.front())) {
    FreeSlot(queue_.front().slot);
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
}

bool Engine::Step() {
  DropCancelledTop();
  if (queue_.empty()) {
    return false;
  }
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Key key = queue_.back();
  queue_.pop_back();
  --live_events_;
  SA_CHECK(key.at >= now_);
  now_ = key.at;
  // Move the callback out before running it: it may schedule events, which
  // can reuse this slot or grow the slot vector under it.  Freeing the slot
  // first also retires its generation, so the event's handle reads fired
  // from inside the callback.
  Callback fn = std::move(slots_[key.slot].fn);
  FreeSlot(key.slot);
  ++events_fired_;
  fn();
  return true;
}

void Engine::Run(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) {
      return;
    }
  }
}

void Engine::RunUntil(Time until) {
  for (;;) {
    DropCancelledTop();
    if (queue_.empty()) {
      if (now_ < until) {
        now_ = until;
      }
      return;
    }
    if (queue_.front().at > until) {
      now_ = until;
      return;
    }
    Step();
  }
}

}  // namespace sa::sim
