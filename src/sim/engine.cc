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

bool EventHandle::pending() const {
  return state_ != nullptr && !state_->cancelled && !state_->fired;
}

bool EventHandle::Cancel() {
  if (!pending()) {
    // Fired, already cancelled, or never scheduled: stays inert.  This holds
    // even if the State is probed again after the handle was copied — fired
    // is a one-way latch.
    return false;
  }
  state_->cancelled = true;
  if (state_->engine != nullptr) {
    state_->engine->NoteCancelled();
  }
  return true;
}

Engine::~Engine() {
  // Outstanding handles may be cancelled after the engine is gone; sever the
  // back-references so Cancel() degrades to a pure state flip.
  for (const Key& key : queue_) {
    const std::shared_ptr<EventHandle::State>& state = slots_[key.slot].state;
    if (state != nullptr) {
      state->engine = nullptr;
    }
  }
}

void Engine::PushEvent(Time at, std::function<void()> fn,
                       std::shared_ptr<EventHandle::State> state) {
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), std::move(state)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    slots_[slot].state = std::move(state);
  }
  queue_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++live_events_;
}

void Engine::FreeSlot(uint32_t slot) {
  slots_[slot].fn = nullptr;
  slots_[slot].state.reset();
  free_slots_.push_back(slot);
}

EventHandle Engine::ScheduleAt(Time at, std::function<void()> fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  auto state = std::make_shared<EventHandle::State>();
  state->engine = this;
  PushEvent(at, std::move(fn), state);
  return EventHandle(std::move(state));
}

void Engine::Schedule(Time at, std::function<void()> fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  PushEvent(at, std::move(fn), nullptr);
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
  // can reuse this slot or grow the slot vector under it.
  Slot& slot = slots_[key.slot];
  std::function<void()> fn = std::move(slot.fn);
  if (slot.state != nullptr) {
    slot.state->fired = true;
  }
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
