#include "src/hw/processor.h"

namespace sa::hw {

const char* SpanModeName(SpanMode mode) {
  switch (mode) {
    case SpanMode::kIdle:
      return "idle";
    case SpanMode::kUser:
      return "user";
    case SpanMode::kMgmt:
      return "mgmt";
    case SpanMode::kKernel:
      return "kernel";
    case SpanMode::kSpin:
      return "spin";
    case SpanMode::kIdleSpin:
      return "idle-spin";
  }
  return "?";
}

Processor::Processor(sim::Engine* engine, int id) : engine_(engine), id_(id) {
  account_from_ = engine_->now();
}

void Processor::AccumulateTo(sim::Time now) {
  const SpanMode mode = current_mode();
  SA_DCHECK(now >= account_from_);
  accounted_[static_cast<int>(mode)] += now - account_from_;
  account_from_ = now;
}

sim::Duration Processor::time_in(SpanMode mode) const {
  return accounted_[static_cast<int>(mode)];
}

sim::Duration Processor::busy_time() const {
  sim::Duration total = 0;
  for (int m = 0; m < kNumSpanModes; ++m) {
    if (m != static_cast<int>(SpanMode::kIdle)) {
      total += accounted_[m];
    }
  }
  return total;
}

void Processor::FlushAccounting() { AccumulateTo(engine_->now()); }

void Processor::FireInterrupt(Interrupt irq) {
  SA_CHECK_MSG(interrupt_handler_ != nullptr, "no interrupt handler installed");
  SA_CHECK_MSG(!in_handler_, "re-entrant interrupt on processor");
  in_handler_ = true;
  interrupt_handler_(this, std::move(irq));
  in_handler_ = false;
}

void Processor::BeginSpan(sim::Duration d, SpanMode mode, bool preemptible,
                          bool critical_section, sim::Callback on_complete) {
  SA_CHECK_MSG(!span_active_, "processor already executing a span");
  SA_CHECK(d >= 0);
  SA_CHECK(on_complete != nullptr);

  if (interrupt_latched_ && preemptible) {
    interrupt_latched_ = false;
    Interrupt irq;
    irq.mode = mode;
    irq.elapsed = 0;
    irq.remaining = d;
    irq.critical_section = critical_section;
    irq.on_complete = std::move(on_complete);
    FireInterrupt(std::move(irq));
    return;
  }

  AccumulateTo(engine_->now());  // close the preceding idle gap

  if (d == 0) {
    // Zero-duration work completes synchronously; no event traffic.
    on_complete();
    return;
  }

  span_active_ = true;
  open_ = false;
  preemptible_ = preemptible;
  critical_section_ = critical_section;
  mode_ = mode;
  span_start_ = engine_->now();
  span_duration_ = d;
  on_complete_ = std::move(on_complete);
  engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanBegin, id_, -1,
                     static_cast<uint64_t>(mode), static_cast<uint64_t>(d));
  const auto complete = [this] {
    AccumulateTo(engine_->now());
    span_active_ = false;
    engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanEnd, id_, -1,
                       static_cast<uint64_t>(mode_),
                       static_cast<uint64_t>(span_duration_));
    sim::Callback fn = std::move(on_complete_);
    fn();
  };
  if (preemptible) {
    completion_ = engine_->ScheduleAfter(d, complete);
  } else {
    // Non-preemptible spans are never cancelled (RequestInterrupt latches
    // instead), so the completion needs no handle.  This covers every
    // management charge — the simulator's hottest event source.
    completion_.Reset();
    engine_->ScheduleIn(d, complete);
  }
}

void Processor::BeginOpenSpan(SpanMode mode) {
  SA_CHECK_MSG(!span_active_, "processor already executing a span");
  if (interrupt_latched_) {
    interrupt_latched_ = false;
    Interrupt irq;
    irq.mode = mode;
    irq.open = true;
    FireInterrupt(std::move(irq));
    return;
  }
  AccumulateTo(engine_->now());
  span_active_ = true;
  open_ = true;
  preemptible_ = true;
  critical_section_ = false;
  mode_ = mode;
  span_start_ = engine_->now();
  engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanOpen, id_, -1,
                     static_cast<uint64_t>(mode), 0);
}

void Processor::EndOpenSpan() {
  SA_CHECK_MSG(span_active_ && open_, "no open span to end");
  AccumulateTo(engine_->now());
  span_active_ = false;
  open_ = false;
  engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanClose, id_, -1,
                     static_cast<uint64_t>(mode_),
                     static_cast<uint64_t>(engine_->now() - span_start_));
}

void Processor::RequestInterrupt() {
  if (!span_active_) {
    Interrupt irq;
    irq.was_idle = true;
    FireInterrupt(std::move(irq));
    return;
  }
  if (open_) {
    Interrupt irq;
    irq.mode = mode_;
    irq.elapsed = engine_->now() - span_start_;
    irq.open = true;
    AccumulateTo(engine_->now());
    span_active_ = false;
    open_ = false;
    engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanPreempt, id_,
                       -1, static_cast<uint64_t>(mode_),
                       static_cast<uint64_t>(irq.elapsed));
    FireInterrupt(std::move(irq));
    return;
  }
  if (!preemptible_) {
    interrupt_latched_ = true;
    return;
  }
  // Cancel the in-flight timed span.
  completion_.Cancel();
  const sim::Duration elapsed = engine_->now() - span_start_;
  Interrupt irq;
  irq.mode = mode_;
  irq.elapsed = elapsed;
  irq.remaining = span_duration_ - elapsed;
  irq.critical_section = critical_section_;
  irq.on_complete = std::move(on_complete_);
  AccumulateTo(engine_->now());
  span_active_ = false;
  engine_->TraceEmit(trace::cat::kProcessor, trace::Kind::kSpanPreempt, id_, -1,
                     static_cast<uint64_t>(mode_),
                     static_cast<uint64_t>(elapsed));
  FireInterrupt(std::move(irq));
}

bool Processor::ConsumeLatchedInterrupt() {
  if (!interrupt_latched_) {
    return false;
  }
  interrupt_latched_ = false;
  return true;
}

}  // namespace sa::hw
