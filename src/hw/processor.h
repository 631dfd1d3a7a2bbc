// Simulated physical processor.
//
// A processor executes one *span* at a time.  A span is either timed (a fixed
// amount of busy work with a completion continuation) or open-ended (a spin or
// idle loop that lasts until an external actor ends it).  Preemption is
// modelled with RequestInterrupt(): a preemptible span is cancelled on the
// spot and the interrupt handler receives everything needed to resume the
// span later (remaining duration + the original continuation); a
// non-preemptible span (kernel mode) latches the request, which fires at the
// next preemptible BeginSpan or is consumed at an explicit dispatch point.
//
// Time spent is accounted per SpanMode so experiments can report processor
// busy/spin/idle breakdowns.

#ifndef SA_HW_PROCESSOR_H_
#define SA_HW_PROCESSOR_H_

#include <array>
#include <functional>
#include <string>

#include "src/common/assert.h"
#include "src/common/intrusive_list.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace sa::hw {

enum class SpanMode : int {
  kIdle = 0,      // no span at all (kernel idle loop)
  kUser = 1,      // application computation
  kMgmt = 2,      // user-level thread management (dispatch, fork, enqueue...)
  kKernel = 3,    // kernel mode (traps, scheduling, upcall setup)
  kSpin = 4,      // user-level spin-waiting on a lock
  kIdleSpin = 5,  // user-level scheduler idle loop (looks busy to the kernel)
};
constexpr int kNumSpanModes = 6;

const char* SpanModeName(SpanMode mode);

// Delivered to the interrupt handler when a span is preempted.
struct Interrupt {
  SpanMode mode = SpanMode::kIdle;
  sim::Duration elapsed = 0;    // time spent in the span before preemption
  sim::Duration remaining = 0;  // unfinished work (timed spans only)
  bool critical_section = false;
  bool open = false;      // span was open-ended (spin/idle loop)
  bool was_idle = false;  // processor had no span at all
  // The cancelled continuation of a timed span; re-issue with
  // BeginSpan(remaining, ...) to continue the preempted execution.
  sim::Callback on_complete;
};

// State captured from a preempted timed span so it can be continued later.
struct SavedSpan {
  sim::Duration remaining = 0;
  SpanMode mode = SpanMode::kUser;
  bool critical_section = false;
  sim::Callback on_complete;

  bool valid() const { return static_cast<bool>(on_complete); }
  void Clear() {
    remaining = 0;
    critical_section = false;
    on_complete = nullptr;
  }

  static SavedSpan FromInterrupt(Interrupt&& irq) {
    SavedSpan s;
    s.remaining = irq.remaining;
    s.mode = irq.mode;
    s.critical_section = irq.critical_section;
    s.on_complete = std::move(irq.on_complete);
    return s;
  }
};

class Processor {
 public:
  using InterruptHandler = std::function<void(Processor*, Interrupt)>;

  Processor(sim::Engine* engine, int id);
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  int id() const { return id_; }

  // Installed once by the kernel at boot.
  void set_interrupt_handler(InterruptHandler handler) {
    interrupt_handler_ = std::move(handler);
  }

  bool has_span() const { return span_active_; }
  bool span_open() const { return span_active_ && open_; }
  SpanMode current_mode() const { return span_active_ ? mode_ : SpanMode::kIdle; }
  bool in_critical_section() const { return span_active_ && critical_section_; }

  // Begins a timed span.  If an interrupt is latched and the span is
  // preemptible, the handler fires immediately (remaining = full duration)
  // instead of the span starting.  d == 0 runs on_complete synchronously.
  void BeginSpan(sim::Duration d, SpanMode mode, bool preemptible, bool critical_section,
                 sim::Callback on_complete);

  // Convenience for non-preemptible kernel-mode work.
  void BeginKernelSpan(sim::Duration d, sim::Callback on_complete) {
    BeginSpan(d, SpanMode::kKernel, /*preemptible=*/false, /*critical_section=*/false,
              std::move(on_complete));
  }

  // Begins an open-ended busy span (spin or user-level idle loop); always
  // preemptible.  If an interrupt is latched it fires immediately.
  void BeginOpenSpan(SpanMode mode);

  // Ends an open span from outside (work arrived / lock granted).
  void EndOpenSpan();

  // Kernel-initiated preemption.  Synchronously fires the interrupt handler
  // if the current span is preemptible / open / absent; otherwise latches.
  void RequestInterrupt();

  bool interrupt_latched() const { return interrupt_latched_; }

  // Dispatch-point check: if an interrupt is latched, clears it and returns
  // true (the caller then runs the preemption path itself, with the current
  // execution already at a clean boundary).
  bool ConsumeLatchedInterrupt();

  // --- processor-allocator bookkeeping (kern::ProcessorAllocator) ---
  // Kept on the processor itself so the allocator's hot paths are plain
  // field loads, not hash-map lookups: the id of the address space that
  // last owned this processor (-1 = never owned, used for warm/cold grant
  // classification) and the link for the allocator's free pool.
  int alloc_last_owner = -1;
  common::ListNode alloc_free_node;

  // --- accounting ---
  sim::Duration time_in(SpanMode mode) const;
  sim::Duration busy_time() const;  // everything except kIdle
  // Closes the current accounting period (call before reading at end of run).
  void FlushAccounting();

 private:
  void AccumulateTo(sim::Time now);
  void FireInterrupt(Interrupt irq);

  sim::Engine* engine_;
  const int id_;
  InterruptHandler interrupt_handler_;

  // Current span.
  bool span_active_ = false;
  bool open_ = false;
  bool preemptible_ = true;
  bool critical_section_ = false;
  SpanMode mode_ = SpanMode::kIdle;
  sim::Time span_start_ = 0;
  sim::Duration span_duration_ = 0;
  sim::Callback on_complete_;
  sim::EventHandle completion_;

  bool interrupt_latched_ = false;
  bool in_handler_ = false;

  // Accounting.
  sim::Time account_from_ = 0;
  std::array<sim::Duration, kNumSpanModes> accounted_{};
};

}  // namespace sa::hw

#endif  // SA_HW_PROCESSOR_H_
