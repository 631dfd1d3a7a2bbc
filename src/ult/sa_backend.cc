#include "src/ult/sa_backend.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/kern/space_reaper.h"
#include "src/ult/fast_threads.h"

namespace sa::ult {

namespace {
constexpr const char* kLog = "sa-be";
}  // namespace

SaBackend::SaBackend(kern::Kernel* kernel, kern::AddressSpace* as)
    : kernel_(kernel), as_(as) {
  space_ = std::make_unique<core::SaSpace>(kernel_, as_, this);
}

SaBackend::~SaBackend() = default;

void SaBackend::Attach(FastThreads* ft) { ft_ = ft; }

int SaBackend::CreateKernelEvent() {
  events_.push_back(std::make_unique<KEvent>());
  return static_cast<int>(events_.size()) - 1;
}

void SaBackend::Start() {
  // Program start: register initial demand; the kernel answers with an
  // add-processor upcall at a fixed entry point (Section 3.1).
  const int want = std::max(1, std::min(ft_->runnable(), ft_->num_vcpus()));
  space_->BootDemand(want);
}

int SaBackend::BoundCount() const {
  return static_cast<int>(by_proc_.size());
}

Vcpu* SaBackend::SlotByProcessor(int processor_id) {
  auto it = by_proc_.find(processor_id);
  return it == by_proc_.end() ? nullptr : it->second;
}

Vcpu* SaBackend::BindSlot(kern::KThread* kt) {
  const int pid = kt->processor()->id();
  Vcpu* v = SlotByProcessor(pid);
  if (v != nullptr) {
    // Rebind: the fresh activation replaces whatever context held this
    // processor (blocked or stopped; its thread state travels in events).
    v->kt = kt;
    v->current = nullptr;
    v->idle_spinning = false;
    v->idle_transition = false;
    v->idle_notified = false;
    v->lend_hinted = false;
    v->hysteresis.Cancel();
    return v;
  }
  for (int i = 0; i < ft_->num_vcpus(); ++i) {
    Vcpu* candidate = ft_->vcpu(i);
    if (!candidate->bound) {
      candidate->bound = true;
      candidate->kt = kt;
      candidate->current = nullptr;
      candidate->idle_spinning = false;
      candidate->idle_transition = false;
      candidate->idle_notified = false;
      candidate->lend_hinted = false;
      by_proc_[pid] = candidate;
      return candidate;
    }
  }
  return nullptr;  // surplus processor
}

void SaBackend::UnbindSlot(Vcpu* v, int processor_id) {
  ft_->NoteUnbound(v, processor_id);
  v->bound = false;
  v->kt = nullptr;
  v->current = nullptr;
  v->idle_spinning = false;
  v->idle_transition = false;
  v->idle_notified = false;
  v->lend_hinted = false;
  v->hysteresis.Cancel();
  by_proc_.erase(processor_id);
}

void SaBackend::UnbindSlotOfActivation(int64_t activation_id) {
  for (auto& [pid, v] : by_proc_) {
    if (v->kt != nullptr && v->kt->is_activation() &&
        v->kt->activation()->id() == activation_id) {
      UnbindSlot(v, pid);
      return;
    }
  }
  // No slot bound to that activation: the processor was already rebound to a
  // fresh activation (same-processor delivery) — nothing to do.
}

void SaBackend::UnbindIdleSlotByProcessor(int processor_id) {
  auto it = by_proc_.find(processor_id);
  if (it == by_proc_.end()) {
    return;
  }
  Vcpu* v = it->second;
  if (v->kt != nullptr && v->kt->state() == kern::KThreadState::kRunning) {
    return;  // the processor came back before we processed the notification
  }
  UnbindSlot(v, processor_id);
}

// ---------------------------------------------------------------------------
// Activation host.
// ---------------------------------------------------------------------------

void SaBackend::ParkReaped(kern::KThread* kt) {
  hw::Processor* proc = kt->processor();
  if (kernel_->running_on(proc) != nullptr &&
      kernel_->running_on(proc)->address_space() == as_) {
    kernel_->ClearRunning(proc);
  }
  if (!proc->has_span()) {
    kernel_->DispatchOn(proc);
  }
}

void SaBackend::OnSpaceReaped() {
  // Freeze the thread system and drop user-level state that would otherwise
  // keep feeding work into the dead space.  Slot bindings are deliberately
  // kept: in-flight continuations still derive their processor from v->kt,
  // and the kernel owns every KThread for the lifetime of the run.
  ft_->Halt();
  inbox_.clear();
  discards_.clear();
  for (auto& ev : events_) {
    ev->pending = 0;
    ev->waiters.clear();
  }
  for (int i = 0; i < ft_->num_vcpus(); ++i) {
    ft_->vcpu(i)->hysteresis.Cancel();
  }
}

void SaBackend::RunOn(kern::KThread* kt) {
  SA_CHECK(kt->is_activation());
  if (as_->reaped()) {
    ParkReaped(kt);
    return;
  }
  core::Activation* act = kt->activation();
  if (!act->inbox().empty()) {
    std::vector<core::UpcallEvent> events = std::move(act->inbox());
    act->inbox().clear();
    HandleUpcall(kt, std::move(events));
    return;
  }
  // Direct resume (debugger): continue where the slot left off.
  Vcpu* v = SlotByProcessor(kt->processor()->id());
  SA_CHECK_MSG(v != nullptr && v->kt == kt, "resumed activation has no slot");
  ft_->RunVcpu(v);
}

void SaBackend::HandleUpcall(kern::KThread* upcall_activation,
                             std::vector<core::UpcallEvent> events) {
  if (as_->hung()) {
    // Injected hang (DESIGN.md §12): the user-level scheduler is wedged.  It
    // absorbs the upcall without processing or acknowledging it and spins,
    // holding the processor, until the kernel's deadline watchdog gives up
    // and tears the space down.
    BindSlot(upcall_activation);
    upcall_activation->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    return;
  }
  kernel_->reaper()->AckUpcalls(as_);
  for (auto& ev : events) {
    inbox_.push_back(std::move(ev));
  }
  Vcpu* v = BindSlot(upcall_activation);
  // The thread system's event handling runs at user level in the fresh
  // activation's context.
  const sim::Duration charge = kernel_->costs().sa_upcall_user_process;
  upcall_activation->processor()->BeginSpan(
      charge, hw::SpanMode::kMgmt, /*preemptible=*/false, /*critical_section=*/false,
      [this, upcall_activation, v] { Drain(upcall_activation, v); });
}

void SaBackend::Drain(kern::KThread* kt, Vcpu* v) {
  if (as_->reaped()) {
    ParkReaped(kt);
    return;
  }
  if (inbox_.empty()) {
    FinishDrain(kt, v);
    return;
  }
  core::UpcallEvent ev = std::move(inbox_.front());
  inbox_.pop_front();

  switch (ev.kind) {
    case core::UpcallEvent::Kind::kAddProcessor: {
      // "Add this processor": the slot is already bound.  If parallelism
      // grew while this grant was in flight, renew the hint right away (the
      // downcalls are serialized, Section 3.2).  A reap elsewhere can flood
      // the free pool and leave this space holding more processors than it
      // currently wants, so only renew while the bound count still trails.
      const int want = std::min(ft_->runnable(), ft_->num_vcpus());
      if (want > BoundCount() && want > space_->user_desired()) {
        space_->DowncallAddProcessors(kt, want - BoundCount(),
                                      [this, kt, v] { Drain(kt, v); });
        return;
      }
      Drain(kt, v);
      return;
    }

    case core::UpcallEvent::Kind::kBlocked: {
      // "Scheduler activation has blocked": the blocked activation is no
      // longer using its processor.  Its user thread stays in its context
      // until the matching unblocked event.
      Drain(kt, v);
      return;
    }

    case core::UpcallEvent::Kind::kUnblocked: {
      Tcb* t = static_cast<Tcb*>(ev.state.cookie);
      SA_CHECK_MSG(t != nullptr, "unblocked activation carried no thread");
      SA_CHECK(t->state == Tcb::State::kBlockedKernel);
      if (ev.state.io_failed && t->work != nullptr) {
        // The kernel completed the blocking I/O with an injected error;
        // surface it before the thread resumes (IoRead).
        t->work->ctx.last_io_ok = false;
      }
      t->saved = std::move(ev.state.saved);
      ++ft_->runnable_ref();
      NoteDiscard(ev.activation_id);
      if (v != nullptr) {
        ft_->RecoverOrReady(v, t, [this](Vcpu* vn) { Drain(vn->kt, vn); });
      } else {
        t->resume_check = true;
        ft_->EnqueueReady(nullptr, t);
        Drain(kt, nullptr);
      }
      return;
    }

    case core::UpcallEvent::Kind::kPreempted: {
      if (ev.activation_id >= 0) {
        NoteDiscard(ev.activation_id);
        UnbindSlotOfActivation(ev.activation_id);
      } else if (ev.processor_id >= 0) {
        UnbindIdleSlotByProcessor(ev.processor_id);
      }
      Tcb* t = static_cast<Tcb*>(ev.state.cookie);
      if (t == nullptr) {
        // The processor was idling in the user-level scheduler: "no action
        // is necessary" (Section 3.1).
        Drain(kt, v);
        return;
      }
      t->saved = std::move(ev.state.saved);
      if (t->waiting_lock != nullptr) {
        // It was spin-waiting; it re-checks the lock when dispatched again.
        t->resume_check = true;
        ft_->EnqueueReady(v, t, /*front=*/false);
        Drain(kt, v);
        return;
      }
      if (t->cs_depth > 0 && v != nullptr) {
        ft_->RecoverOrReady(v, t, [this](Vcpu* vn) { Drain(vn->kt, vn); });
      } else {
        t->resume_check = true;
        ft_->EnqueueReady(v, t, /*front=*/false);
        Drain(kt, v);
      }
      return;
    }
  }
  SA_UNREACHABLE();
}

void SaBackend::NoteDiscard(int64_t activation_id) {
  discards_.push_back(activation_id);
}

void SaBackend::FinishDrain(kern::KThread* kt, Vcpu* v) {
  // Discarded activations are returned to the kernel in bulk (Section 4.3).
  if (static_cast<int>(discards_.size()) >= kernel_->costs().sa_discard_batch) {
    std::vector<int64_t> batch = std::move(discards_);
    discards_.clear();
    space_->DowncallReturnDiscards(kt, std::move(batch),
                                   [this, kt, v] { FinishDrain(kt, v); });
    return;
  }
  if (v != nullptr) {
    ft_->RunVcpu(v);
    return;
  }
  // Surplus processor: every virtual-processor slot is occupied.  Tell the
  // kernel this processor is idle and spin until it is reclaimed.
  space_->DowncallProcessorIdle(
      kt, [kt] { kt->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin); });
}

void SaBackend::OnPreempted(kern::KThread* kt, hw::Interrupt irq) {
  SA_CHECK(kt->is_activation());
  Vcpu* v = SlotByProcessor(kt->processor()->id());
  Tcb* t = (v != nullptr && v->kt == kt) ? v->current : nullptr;
  if (irq.open) {
    if (t != nullptr && t->state == Tcb::State::kSpinning) {
      t->actively_spinning = false;
      t->state = Tcb::State::kStopped;
    } else if (v != nullptr) {
      // Idle loop: nothing to save, but the slot is no longer idle-spinning
      // (its processor is being taken).
      v->idle_spinning = false;
      v->hysteresis.Cancel();
    }
    return;
  }
  if (irq.on_complete != nullptr) {
    kt->saved_span() = hw::SavedSpan::FromInterrupt(std::move(irq));
    if (t != nullptr) {
      t->state = Tcb::State::kStopped;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel interaction for user-level threads.
// ---------------------------------------------------------------------------

void SaBackend::BlockIo(Vcpu* v, Tcb* t, sim::Duration latency) {
  // The activation blocks in the kernel with the thread in its context; the
  // kernel immediately upcalls a fresh activation on this processor.
  SA_CHECK(v->kt->activation()->user_cookie() == t);
  kernel_->SysBlockIo(v->kt, latency);
}

void SaBackend::PageFault(Vcpu* v, Tcb* t, int64_t page, sim::Duration latency) {
  // The activation blocks in the kernel on the paging I/O; the kernel
  // upcalls a fresh activation on this processor (identical to BlockIo —
  // the paper treats page faults and I/O uniformly).
  SA_CHECK(v->kt->activation()->user_cookie() == t);
  kernel_->SysPageFault(v->kt, page, latency, nullptr);
}

void SaBackend::KernelWait(Vcpu* v, Tcb* t, int event_id) {
  KEvent* ev = events_[static_cast<size_t>(event_id)].get();
  kern::KThread* act = v->kt;
  kernel_->SysBlockWait(
      act,
      [this, ev, act, t] {
        if (ev->pending > 0) {
          --ev->pending;
          return false;
        }
        ev->waiters.emplace_back(act, t);
        --ft_->runnable_ref();
        t->state = Tcb::State::kBlockedKernel;
        return true;
      },
      [this, t] { ft_->StepAndInterpret(t); });
}

void SaBackend::KernelSignal(Vcpu* v, Tcb* t, int event_id) {
  KEvent* ev = events_[static_cast<size_t>(event_id)].get();
  if (!ev->waiters.empty()) {
    auto [waiter_act, waiter_t] = ev->waiters.front();
    ev->waiters.pop_front();
    kernel_->SysWakeup(v->kt, waiter_act, [this, t] { ft_->StepAndInterpret(t); });
    return;
  }
  kernel_->ChargeKernel(v->kt, kernel_->costs().kernel_trap, [this, ev, t] {
    ++ev->pending;
    ft_->StepAndInterpret(t);
  });
}

void SaBackend::OnIdle(Vcpu* v) {
  if (!ft_->config().idle_hysteresis) {
    if (!v->idle_notified) {
      v->idle_notified = true;
      ft_->BeginIdleTransition(v);
      space_->DowncallProcessorIdle(v->kt, [this, v] {
        // Re-check; re-enters OnIdle if still nothing.  Work that arrived
        // during the downcall was parked on v's list by EnqueueReady.
        ft_->EndIdleTransition(v);
      });
      return;
    }
    v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    return;
  }
  if (v->idle_notified) {
    // Already told the kernel; keep spinning until work arrives or the
    // processor is reclaimed.
    v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    return;
  }
  // Spin for the hysteresis period before notifying (Section 4.2).
  v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
  Vcpu* vp = v;
  if (ft_->config().lend_idle && kernel_->config().lending.enabled &&
      !v->lend_hinted) {
    // Lending (DESIGN.md §16): offer the processor to the kernel's loan
    // pool first, after a short grace period.  A declined hint is cost-free
    // and falls back to the normal idle path (this handler re-enters OnIdle
    // with lend_hinted set); an accepted one stops this activation and the
    // slot unbinds through the ordinary preempted upcall.
    v->hysteresis = kernel_->engine().ScheduleAfter(
        kernel_->costs().lend_hint_hysteresis, [this, vp] {
          if (!vp->bound || !vp->idle_spinning) {
            return;  // got work or lost the processor in the meantime
          }
          vp->lend_hinted = true;  // one offer per idle episode
          ft_->BeginIdleTransition(vp);
          vp->proc()->EndOpenSpan();
          space_->DowncallYieldHint(vp->kt, [this, vp](bool accepted) {
            if (!accepted) {
              ft_->EndIdleTransition(vp);
            }
          });
        });
    return;
  }
  v->hysteresis = kernel_->engine().ScheduleAfter(
      kernel_->costs().idle_hysteresis, [this, vp] {
        if (!vp->bound || !vp->idle_spinning) {
          return;  // got work or lost the processor in the meantime
        }
        ft_->BeginIdleTransition(vp);
        vp->proc()->EndOpenSpan();
        vp->idle_notified = true;
        space_->DowncallProcessorIdle(vp->kt, [this, vp] {
          ft_->EndIdleTransition(vp);
        });
      });
}

void SaBackend::OnIdleWake(Vcpu* v) { v->hysteresis.Cancel(); }

void SaBackend::NotifyParallelism(Vcpu* v, sim::Callback resume) {
  // Notify only on a *transition*: more runnable threads than processors,
  // and more than the demand the kernel already knows about (the demand is
  // persistent kernel state, so no request tracking is needed — if nothing
  // can be granted now, the allocator grants when a processor frees up).
  const int want = std::min(ft_->runnable(), ft_->num_vcpus());
  if (want > BoundCount() && want > space_->user_desired()) {
    space_->DowncallAddProcessors(v->kt, want - BoundCount(), std::move(resume));
    return;
  }
  // Priority extension (Section 3.1): if a ready thread outranks a running
  // one, ask the kernel to interrupt that processor; the preempted upcall
  // lets the dispatcher put the high-priority thread there.  The thread
  // system can do this precisely because it knows which of its threads runs
  // on each of its processors.
  if (ft_->has_priorities()) {
    const int top = ft_->HighestReadyPriority();
    Vcpu* victim = ft_->LowestPriorityRunningVcpu(/*exclude=*/v);
    if (victim != nullptr && top > victim->current->priority) {
      space_->DowncallPreemptProcessor(v->kt, victim->proc()->id(), std::move(resume));
      return;
    }
  }
  resume();
}

void SaBackend::OnThreadLoaded(Vcpu* v, Tcb* t) {
  // Record which user-level thread runs in which activation: this is the
  // "machine state" the kernel ships back if the activation is stopped.
  v->kt->activation()->set_user_cookie(t);
  v->idle_notified = false;
  v->lend_hinted = false;
}

void SaBackend::OnThreadUnloaded(Vcpu* v) {
  if (v->kt != nullptr && v->kt->is_activation()) {
    v->kt->activation()->set_user_cookie(nullptr);
  }
}

sim::Duration SaBackend::ForkOverhead() const {
  return kernel_->costs().sa_busy_accounting;
}
sim::Duration SaBackend::WaitOverhead() const {
  return kernel_->costs().sa_busy_accounting;
}
sim::Duration SaBackend::ResumeCheckOverhead() const {
  return kernel_->costs().sa_resume_check;
}

}  // namespace sa::ult
