#include "src/ult/fast_threads.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "src/common/log.h"

namespace sa::ult {

namespace {
constexpr const char* kLog = "ult";
}  // namespace

FastThreads::FastThreads(kern::Kernel* kernel, kern::AddressSpace* as, UltConfig config,
                         VcpuBackend* backend)
    : kernel_(kernel), as_(as), config_(config), backend_(backend) {
  SA_CHECK(config_.max_vcpus >= 1);
  for (int i = 0; i < config_.max_vcpus; ++i) {
    auto v = std::make_unique<Vcpu>();
    v->index = i;
    vcpus_.push_back(std::move(v));
  }
  backend_->Attach(this);
}

bool FastThreads::TraceOn() const {
  trace::TraceBuffer* tb = kernel_->engine().tracer();
  return tb != nullptr && tb->enabled(trace::cat::kUlt);
}

void FastThreads::TraceUlt(trace::Kind kind, int cpu, uint64_t a0, uint64_t a1) {
  kernel_->engine().TraceEmit(trace::cat::kUlt, kind, cpu, as_->id(), a0, a1);
}

size_t FastThreads::QueuedReady() const {
  size_t n = 0;
  for (const auto& v : vcpus_) {
    n += v->ready.size();
  }
  return n;
}

int FastThreads::CreateLock(rt::LockKind kind) {
  locks_.push_back(std::make_unique<UltLock>());
  locks_.back()->kind = kind;
  return static_cast<int>(locks_.size()) - 1;
}

int FastThreads::CreateCond() {
  sems_.push_back(std::make_unique<UltSem>());
  return static_cast<int>(sems_.size()) - 1;
}

Tcb* FastThreads::AllocTcb(Vcpu* v, rt::WorkThread* w) {
  Tcb* t;
  if (v != nullptr && !v->free_tcbs.empty()) {
    t = v->free_tcbs.back();
    v->free_tcbs.pop_back();
  } else {
    tcbs_.push_back(std::make_unique<Tcb>(next_tcb_id_++));
    t = tcbs_.back().get();
  }
  SA_CHECK(t->state == Tcb::State::kFree);
  t->work = w;
  t->vcpu = nullptr;
  t->cs_depth = 0;
  t->cs_recovery = false;
  t->waiting_lock = nullptr;
  t->actively_spinning = false;
  t->resume_check = false;
  t->lazy_promote_charge = 0;
  t->saved.Clear();
  w->impl = t;
  return t;
}

void FastThreads::FreeTcb(Vcpu* v, Tcb* t) {
  SA_CHECK_MSG(t->work_stack.empty(), "freeing a TCB mid inline (pcall) body");
  t->state = Tcb::State::kFree;
  t->work = nullptr;
  t->lazy_promote_charge = 0;
  v->free_tcbs.push_back(t);
}

Tcb* FastThreads::SpawnThread(rt::WorkThread* w) {
  Tcb* t = AllocTcb(nullptr, w);
  t->state = Tcb::State::kReady;
  ++runnable_;
  vcpus_[0]->ready.PushFront(t);
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltReady, -1, static_cast<uint64_t>(t->id), QueuedReady());
  }
  return t;
}

void FastThreads::Halt() {
  halted_ = true;
  heartbeat_.Cancel();
  hb_armed_ = false;
}

void FastThreads::ParkHalted(Vcpu* v) {
  if (v == nullptr || !v->bound || v->kt == nullptr) {
    return;
  }
  hw::Processor* proc = v->proc();
  kern::KThread* running = kernel_->running_on(proc);
  if (running != nullptr && running->address_space() == as_) {
    kernel_->ClearRunning(proc);
  }
  if (!proc->has_span()) {
    kernel_->DispatchOn(proc);
  }
}

void FastThreads::ChargeMgmt(Vcpu* v, sim::Duration d, sim::Callback fn) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  SA_CHECK(v->bound);
  counters_.mgmt_time += d;
  // Internal critical sections are modelled as non-preemptible management
  // spans (see header comment); interrupts latch and fire at the next
  // preemptible boundary.
  v->proc()->BeginSpan(d, hw::SpanMode::kMgmt, /*preemptible=*/false,
                       /*critical_section=*/false, std::move(fn));
}

// ---------------------------------------------------------------------------
// Dispatching.
// ---------------------------------------------------------------------------

Tcb* FastThreads::PopLocal(Vcpu* v) {
  if (!has_priorities_) {
    return v->ready.PopFront();  // plain LIFO (Section 4.2 default policy)
  }
  // Priority-aware: front-most thread of the highest priority present
  // (LIFO within a priority level).
  Tcb* best = nullptr;
  for (Tcb* t : v->ready) {
    if (best == nullptr || t->priority > best->priority) {
      best = t;
    }
  }
  if (best != nullptr) {
    v->ready.Remove(best);
  }
  return best;
}

int FastThreads::HighestReadyPriority() const {
  int best = INT_MIN;
  for (const auto& v : vcpus_) {
    for (const Tcb* t : v->ready) {
      best = std::max(best, t->priority);
    }
  }
  return best;
}

Vcpu* FastThreads::LowestPriorityRunningVcpu(const Vcpu* exclude) const {
  Vcpu* lowest = nullptr;
  for (const auto& v : vcpus_) {
    if (v.get() == exclude || !v->bound || v->current == nullptr ||
        v->current->state != Tcb::State::kRunning) {
      continue;
    }
    if (lowest == nullptr || v->current->priority < lowest->current->priority) {
      lowest = v.get();
    }
  }
  return lowest;
}

std::vector<Vcpu*> FastThreads::StealOrder(Vcpu* v) {
  std::vector<Vcpu*> order;
  order.reserve(static_cast<size_t>(num_vcpus() - 1));
  for (int k = 1; k < num_vcpus(); ++k) {
    order.push_back(vcpus_[static_cast<size_t>((v->index + k) % num_vcpus())].get());
  }
  const hw::Topology& topo = kernel_->machine()->topology();
  if (config_.locality_aware_stealing && topo.hierarchical() && v->bound) {
    // Same-socket victims first; the stable partition keeps the rotation
    // order within each group.  Unbound victims have no location and scan
    // with the remote group.
    const int home = topo.SocketOf(v->proc()->id());
    std::stable_partition(order.begin(), order.end(), [&](Vcpu* u) {
      return u->bound && topo.SocketOf(u->proc()->id()) == home;
    });
  }
  return order;
}

sim::Duration FastThreads::NoteSteal(Vcpu* thief, Vcpu* victim) {
  const hw::Topology& topo = kernel_->machine()->topology();
  if (!topo.hierarchical() || !thief->bound) {
    return 0;
  }
  const int thief_cpu = thief->proc()->id();
  // An unbound victim's list has no processor; the stolen thread is cold
  // wherever it lands, so that counts (and is priced) as a remote steal.
  const bool remote =
      !victim->bound || !topo.SameSocket(thief_cpu, victim->proc()->id());
  if (!remote) {
    ++counters_.steals_same_socket;
    ++kernel_->counters().ult_steals_local;
    return 0;
  }
  ++counters_.steals_cross_socket;
  ++kernel_->counters().ult_steals_remote;
  kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocStealRemote,
                              thief_cpu, as_->id(),
                              static_cast<uint64_t>(thief->index),
                              static_cast<uint64_t>(victim->index));
  // The cold-cache cost of pulling work across the socket boundary is a
  // property of the machine, not of the stealing policy: both the blind and
  // the locality-aware scan pay it, which is what makes their elapsed times
  // comparable in the ablation.  The flag only changes the victim order.
  const sim::Duration penalty =
      victim->bound ? topo.MigrationPenalty(victim->proc()->id(), thief_cpu)
                    : topo.config().socket_migration_penalty;
  kernel_->counters().migration_penalty_time += penalty;
  return penalty;
}

Tcb* FastThreads::Steal(Vcpu* v, sim::Duration* penalty) {
  if (has_priorities_) {
    Vcpu* best_victim = nullptr;
    Tcb* best = nullptr;
    // Strict `>` plus the locality-ordered scan: among equal priorities a
    // same-socket victim wins.
    for (Vcpu* victim : StealOrder(v)) {
      for (Tcb* t : victim->ready) {
        if (best == nullptr || t->priority > best->priority) {
          best = t;
          best_victim = victim;
        }
      }
    }
    if (best != nullptr) {
      best_victim->ready.Remove(best);
      ++counters_.steals;
      *penalty += NoteSteal(v, best_victim);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltSteal, v->proc()->id(),
                 static_cast<uint64_t>(v->index),
                 static_cast<uint64_t>(best_victim->index));
      }
    }
    return best;
  }
  for (Vcpu* victim : StealOrder(v)) {
    Tcb* t = victim->ready.PopBack();  // oldest first from a remote list
    if (t != nullptr) {
      ++counters_.steals;
      *penalty += NoteSteal(v, victim);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltSteal, v->proc()->id(),
                 static_cast<uint64_t>(v->index), static_cast<uint64_t>(victim->index));
      }
      return t;
    }
  }
  // Steal-triggered promotion (DESIGN.md §17): every ready list is dry, but
  // unpromoted lazy-fork frames are latent parallelism.  Promote the
  // globally oldest frame to this processor rather than going idle — a
  // thief never sees (or races) a raw frame, only TCBs on ready lists.
  if (lazy_outstanding_ > 0) {
    LazyFrame frame;
    Vcpu* owner = nullptr;
    if (PopOldestLazyFrame(&frame, &owner)) {
      Tcb* t = PromoteFrame(frame, v, trace::HbPromoteSource::kSteal,
                            v->bound ? v->proc()->id() : -1);
      t->state = Tcb::State::kReady;  // dispatched by our caller momentarily
      *penalty += NoteSteal(v, owner);
      return t;
    }
  }
  return nullptr;
}

void FastThreads::RunVcpu(Vcpu* v) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  if (v->current != nullptr) {
    Tcb* t = v->current;
    if (v->kt->saved_span().valid()) {
      // Continue the interrupted span where it left off.
      hw::SavedSpan saved = std::move(v->kt->saved_span());
      v->kt->saved_span().Clear();
      v->proc()->BeginSpan(saved.remaining, saved.mode, /*preemptible=*/true,
                           saved.critical_section, std::move(saved.on_complete));
      return;
    }
    if (t->state == Tcb::State::kBlockedKernel) {
      // The kernel operation completed and the kernel resumed this context.
      ResumeAfterKernel(v, t);
      return;
    }
    if (t->state == Tcb::State::kSpinning) {
      TrySpinAcquire(v, t);
      return;
    }
    SA_CHECK_MSG(false, "vcpu resumed with a thread in an unexpected state");
  }
  Dispatch(v);
}

void FastThreads::Dispatch(Vcpu* v) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  SA_CHECK_MSG(v->bound, "dispatch on an unbound virtual processor");
  SA_CHECK(v->current == nullptr);
  if (has_priorities_) {
    DispatchByPriority(v);
    return;
  }
  Tcb* next = PopLocal(v);
  if (next == nullptr && num_vcpus() > 1) {
    sim::Duration steal_penalty = 0;
    next = Steal(v, &steal_penalty);
    if (next != nullptr) {
      // Charge the scan (plus any cross-socket migration penalty)
      // separately, then fall through to the dispatch charge.
      Tcb* stolen = next;
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltDispatch, v->proc()->id(),
                 static_cast<uint64_t>(v->index), static_cast<uint64_t>(stolen->id));
        TraceUlt(trace::Kind::kUltRunnable, v->proc()->id(),
                 static_cast<uint64_t>(v->index), QueuedReady());
      }
      ChargeMgmt(v, kernel_->costs().ult_steal_scan + steal_penalty, [this, v, stolen] {
        // A promoted lazy frame carries its deferred fork cost
        // (lazy_promote_charge); the first dispatch pays it.
        const sim::Duration charge = kernel_->costs().ult_dispatch + FlagCs(1) +
                                     stolen->lazy_promote_charge +
                                     (stolen->resume_check
                                          ? backend_->ResumeCheckOverhead()
                                          : 0);
        ChargeMgmt(v, charge, [this, v, stolen] {
          ++counters_.dispatches;
          stolen->resume_check = false;
          stolen->lazy_promote_charge = 0;
          ContinueThread(v, stolen);
        });
      });
      return;
    }
  }
  if (next == nullptr) {
    ++counters_.idles;
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltIdle, v->proc()->id(),
               static_cast<uint64_t>(v->index), 0);
    }
    v->idle_spinning = true;
    backend_->OnIdle(v);
    return;
  }
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltDispatch, v->proc()->id(),
             static_cast<uint64_t>(v->index), static_cast<uint64_t>(next->id));
    TraceUlt(trace::Kind::kUltRunnable, v->proc()->id(),
             static_cast<uint64_t>(v->index), QueuedReady());
  }
  const sim::Duration charge = kernel_->costs().ult_dispatch + FlagCs(1) +
                               next->lazy_promote_charge +
                               (next->resume_check ? backend_->ResumeCheckOverhead() : 0);
  ChargeMgmt(v, charge, [this, v, next] {
    ++counters_.dispatches;
    next->resume_check = false;
    next->lazy_promote_charge = 0;
    ContinueThread(v, next);
  });
}

// Priority policy: the highest-priority ready thread anywhere must run
// before any lower-priority one (ties prefer the local list).
void FastThreads::DispatchByPriority(Vcpu* v) {
  Tcb* best = nullptr;
  Vcpu* owner = nullptr;
  for (Tcb* t : v->ready) {
    if (best == nullptr || t->priority > best->priority) {
      best = t;
      owner = v;
    }
  }
  for (Vcpu* victim : StealOrder(v)) {
    for (Tcb* t : victim->ready) {
      if (best == nullptr || t->priority > best->priority) {
        best = t;
        owner = victim;
      }
    }
  }
  if (best == nullptr) {
    ++counters_.idles;
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltIdle, v->proc()->id(),
               static_cast<uint64_t>(v->index), 0);
    }
    v->idle_spinning = true;
    backend_->OnIdle(v);
    return;
  }
  owner->ready.Remove(best);
  sim::Duration charge = kernel_->costs().ult_dispatch + FlagCs(1) +
                         best->lazy_promote_charge +
                         (best->resume_check ? backend_->ResumeCheckOverhead() : 0);
  if (owner != v) {
    ++counters_.steals;
    charge += kernel_->costs().ult_steal_scan + NoteSteal(v, owner);
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltSteal, v->proc()->id(),
               static_cast<uint64_t>(v->index), static_cast<uint64_t>(owner->index));
    }
  }
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltDispatch, v->proc()->id(),
             static_cast<uint64_t>(v->index), static_cast<uint64_t>(best->id));
    TraceUlt(trace::Kind::kUltRunnable, v->proc()->id(),
             static_cast<uint64_t>(v->index), QueuedReady());
  }
  ChargeMgmt(v, charge, [this, v, best] {
    ++counters_.dispatches;
    best->resume_check = false;
    best->lazy_promote_charge = 0;
    ContinueThread(v, best);
  });
}

void FastThreads::ContinueThread(Vcpu* v, Tcb* t) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  SA_CHECK(v->current == nullptr);
  SA_CHECK(v->bound);
  t->vcpu = v;
  v->current = t;
  backend_->OnThreadLoaded(v, t);
  if (t->saved.valid()) {
    t->state = Tcb::State::kRunning;
    hw::SavedSpan saved = std::move(t->saved);
    t->saved.Clear();
    v->proc()->BeginSpan(saved.remaining, saved.mode, /*preemptible=*/true,
                         saved.critical_section, std::move(saved.on_complete));
    return;
  }
  if (t->waiting_lock != nullptr) {
    TrySpinAcquire(v, t);
    return;
  }
  t->state = Tcb::State::kRunning;
  StepAndInterpret(t);
}

void FastThreads::EnqueueReady(Vcpu* from, Tcb* t, bool front) {
  if (halted_) {
    return;  // dropped: the space is being torn down
  }
  SA_CHECK(t->state != Tcb::State::kReady && t->state != Tcb::State::kRunning);
  t->state = Tcb::State::kReady;
  t->vcpu = nullptr;
  // Wake an idle virtual processor if one exists (it gets the thread for
  // immediate dispatch); otherwise enqueue locally (LIFO, cache locality).
  for (auto& w : vcpus_) {
    // span_open() distinguishes a truly idle-spinning processor from one in
    // transition (mid-downcall or being preempted).
    if (w->bound && w->idle_spinning && w->proc()->span_open()) {
      w->idle_spinning = false;
      backend_->OnIdleWake(w.get());
      w->ready.PushFront(t);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltReady, w->proc()->id(),
                 static_cast<uint64_t>(t->id), QueuedReady());
        TraceUlt(trace::Kind::kUltIdleWake, w->proc()->id(),
                 static_cast<uint64_t>(w->index), static_cast<uint64_t>(t->id));
      }
      w->proc()->EndOpenSpan();
      Dispatch(w.get());
      return;
    }
  }
  // Lost-wakeup hardening: a vcpu whose backend is mid idle-downcall has
  // wakes blocked (idle_spinning false, span closed) but re-checks for work
  // via EndIdleTransition when the downcall returns.  Park the thread on
  // that vcpu's own list so the re-check finds it by construction — the
  // alternative (enqueue on `from`, rely on the re-check's remote-list scan)
  // made pickup depend on every transition path remembering to rescan.
  for (auto& w : vcpus_) {
    if (w->bound && w->idle_transition) {
      ++counters_.idle_handoffs;
      w->ready.PushFront(t);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltReady, w->proc()->id(),
                 static_cast<uint64_t>(t->id), QueuedReady());
      }
      return;
    }
  }
  Vcpu* target = (from != nullptr) ? from : vcpus_[0].get();
  if (front) {
    target->ready.PushFront(t);
  } else {
    target->ready.PushBack(t);
  }
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltReady,
             target->bound ? target->proc()->id() : -1,
             static_cast<uint64_t>(t->id), QueuedReady());
  }
}

void FastThreads::BeginIdleTransition(Vcpu* v) {
  v->idle_spinning = false;  // block wakes during the downcall
  v->idle_transition = true;
}

void FastThreads::EndIdleTransition(Vcpu* v) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  if (!v->idle_transition) {
    return;  // slot was unbound or rebound while the downcall was in flight
  }
  v->idle_transition = false;
  if (v->bound && v->current == nullptr) {
    Dispatch(v);  // picks up anything parked here (or elsewhere) meanwhile
  }
}

void FastThreads::NoteUnbound(Vcpu* v, int processor_id) {
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltUnbind, processor_id,
             static_cast<uint64_t>(v->index), 0);
  }
}

void FastThreads::StepAndInterpret(Tcb* t) {
  if (halted_) {
    ParkHalted(t->vcpu);
    return;
  }
  if (t->cs_recovery && t->cs_depth == 0) {
    FinishRecovery(t);
    return;
  }
  t->work->Step();
  Interpret(t);
}

void FastThreads::ResumeAfterKernel(Vcpu* v, Tcb* t) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  SA_CHECK(t->state == Tcb::State::kBlockedKernel);
  t->state = Tcb::State::kRunning;
  ++runnable_;
  StepAndInterpret(t);
}

// ---------------------------------------------------------------------------
// Operation interpretation.
// ---------------------------------------------------------------------------

void FastThreads::Interpret(Tcb* t) {
  if (halted_) {
    ParkHalted(t->vcpu);
    return;
  }
  Vcpu* v = t->vcpu;
  SA_CHECK(v != nullptr);
  const rt::Op& op = t->work->ctx.op;

  switch (op.kind) {
    case rt::OpKind::kCompute:
      v->proc()->BeginSpan(op.duration, hw::SpanMode::kUser, /*preemptible=*/true,
                           /*critical_section=*/t->cs_depth > 0,
                           [this, t] { StepAndInterpret(t); });
      break;
    case rt::OpKind::kFork:
      DoFork(t);
      break;
    case rt::OpKind::kForkLazy:
      DoForkLazy(t);
      break;
    case rt::OpKind::kJoin:
      DoJoin(t);
      break;
    case rt::OpKind::kAcquire:
      DoAcquire(t);
      break;
    case rt::OpKind::kRelease:
      DoRelease(t);
      break;
    case rt::OpKind::kWait:
      DoWait(t);
      break;
    case rt::OpKind::kSignal:
      DoSignal(t);
      break;
    case rt::OpKind::kIo:
      --runnable_;
      t->state = Tcb::State::kBlockedKernel;
      backend_->BlockIo(v, t, op.duration);
      break;
    case rt::OpKind::kPageFault: {
      if (as_->vm().IsResident(op.page)) {
        // Minor fault: a kernel trap on the backing context, then continue.
        kernel_->ChargeKernel(v->kt, kernel_->costs().kernel_trap,
                              [this, t] { StepAndInterpret(t); });
        break;
      }
      --runnable_;
      t->state = Tcb::State::kBlockedKernel;
      backend_->PageFault(v, t, op.page, op.duration);
      break;
    }
    case rt::OpKind::kKernelWait:
      backend_->KernelWait(v, t, op.sync_id);
      break;
    case rt::OpKind::kKernelSignal:
      backend_->KernelSignal(v, t, op.sync_id);
      break;
    case rt::OpKind::kYield:
      DoYield(t);
      break;
    case rt::OpKind::kDone:
      DoDone(t);
      break;
    case rt::OpKind::kNone:
      SA_CHECK_MSG(false, "workload suspended without an operation");
      break;
  }
}

void FastThreads::DoFork(Tcb* parent) {
  Vcpu* v = parent->vcpu;
  rt::WorkThread* child_work =
      table_.Create(parent->work->ctx.op.fork_fn, parent->work->ctx.op.fork_name);
  const sim::Duration charge =
      kernel_->costs().ult_fork_prep + backend_->ForkOverhead() + FlagCs(2);
  // Per-fork lifecycle attribution: every eager fork is dispatched fresh
  // exactly once and exits exactly once, so those costs are part of what a
  // fork *buys* and what lazy inlining avoids.
  counters_.fork_time +=
      charge + kernel_->costs().ult_dispatch + kernel_->costs().ult_exit;
  const int child_priority = parent->work->ctx.op.fork_priority;
  ChargeMgmt(v, charge, [this, parent, child_work, child_priority] {
    Vcpu* v2 = parent->vcpu;
    Tcb* child = AllocTcb(v2, child_work);
    child->priority = child_priority;
    if (child_priority != 0) {
      has_priorities_ = true;
    }
    ++runnable_;
    ++counters_.forks;
    EnqueueReady(v2, child);
    parent->work->ctx.last_forked_tid = child_work->tid();
    backend_->NotifyParallelism(v2, [this, parent] { StepAndInterpret(parent); });
  });
}

// Heartbeat promotion (DESIGN.md §17).
// ---------------------------------------------------------------------------

void FastThreads::DoForkLazy(Tcb* parent) {
  Vcpu* v = parent->vcpu;
  rt::WorkThread* child_work =
      table_.Create(parent->work->ctx.op.fork_fn, parent->work->ctx.op.fork_name);
  // Sequential-by-default: no TCB, no enqueue, no parallelism downcall —
  // just a frame on this processor's promotion stack, at procedure-call
  // scale.  The full fork cost is deferred to promotion (if any).
  counters_.fork_time += kernel_->costs().ult_lazy_push + FlagCs(1);
  ChargeMgmt(v, kernel_->costs().ult_lazy_push + FlagCs(1),
             [this, parent, child_work] {
               Vcpu* v2 = parent->vcpu;
               const uint64_t seq = lazy_seq_++;
               v2->lazy_frames.push_back(LazyFrame{child_work, seq});
               ++lazy_outstanding_;
               ++counters_.lazy_forks;
               kernel_->engine().TraceEmit(
                   trace::cat::kHeartbeat, trace::Kind::kHbLazyFork,
                   v2->bound ? v2->proc()->id() : -1, as_->id(),
                   static_cast<uint64_t>(child_work->tid()), seq);
               ArmHeartbeat();
               // Latent parallelism becomes real the moment a processor has
               // nothing to do: pushing a frame never wakes anyone, so an
               // already-idle vcpu would otherwise sit until the next beat.
               PromoteForIdleVcpu();
               parent->work->ctx.last_forked_tid = child_work->tid();
               StepAndInterpret(parent);
             });
}

void FastThreads::PromoteForIdleVcpu() {
  for (auto& w : vcpus_) {
    if (!w->bound || !w->idle_spinning || !w->proc()->span_open()) {
      continue;
    }
    LazyFrame frame;
    Vcpu* owner = nullptr;
    if (!PopOldestLazyFrame(&frame, &owner)) {
      return;
    }
    Tcb* t = PromoteFrame(frame, owner, trace::HbPromoteSource::kDrain,
                          w->proc()->id());
    EnqueueReady(owner, t);  // finds the idle vcpu and wakes it
    return;
  }
}

bool FastThreads::TakeLazyFrame(int tid, LazyFrame* out) {
  for (auto& v : vcpus_) {
    for (auto it = v->lazy_frames.begin(); it != v->lazy_frames.end(); ++it) {
      if (it->work->tid() == tid) {
        *out = *it;
        v->lazy_frames.erase(it);
        --lazy_outstanding_;
        return true;
      }
    }
  }
  return false;
}

bool FastThreads::PopOldestLazyFrame(LazyFrame* out, Vcpu** owner) {
  Vcpu* best = nullptr;
  for (auto& v : vcpus_) {
    if (v->lazy_frames.empty()) {
      continue;
    }
    if (best == nullptr ||
        v->lazy_frames.front().seq < best->lazy_frames.front().seq) {
      best = v.get();
    }
  }
  if (best == nullptr) {
    return false;
  }
  *out = best->lazy_frames.front();
  best->lazy_frames.erase(best->lazy_frames.begin());
  *owner = best;
  --lazy_outstanding_;
  return true;
}

Tcb* FastThreads::PromoteFrame(const LazyFrame& frame, Vcpu* home,
                               trace::HbPromoteSource source, int promoting_cpu) {
  Tcb* t = AllocTcb(home, frame.work);
  // The deferred fork: TCB allocation + enqueue, exactly what DoFork charges
  // up front.  Carried on the TCB and paid at its first dispatch (promotion
  // itself runs asynchronously — there is no open span to charge here).
  t->lazy_promote_charge =
      kernel_->costs().ult_fork_prep + backend_->ForkOverhead() + FlagCs(2);
  counters_.fork_time += t->lazy_promote_charge +  // paid at first dispatch
                         kernel_->costs().ult_dispatch +
                         kernel_->costs().ult_exit;
  ++runnable_;
  // Processor-demand promotions (a dry stealer, or an idle vcpu noticed at
  // push time) vs rate-limited heartbeat promotions.
  if (source == trace::HbPromoteSource::kBeat) {
    ++counters_.lazy_promotions;
  } else {
    ++counters_.lazy_steal_promotions;
  }
  kernel_->engine().TraceEmit(trace::cat::kHeartbeat, trace::Kind::kHbPromote,
                              promoting_cpu, as_->id(),
                              static_cast<uint64_t>(frame.work->tid()),
                              static_cast<uint64_t>(source));
  return t;
}

void FastThreads::ArmHeartbeat() {
  if (hb_armed_ || config_.heartbeat_us <= 0 || halted_) {
    return;
  }
  hb_armed_ = true;
  heartbeat_ = kernel_->engine().ScheduleAfter(
      sim::Usec(config_.heartbeat_us), [this] { OnHeartbeat(); });
}

void FastThreads::OnHeartbeat() {
  hb_armed_ = false;
  if (halted_ || lazy_outstanding_ == 0) {
    return;  // nothing to promote; re-armed by the next lazy fork
  }
  LazyFrame frame;
  Vcpu* owner = nullptr;
  SA_CHECK(PopOldestLazyFrame(&frame, &owner));
  Tcb* t = PromoteFrame(frame, owner, trace::HbPromoteSource::kBeat,
                        owner->bound ? owner->proc()->id() : -1);
  EnqueueReady(owner, t);
  if (lazy_outstanding_ > 0) {
    ArmHeartbeat();
  }
}

void FastThreads::DoneInline(Tcb* t) {
  Vcpu* v = t->vcpu;
  rt::WorkThread* child = t->work;
  // Inline (pcall) return: pop back to the caller body at procedure-return
  // scale.  Joiners other than the inliner (threads that blocked on this tid
  // after the frame was taken) are woken exactly as a real exit would.
  const sim::Duration charge =
      kernel_->costs().ult_lazy_inline +
      static_cast<sim::Duration>(child->joiners.size()) * kernel_->costs().ult_signal;
  counters_.fork_time += charge;
  ChargeMgmt(v, charge, [this, t, child] {
    Vcpu* v2 = t->vcpu;
    child->finished = true;
    table_.NoteFinished();
    for (rt::WorkThread* jw : child->joiners) {
      Tcb* joiner = static_cast<Tcb*>(jw->impl);
      ++runnable_;
      joiner->resume_check = true;
      EnqueueReady(v2, joiner);
    }
    child->joiners.clear();
    child->impl = nullptr;
    t->work = t->work_stack.back();
    t->work_stack.pop_back();
    // The caller was suspended at its Join of this child; the inline return
    // satisfies it (a procedure return), so continue the caller directly.
    StepAndInterpret(t);
  });
}

// ---------------------------------------------------------------------------

void FastThreads::DoJoin(Tcb* t) {
  Vcpu* v = t->vcpu;
  const int target_tid = t->work->ctx.op.target_tid;
  rt::WorkThread* target = table_.Get(target_tid);
  if (target->finished) {
    counters_.fork_time += kernel_->costs().procedure_call;
    ChargeMgmt(v, kernel_->costs().procedure_call, [this, t] { StepAndInterpret(t); });
    return;
  }
  if (lazy_outstanding_ > 0) {
    LazyFrame frame;
    if (TakeLazyFrame(target_tid, &frame)) {
      // The join reached an unpromoted frame: run the child inline on this
      // TCB (pcall semantics) — the fork+join pair collapses to a procedure
      // call, which is the entire economic point of lazy forking.
      ++counters_.lazy_inlines;
      kernel_->engine().TraceEmit(trace::cat::kHeartbeat, trace::Kind::kHbInline,
                                  v->bound ? v->proc()->id() : -1, as_->id(),
                                  static_cast<uint64_t>(target_tid), frame.seq);
      rt::WorkThread* child = frame.work;
      counters_.fork_time += kernel_->costs().ult_lazy_inline + FlagCs(1);
      ChargeMgmt(v, kernel_->costs().ult_lazy_inline + FlagCs(1),
                 [this, t, child] {
                   t->work_stack.push_back(t->work);
                   t->work = child;
                   child->impl = t;
                   StepAndInterpret(t);
                 });
      return;
    }
  }
  const sim::Duration charge = kernel_->costs().ult_wait + backend_->WaitOverhead();
  counters_.fork_time +=
      charge + kernel_->costs().ult_signal + kernel_->costs().ult_dispatch;
  ChargeMgmt(v, charge, [this, t, target] {
    Vcpu* v2 = t->vcpu;
    if (target->finished) {  // finished while we were blocking
      StepAndInterpret(t);
      return;
    }
    target->joiners.push_back(t->work);
    --runnable_;
    t->state = Tcb::State::kBlockedSync;
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    Dispatch(v2);
  });
}

void FastThreads::DoAcquire(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltLock* lock = locks_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ChargeMgmt(v, kernel_->costs().ult_lock_acquire, [this, t, lock] {
    Vcpu* v2 = t->vcpu;
    if (lock->kind == rt::LockKind::kSpin) {
      if (lock->owner == nullptr) {
        lock->owner = t;
        ++t->cs_depth;
        ++counters_.spin_acquires;
        StepAndInterpret(t);
        return;
      }
      ++counters_.spin_contended;
      t->waiting_lock = lock;
      lock->spinners.push_back(t);
      t->state = Tcb::State::kSpinning;
      t->actively_spinning = true;
      v2->proc()->BeginOpenSpan(hw::SpanMode::kSpin);
      return;
    }
    // Mutex: block at user level under contention.
    if (lock->owner == nullptr) {
      lock->owner = t;
      StepAndInterpret(t);
      return;
    }
    lock->waiters.PushBack(t);
    --runnable_;
    t->state = Tcb::State::kBlockedSync;
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    Dispatch(v2);
  });
}

void FastThreads::TrySpinAcquire(Vcpu* v, Tcb* t) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  UltLock* lock = t->waiting_lock;
  SA_CHECK(lock != nullptr);
  if (lock->owner == nullptr) {
    for (auto it = lock->spinners.begin(); it != lock->spinners.end(); ++it) {
      if (*it == t) {
        lock->spinners.erase(it);
        break;
      }
    }
    lock->owner = t;
    t->waiting_lock = nullptr;
    t->actively_spinning = false;
    ++t->cs_depth;
    ++counters_.spin_acquires;
    t->state = Tcb::State::kRunning;
    ChargeMgmt(v, kernel_->costs().ult_lock_acquire, [this, t] { StepAndInterpret(t); });
    return;
  }
  t->state = Tcb::State::kSpinning;
  t->actively_spinning = true;
  v->proc()->BeginOpenSpan(hw::SpanMode::kSpin);
}

void FastThreads::GrantSpinLock(UltLock* lock) {
  if (halted_) {
    return;
  }
  if (lock->owner != nullptr) {
    return;
  }
  for (auto it = lock->spinners.begin(); it != lock->spinners.end(); ++it) {
    Tcb* winner = *it;
    if (!winner->actively_spinning) {
      continue;  // lost its processor; it will re-check when resumed
    }
    lock->spinners.erase(it);
    lock->owner = winner;
    winner->waiting_lock = nullptr;
    winner->actively_spinning = false;
    ++winner->cs_depth;
    ++counters_.spin_acquires;
    Vcpu* wv = winner->vcpu;
    wv->proc()->EndOpenSpan();
    ChargeMgmt(wv, kernel_->costs().ult_lock_acquire, [this, winner] {
      winner->state = Tcb::State::kRunning;
      StepAndInterpret(winner);
    });
    return;
  }
}

void FastThreads::DoRelease(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltLock* lock = locks_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ChargeMgmt(v, kernel_->costs().ult_lock_release, [this, t, lock] {
    SA_CHECK_MSG(lock->owner == t, "release by non-owner");
    lock->owner = nullptr;
    if (lock->kind == rt::LockKind::kSpin) {
      --t->cs_depth;
      SA_CHECK(t->cs_depth >= 0);
      GrantSpinLock(lock);
      StepAndInterpret(t);
      return;
    }
    Tcb* next = lock->waiters.PopFront();
    if (next != nullptr) {
      lock->owner = next;
      ++runnable_;
      next->resume_check = true;
      EnqueueReady(t->vcpu, next);
    }
    StepAndInterpret(t);
  });
}

void FastThreads::DoWait(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltSem* sem = sems_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  const sim::Duration charge = kernel_->costs().ult_wait + backend_->WaitOverhead();
  ++counters_.waits;
  ChargeMgmt(v, charge, [this, t, sem] {
    if (sem->pending > 0) {
      --sem->pending;
      StepAndInterpret(t);
      return;
    }
    Vcpu* v2 = t->vcpu;
    sem->waiters.PushBack(t);
    --runnable_;
    t->state = Tcb::State::kBlockedSync;
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    Dispatch(v2);
  });
}

void FastThreads::DoSignal(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltSem* sem = sems_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ++counters_.signals;
  Tcb* waiter = sem->waiters.Front();
  const sim::Duration charge =
      kernel_->costs().ult_signal + (waiter != nullptr ? FlagCs(1) : 0);
  ChargeMgmt(v, charge, [this, t, sem] {
    Vcpu* v2 = t->vcpu;
    Tcb* next = sem->waiters.PopFront();
    if (next == nullptr) {
      ++sem->pending;
      StepAndInterpret(t);
      return;
    }
    ++runnable_;
    next->resume_check = true;
    EnqueueReady(v2, next);
    backend_->NotifyParallelism(v2, [this, t] { StepAndInterpret(t); });
  });
}

void FastThreads::DoYield(Tcb* t) {
  Vcpu* v = t->vcpu;
  ChargeMgmt(v, kernel_->costs().ult_dispatch, [this, t] {
    Vcpu* v2 = t->vcpu;
    t->state = Tcb::State::kReady;
    t->vcpu = nullptr;
    v2->ready.PushBack(t);  // back of the list: round-robin among peers
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltReady, v2->proc()->id(),
               static_cast<uint64_t>(t->id), QueuedReady());
    }
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    Dispatch(v2);
  });
}

void FastThreads::DoDone(Tcb* t) {
  if (!t->work_stack.empty()) {
    DoneInline(t);  // an inline (pcall) body finished, not the TCB itself
    return;
  }
  Vcpu* v = t->vcpu;
  rt::WorkThread* w = t->work;
  const sim::Duration charge = kernel_->costs().ult_exit + FlagCs(1) +
                               static_cast<sim::Duration>(w->joiners.size()) *
                                   kernel_->costs().ult_signal;
  ChargeMgmt(v, charge, [this, t, w] {
    Vcpu* v2 = t->vcpu;
    ++counters_.exits;
    w->finished = true;
    table_.NoteFinished();
    --runnable_;
    t->state = Tcb::State::kDone;
    for (rt::WorkThread* jw : w->joiners) {
      Tcb* joiner = static_cast<Tcb*>(jw->impl);
      ++runnable_;
      joiner->resume_check = true;
      EnqueueReady(v2, joiner);
    }
    w->joiners.clear();
    if (on_thread_done) {
      on_thread_done(t);
    }
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    FreeTcb(v2, t);
    Dispatch(v2);
  });
}

// ---------------------------------------------------------------------------
// Critical-section recovery (Section 3.3).
// ---------------------------------------------------------------------------

void FastThreads::RecoverOrReady(Vcpu* v, Tcb* t, std::function<void(Vcpu*)> after) {
  if (halted_) {
    ParkHalted(v);
    return;
  }
  if (t->cs_depth > 0) {
    // The stopped thread holds a spinlock: continue it via a user-level
    // context switch until it exits the critical section (deadlock freedom;
    // the check happens before the handler takes any locks).
    ++kernel_->counters().cs_recoveries;
    t->cs_recovery = true;
    t->recovery_after = std::move(after);
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltCsRecover, v->proc()->id(),
               static_cast<uint64_t>(v->index), static_cast<uint64_t>(t->id));
    }
    ChargeMgmt(v, kernel_->costs().ult_dispatch, [this, v, t] { ContinueThread(v, t); });
    return;
  }
  t->resume_check = true;
  EnqueueReady(v, t);
  after(v);
}

void FastThreads::FinishRecovery(Tcb* t) {
  SA_CHECK(t->cs_recovery && t->cs_depth == 0);
  t->cs_recovery = false;
  Vcpu* v = t->vcpu;
  v->current = nullptr;
  backend_->OnThreadUnloaded(v);
  t->state = Tcb::State::kStopped;  // leaves kRunning before re-queueing
  t->resume_check = true;
  EnqueueReady(v, t);
  std::function<void(Vcpu*)> after = std::move(t->recovery_after);
  t->recovery_after = nullptr;
  // Relinquish control back to the original upcall via a user-level switch.
  ChargeMgmt(v, kernel_->costs().ult_dispatch, [v, after = std::move(after)] { after(v); });
}

}  // namespace sa::ult
