#include "src/kern/kernel.h"

#include <utility>

#include "src/common/log.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"

namespace sa::kern {

namespace {
constexpr const char* kLog = "kern";
}  // namespace

Kernel::Kernel(hw::Machine* machine, Config config)
    : machine_(machine), config_(std::move(config)) {
  const size_t n = static_cast<size_t>(machine_->num_processors());
  running_.assign(n, nullptr);
  pending_.assign(n, PendingAction{});
  owner_.assign(n, nullptr);
  for (int i = 0; i < machine_->num_processors(); ++i) {
    machine_->processor(i)->set_interrupt_handler(
        [this](hw::Processor* proc, hw::Interrupt irq) { OnInterrupt(proc, std::move(irq)); });
  }
  if (config_.lending.enabled) {
    SA_CHECK_MSG(config_.mode == KernelMode::kSchedulerActivations,
                 "cross-space lending requires the explicit allocator");
    SA_CHECK_MSG(!config_.affinity_allocation,
                 "cross-space lending rides the incremental allocator paths");
  }
  if (config_.mode == KernelMode::kSchedulerActivations) {
    allocator_ = std::make_unique<ProcessorAllocator>(this);
    for (int i = 0; i < machine_->num_processors(); ++i) {
      allocator_->AddFree(machine_->processor(i));
    }
  }
  reaper_ = std::make_unique<SpaceReaper>(this);
}

Kernel::~Kernel() = default;

sim::Duration Kernel::CreateCost(const AddressSpace* as) const {
  return as->heavyweight() ? costs().proc_create : costs().kt_create;
}
sim::Duration Kernel::ExitCost(const AddressSpace* as) const {
  return as->heavyweight() ? costs().proc_exit : costs().kt_exit;
}
sim::Duration Kernel::DispatchCost(const AddressSpace* as) const {
  return as->heavyweight() ? costs().proc_dispatch : costs().kt_dispatch;
}
sim::Duration Kernel::BlockCost(const AddressSpace* as) const {
  return as->heavyweight() ? costs().proc_block : costs().kt_block;
}
sim::Duration Kernel::WakeupCost(const AddressSpace* as) const {
  return as->heavyweight() ? costs().proc_wakeup : costs().kt_wakeup;
}

sim::Duration Kernel::UpcallCost() const {
  return config_.tuned_upcalls ? costs().TunedUpcall() : costs().sa_upcall;
}

AddressSpace* Kernel::CreateAddressSpace(const std::string& name, AsMode mode, int priority) {
  SA_CHECK_MSG(mode == AsMode::kKernelThreads || config_.mode == KernelMode::kSchedulerActivations,
               "scheduler-activation spaces require the modified kernel");
  auto as = std::make_unique<AddressSpace>(static_cast<int>(spaces_.size()), name, mode, priority);
  AddressSpace* raw = as.get();
  spaces_.push_back(std::move(as));
  if (allocator_ != nullptr) {
    allocator_->RegisterSpace(raw);
  }
  SA_INFO(kLog, "address space %s created (mode=%s, prio=%d)", raw->name().c_str(),
          mode == AsMode::kKernelThreads ? "kt" : "sa", priority);
  return raw;
}

KThread* Kernel::CreateThread(AddressSpace* as, KThreadHost* host, void* host_data) {
  auto kt = std::make_unique<KThread>(next_thread_id_++, as, host);
  kt->set_host_data(host_data);
  kt->set_priority(as->priority());
  ++live_threads_;
  return as->AddThread(std::move(kt));
}

void Kernel::StartThread(KThread* kt) {
  SA_CHECK(kt->state() == KThreadState::kBorn);
  MakeReady(kt);
}

Kernel::Domain* Kernel::DomainFor(AddressSpace* as) {
  if (config_.mode == KernelMode::kNativeTopaz) {
    return &global_domain_;
  }
  SA_CHECK_MSG(as->mode() == AsMode::kKernelThreads,
               "scheduler-activation spaces have no kernel ready queue");
  // Domains are append-only, so the index cached on the space stays valid
  // for its lifetime; the lookup must be O(1) or scheduling a machine full
  // of kt tenants degrades to O(spaces) per dispatch.
  const int cached = as->kt_domain_index();
  if (cached >= 0) {
    return kt_domains_[static_cast<size_t>(cached)].get();
  }
  as->set_kt_domain_index(static_cast<int>(kt_domains_.size()));
  kt_domains_.push_back(std::make_unique<Domain>());
  kt_domains_.back()->as = as;
  return kt_domains_.back().get();
}

Kernel::Domain* Kernel::DomainOfProcessor(hw::Processor* proc) {
  if (config_.mode == KernelMode::kNativeTopaz) {
    return &global_domain_;
  }
  AddressSpace* as = owner_[static_cast<size_t>(proc->id())];
  if (as == nullptr || as->mode() != AsMode::kKernelThreads) {
    return nullptr;
  }
  return DomainFor(as);
}

void Kernel::AssignProcessor(hw::Processor* proc, AddressSpace* as) {
  SA_CHECK(owner_[static_cast<size_t>(proc->id())] == nullptr);
  owner_[static_cast<size_t>(proc->id())] = as;
  as->AddAssigned(proc);
  engine().TraceEmit(trace::cat::kAlloc, trace::Kind::kProcGrant, proc->id(),
                     as->id(), static_cast<uint64_t>(as->assigned().size()));
  if (allocator_ != nullptr) {
    allocator_->OnAssignedChanged(as, proc, +1);
  }
}

void Kernel::UnassignProcessor(hw::Processor* proc) {
  AddressSpace* as = owner_[static_cast<size_t>(proc->id())];
  SA_CHECK(as != nullptr);
  as->RemoveAssigned(proc);
  owner_[static_cast<size_t>(proc->id())] = nullptr;
  engine().TraceEmit(trace::cat::kAlloc, trace::Kind::kProcRevoke, proc->id(),
                     as->id(), static_cast<uint64_t>(as->assigned().size()));
  if (allocator_ != nullptr) {
    allocator_->OnAssignedChanged(as, proc, -1);
  }
  if (as->reaped()) {
    reaper_->NoteProcessorDetached(as);
  }
}

AddressSpace* Kernel::OwnerOf(const hw::Processor* proc) const {
  return owner_[static_cast<size_t>(proc->id())];
}

// ---------------------------------------------------------------------------
// Scheduling (kernel-thread spaces).
// ---------------------------------------------------------------------------

hw::Processor* Kernel::FindIdleProcessorFor(AddressSpace* as) {
  auto usable = [this](hw::Processor* p) {
    return running_on(p) == nullptr && !p->has_span() &&
           pending_[static_cast<size_t>(p->id())].kind == PendingAction::Kind::kNone &&
           !p->interrupt_latched();
  };
  if (config_.mode == KernelMode::kNativeTopaz) {
    for (int i = 0; i < machine_->num_processors(); ++i) {
      hw::Processor* p = machine_->processor(i);
      if (usable(p)) {
        return p;
      }
    }
    return nullptr;
  }
  for (hw::Processor* p : as->assigned()) {
    if (usable(p)) {
      return p;
    }
  }
  return nullptr;
}

bool Kernel::PlaceHighPriority(KThread* kt) {
  // Native Topaz models interrupt-local wakeup: the wakeup lands on an
  // arbitrary processor.  If that processor runs lower-priority work it is
  // preempted — even if another processor is idle — which is exactly the
  // behaviour the paper observed for daemon threads under the native
  // scheduler (Section 5.3, Figure 1 discussion).
  const int victim_id =
      static_cast<int>(machine_->rng().Below(static_cast<uint64_t>(machine_->num_processors())));
  hw::Processor* victim = machine_->processor(victim_id);
  KThread* current = running_on(victim);
  if (current == nullptr && !victim->has_span() &&
      pending_[static_cast<size_t>(victim_id)].kind == PendingAction::Kind::kNone) {
    ChargeDispatchAndRun(victim, kt);
    return true;
  }
  if (current != nullptr && current->priority() < kt->priority()) {
    PendingAction action;
    action.kind = PendingAction::Kind::kDispatchThread;
    action.thread = kt;
    if (RequestPreemption(victim, action)) {
      return true;
    }
  }
  // Fall back to an idle processor anywhere.
  hw::Processor* idle = FindIdleProcessorFor(kt->address_space());
  if (idle != nullptr) {
    ChargeDispatchAndRun(idle, kt);
    return true;
  }
  return false;
}

void Kernel::MakeReady(KThread* kt) {
  AddressSpace* as = kt->address_space();
  if (as->reaped()) {
    return;  // a reaped space's threads never become runnable again
  }
  SA_CHECK_MSG(as->mode() == AsMode::kKernelThreads || config_.mode == KernelMode::kNativeTopaz,
               "activations are not scheduled through kernel ready queues");
  SA_CHECK(kt->state() != KThreadState::kReady && kt->state() != KThreadState::kRunning);
  kt->set_state(KThreadState::kReady);
  ++as->runnable_threads;
  UpdateKtDemand(as);
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kThreadReady, -1,
                     as->id(), static_cast<uint64_t>(kt->id()));

  if (config_.mode == KernelMode::kNativeTopaz && kt->priority() > 0) {
    if (PlaceHighPriority(kt)) {
      return;
    }
    DomainFor(as)->ready.PushBack(kt);
    return;
  }

  hw::Processor* idle = FindIdleProcessorFor(as);
  if (idle != nullptr) {
    Domain* domain = DomainFor(as);
    if (domain->ready.empty()) {
      ChargeDispatchAndRun(idle, kt);
    } else {
      // FIFO: an older ready thread (e.g. one requeued after a revocation
      // preemption) runs first; the new arrival takes its queue turn.
      domain->ready.PushBack(kt);
      DispatchOn(idle);
    }
    return;
  }
  DomainFor(as)->ready.PushBack(kt);
}

sim::Duration Kernel::NoteMigration(hw::Processor* proc, const KThread* kt) {
  const hw::Topology& topo = machine_->topology();
  if (!topo.hierarchical() || kt->processor() == nullptr) {
    return 0;
  }
  const int from = kt->processor()->id();
  const int to = proc->id();
  if (from == to) {
    return 0;
  }
  if (topo.SameSocket(from, to)) {
    ++counters_.migrations_core;
    engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocMigrateCore, to,
                       kt->address_space()->id(), static_cast<uint64_t>(kt->id()),
                       static_cast<uint64_t>(from));
  } else {
    ++counters_.migrations_socket;
    engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocMigrateSocket, to,
                       kt->address_space()->id(), static_cast<uint64_t>(kt->id()),
                       static_cast<uint64_t>(from));
  }
  const sim::Duration penalty = topo.MigrationPenalty(from, to);
  counters_.migration_penalty_time += penalty;
  if (allocator_ != nullptr) {
    allocator_->NoteSpaceMigration(kt->address_space());
  }
  return penalty;
}

void Kernel::ChargeDispatchAndRun(hw::Processor* proc, KThread* kt) {
  SA_CHECK(running_on(proc) == nullptr);
  SA_CHECK(kt->state() == KThreadState::kReady);
  const sim::Duration migration = NoteMigration(proc, kt);
  SetRunning(proc, kt);
  kt->set_processor(proc);
  kt->set_state(KThreadState::kRunning);
  ++counters_.dispatches;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kDispatch, proc->id(),
                     kt->address_space()->id(), static_cast<uint64_t>(kt->id()));
  proc->BeginKernelSpan(DispatchCost(kt->address_space()) + migration,
                        [this, kt] { RunThread(kt); });
}

void Kernel::RunThread(KThread* kt) {
  kt->bump_dispatch_seq();
  ArmQuantum(kt->processor(), kt);
  kt->host()->RunOn(kt);
}

void Kernel::RunContextOn(hw::Processor* proc, KThread* kt, sim::Duration extra_kernel_cost) {
  SA_CHECK(running_on(proc) == nullptr);
  extra_kernel_cost += NoteMigration(proc, kt);
  SetRunning(proc, kt);
  kt->set_processor(proc);
  kt->set_state(KThreadState::kRunning);
  if (extra_kernel_cost > 0) {
    proc->BeginKernelSpan(extra_kernel_cost, [this, kt] { RunThread(kt); });
  } else {
    RunThread(kt);
  }
}

void Kernel::ArmQuantum(hw::Processor* proc, KThread* kt) {
  if (DomainOfProcessor(proc) == nullptr) {
    return;  // processor controlled by scheduler activations: no time-slicing
  }
  const uint64_t seq = kt->dispatch_seq();
  const int proc_id = proc->id();
  engine().ScheduleIn(costs().kt_quantum,
                         [this, proc_id, kt, seq] { OnQuantumFire(proc_id, kt, seq); });
}

void Kernel::OnQuantumFire(int proc_id, KThread* kt, uint64_t seq) {
  hw::Processor* proc = machine_->processor(proc_id);
  if (running_on(proc) != kt || kt->dispatch_seq() != seq ||
      kt->state() != KThreadState::kRunning) {
    return;  // stale timer
  }
  Domain* domain = DomainOfProcessor(proc);
  if (domain == nullptr) {
    return;
  }
  if (domain->ready.empty() || pending_[static_cast<size_t>(proc_id)].kind !=
                                   PendingAction::Kind::kNone) {
    // Nothing to rotate to (or the processor is already being preempted);
    // check again a quantum later.
    engine().ScheduleIn(costs().kt_quantum,
                           [this, proc_id, kt, seq] { OnQuantumFire(proc_id, kt, seq); });
    return;
  }
  ++counters_.timeslices;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kTimeslice, proc_id,
                     kt->address_space()->id(), static_cast<uint64_t>(kt->id()));
  PendingAction action;
  action.kind = PendingAction::Kind::kTimeslice;
  RequestPreemption(proc, action);
}

void Kernel::DispatchOn(hw::Processor* proc) {
  SA_CHECK(!proc->has_span());
  const size_t pid = static_cast<size_t>(proc->id());
  if (proc->ConsumeLatchedInterrupt()) {
    PendingAction action = std::exchange(pending_[pid], PendingAction{});
    if (action.kind != PendingAction::Kind::kNone) {
      HandleAction(proc, action, /*stopped=*/nullptr);
      return;
    }
  }
  AddressSpace* owner = OwnerOf(proc);
  if (owner != nullptr && owner->reaped()) {
    // Catch-all for teardown: a processor of a quarantined space that
    // reaches a dispatch point with no revocation latched is detached here.
    // Any still-pending action belonged to the dead space; drop it so its
    // IPI cannot fire against the processor's next owner.
    pending_[pid] = PendingAction{};
    ClearRunning(proc);
    UnassignProcessor(proc);
    proc->BeginKernelSpan(costs().preempt_interrupt, [this, owner, proc] {
      allocator_->OnRevokeComplete(owner, proc);
    });
    return;
  }
  Domain* domain = DomainOfProcessor(proc);
  if (domain == nullptr) {
    // Unowned processor (free pool) or SA-controlled: nothing to dispatch.
    ClearRunning(proc);
    return;
  }
  KThread* next = domain->ready.PopFront();
  if (next == nullptr) {
    ClearRunning(proc);
    if (domain->as != nullptr) {
      UpdateKtDemand(domain->as);
    }
    return;
  }
  ChargeDispatchAndRun(proc, next);
}

// ---------------------------------------------------------------------------
// Preemption machinery.
// ---------------------------------------------------------------------------

bool Kernel::RequestPreemption(hw::Processor* proc, PendingAction action) {
  const size_t pid = static_cast<size_t>(proc->id());
  if (pending_[pid].kind != PendingAction::Kind::kNone || proc->interrupt_latched()) {
    return false;
  }
  pending_[pid] = action;
  // Delivery is deferred to a zero-delay event: an inter-processor interrupt
  // never lands in the middle of the current instruction.  This lets any
  // in-flight syscall continuation on `proc` start its next span first; the
  // interrupt then preempts that span cleanly.
  engine().ScheduleIn(0, [this, proc] {
    if (pending_[static_cast<size_t>(proc->id())].kind == PendingAction::Kind::kNone) {
      return;  // already handled (e.g. consumed at a dispatch point)
    }
    if (proc->interrupt_latched()) {
      return;  // will fire at the next preemptible boundary
    }
    proc->RequestInterrupt();
  });
  return true;
}

void Kernel::OnInterrupt(hw::Processor* proc, hw::Interrupt irq) {
  const size_t pid = static_cast<size_t>(proc->id());
  PendingAction action = std::exchange(pending_[pid], PendingAction{});
  SA_CHECK_MSG(action.kind != PendingAction::Kind::kNone,
               "interrupt delivered with no pending action");
  ++counters_.preempt_interrupts;

  KThread* stopped = nullptr;
  KThread* kt = running_on(proc);
  if (kt != nullptr && !irq.was_idle && !kt->address_space()->reaped()) {
    // A reaped space's context is not saved and not notified: the thread is
    // already dead, so the interrupt just strips the processor (stopped
    // stays null and the action below treats it as caught-between-spans).
    kt->host()->OnPreempted(kt, std::move(irq));
    stopped = kt;
  }
  ClearRunning(proc);
  HandleAction(proc, action, stopped);
}

void Kernel::HandleAction(hw::Processor* proc, PendingAction action, KThread* stopped) {
  switch (action.kind) {
    case PendingAction::Kind::kNone:
      SA_UNREACHABLE();
      break;

    case PendingAction::Kind::kTimeslice: {
      if (stopped != nullptr) {
        stopped->set_state(KThreadState::kReady);
        DomainFor(stopped->address_space())->ready.PushBack(stopped);
      }
      proc->BeginKernelSpan(costs().preempt_interrupt, [this, proc] { DispatchOn(proc); });
      break;
    }

    case PendingAction::Kind::kDispatchThread: {
      if (stopped != nullptr) {
        stopped->set_state(KThreadState::kReady);
        DomainFor(stopped->address_space())->ready.PushBack(stopped);
      }
      KThread* target = action.thread;
      if (target->state() != KThreadState::kReady) {
        // The target died (space reaped) between the request and delivery.
        proc->BeginKernelSpan(costs().preempt_interrupt, [this, proc] { DispatchOn(proc); });
        break;
      }
      proc->BeginKernelSpan(costs().preempt_interrupt,
                            [this, proc, target] { ChargeDispatchAndRun(proc, target); });
      break;
    }

    case PendingAction::Kind::kRevoke: {
      AddressSpace* old_as = OwnerOf(proc);
      if (old_as != nullptr) {
        UnassignProcessor(proc);
      }
      const bool notify = old_as != nullptr && !old_as->reaped() &&
                          old_as->mode() == AsMode::kSchedulerActivations;
      if (stopped != nullptr) {
        if (notify) {
          stopped->set_state(KThreadState::kStopped);
          old_as->sa()->OnProcessorRevoked(proc, stopped);
        } else if (!stopped->address_space()->reaped()) {
          stopped->set_state(KThreadState::kReady);
          DomainFor(stopped->address_space())->ready.PushBack(stopped);
          // The space may still own an idle processor (e.g. one vacated
          // between the revocation decision and this interrupt); without a
          // kick the requeued thread would wait for an unrelated event.
          hw::Processor* idle = FindIdleProcessorFor(stopped->address_space());
          if (idle != nullptr) {
            DispatchOn(idle);
          }
        }
      } else if (notify) {
        old_as->sa()->OnProcessorRevoked(proc, nullptr);
      }
      proc->BeginKernelSpan(costs().preempt_interrupt, [this, proc, old_as] {
        allocator_->OnRevokeComplete(old_as, proc);
      });
      break;
    }

    case PendingAction::Kind::kLoanReclaim: {
      // Instant-reclaim fast path (DESIGN.md §16): the lender's demand
      // returned, so the borrower loses the loaned processor with a single
      // preempt upcall — the ledger settles here and the processor goes
      // straight back to the lender, with no grant-loop renegotiation.
      AddressSpace* old_as = OwnerOf(proc);
      allocator_->OnLoanReclaimPreempted(proc, action.loan_epoch);
      if (old_as != nullptr) {
        UnassignProcessor(proc);
      }
      const bool notify = old_as != nullptr && !old_as->reaped() &&
                          old_as->mode() == AsMode::kSchedulerActivations;
      if (stopped != nullptr) {
        if (notify) {
          stopped->set_state(KThreadState::kStopped);
          old_as->sa()->OnProcessorRevoked(proc, stopped);
        } else if (!stopped->address_space()->reaped()) {
          stopped->set_state(KThreadState::kReady);
          DomainFor(stopped->address_space())->ready.PushBack(stopped);
          hw::Processor* idle = FindIdleProcessorFor(stopped->address_space());
          if (idle != nullptr) {
            DispatchOn(idle);
          }
        }
      } else if (notify) {
        old_as->sa()->OnProcessorRevoked(proc, nullptr);
      }
      proc->BeginKernelSpan(costs().preempt_interrupt + costs().loan_reclaim,
                            [this, proc, old_as] {
                              allocator_->OnLoanReclaimComplete(old_as, proc);
                            });
      break;
    }

    case PendingAction::Kind::kUpcallDeliver: {
      AddressSpace* owner = OwnerOf(proc);
      if (owner != nullptr && owner->reaped()) {
        // The space died while this delivery interrupt was in flight; the
        // processor is simply detached instead.
        UnassignProcessor(proc);
        proc->BeginKernelSpan(costs().preempt_interrupt, [this, proc, owner] {
          allocator_->OnRevokeComplete(owner, proc);
        });
        break;
      }
      if (stopped != nullptr) {
        stopped->set_state(KThreadState::kStopped);
      }
      action.space->OnUpcallProcessorReady(proc, stopped);
      break;
    }

    case PendingAction::Kind::kDebugStop: {
      // Section 4.4: the stop is invisible to the thread system — no event is
      // queued and the processor is lent to the debugger (left without a
      // span) until DebuggerResume.
      if (stopped != nullptr) {
        stopped->set_state(KThreadState::kStopped);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Syscall services.
// ---------------------------------------------------------------------------

void Kernel::SysFork(KThread* caller, KThread* child, sim::Callback done) {
  ++counters_.forks;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kFork),
                     static_cast<uint64_t>(caller->id()));
  SA_CHECK(caller->state() == KThreadState::kRunning);
  SA_CHECK(child->state() == KThreadState::kBorn);
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(costs().kernel_trap + CreateCost(caller->address_space()),
                        [this, caller, proc, child, done = std::move(done)] {
                          if (AbortSyscallIfReaped(caller, proc)) {
                            return;
                          }
                          MakeReady(child);
                          done();
                        });
}

void Kernel::SysExit(KThread* caller) {
  ++counters_.exits;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kExit),
                     static_cast<uint64_t>(caller->id()));
  SA_CHECK(caller->state() == KThreadState::kRunning);
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(
      costs().kernel_trap + ExitCost(caller->address_space()), [this, caller, proc] {
        if (AbortSyscallIfReaped(caller, proc)) {
          return;  // the reaper already reclaimed the caller
        }
        caller->set_state(KThreadState::kDead);
        --live_threads_;
        AddressSpace* as = caller->address_space();
        --as->runnable_threads;
        // Vacate the processor before the demand update: the synchronous
        // rebalance under SetDesired must see this processor as idle, so a
        // surplus revocation reclaims it instead of preempting a sibling
        // that is running real work.
        ClearRunning(proc);
        UpdateKtDemand(as);
        // The rebalance may have reclaimed this processor and granted it
        // elsewhere (possibly dispatching on it) — only dispatch here if it
        // is still quiescent.
        if (!proc->has_span() && running_on(proc) == nullptr) {
          DispatchOn(proc);
        }
      });
}

void Kernel::FinishBlock(KThread* caller, bool io, sim::Duration latency,
                         bool injectable, std::function<bool()> block_check,
                         sim::Callback not_blocked) {
  SA_CHECK(caller->state() == KThreadState::kRunning);
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(
      costs().kernel_trap + BlockCost(caller->address_space()),
      [this, caller, proc, io, latency, injectable,
       block_check = std::move(block_check),
       not_blocked = std::move(not_blocked)] {
        if (AbortSyscallIfReaped(caller, proc)) {
          return;
        }
        if (block_check != nullptr && !block_check()) {
          // The awaited condition arrived before we committed to sleeping.
          SA_CHECK(not_blocked != nullptr);
          not_blocked();
          return;
        }
        caller->set_state(KThreadState::kBlocked);
        AddressSpace* as = caller->address_space();
        engine().TraceEmit(trace::cat::kKernel, trace::Kind::kThreadBlock,
                           proc->id(), as->id(),
                           static_cast<uint64_t>(caller->id()), io ? 1 : 0);
        --as->runnable_threads;
        ClearRunning(proc);  // before the demand update, as in SysExit
        UpdateKtDemand(as);
        if (io) {
          ScheduleIoCompletion(caller, latency, injectable, /*attempt=*/0);
        }
        if (as->mode() == AsMode::kSchedulerActivations) {
          as->sa()->OnThreadBlockedInKernel(caller, proc);
        } else if (!proc->has_span() && running_on(proc) == nullptr) {
          // As in SysExit: the demand update may have synchronously
          // reclaimed and re-granted this processor.
          DispatchOn(proc);
        }
      });
}

void Kernel::SysBlockIo(KThread* caller, sim::Duration latency) {
  ++counters_.io_blocks;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kBlockIo),
                     static_cast<uint64_t>(caller->id()));
  latency = MaybePerturbLatency(caller, latency);
  FinishBlock(caller, /*io=*/true, latency, /*injectable=*/true, nullptr, nullptr);
}

void Kernel::SysPageFault(KThread* caller, int64_t page, sim::Duration latency,
                          sim::Callback done) {
  AddressSpace* as = caller->address_space();
  if (as->vm().IsResident(page)) {
    // Minor fault: kernel touches the page tables and returns.
    ChargeKernel(caller, costs().kernel_trap, std::move(done));
    return;
  }
  ++counters_.page_faults;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kPageFault,
                     caller->processor()->id(), as->id(),
                     static_cast<uint64_t>(caller->id()),
                     static_cast<uint64_t>(page));
  as->vm().CountFault();
  // A latency spike applies to the whole paging operation: the perturbed
  // value feeds both events below so residency still lands strictly before
  // the faulting thread resumes (same timestamp, earlier event).  Paging is
  // never failed/retried — see ScheduleIoCompletion.
  latency = MaybePerturbLatency(caller, latency);
  engine().ScheduleIn(latency, [as, page] { as->vm().MakeResident(page); });
  FinishBlock(caller, /*io=*/true, latency, /*injectable=*/false, nullptr, nullptr);
}

void Kernel::SysBlockWait(KThread* caller, std::function<bool()> block_check,
                          sim::Callback not_blocked) {
  ++counters_.kernel_waits;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kBlockWait),
                     static_cast<uint64_t>(caller->id()));
  FinishBlock(caller, /*io=*/false, 0, /*injectable=*/false, std::move(block_check),
              std::move(not_blocked));
}

void Kernel::SysYield(KThread* caller) {
  SA_CHECK(caller->state() == KThreadState::kRunning);
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kYield),
                     static_cast<uint64_t>(caller->id()));
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(costs().kernel_trap, [this, caller, proc] {
    if (AbortSyscallIfReaped(caller, proc)) {
      return;
    }
    AddressSpace* as = caller->address_space();
    ClearRunning(proc);
    caller->set_state(KThreadState::kReady);
    DomainFor(as)->ready.PushBack(caller);
    DispatchOn(proc);
  });
}

sim::Duration Kernel::MaybePerturbLatency(KThread* caller, sim::Duration latency) {
  inject::FaultInjector* injector = this->injector();
  if (injector == nullptr) {
    return latency;
  }
  const sim::Duration perturbed = injector->PerturbIoLatency(latency);
  if (perturbed != latency) {
    engine().TraceEmit(trace::cat::kInject, trace::Kind::kInjectLatencySpike,
                       caller->processor()->id(), caller->address_space()->id(),
                       static_cast<uint64_t>(latency),
                       static_cast<uint64_t>(perturbed));
  }
  return perturbed;
}

void Kernel::ScheduleIoCompletion(KThread* kt, sim::Duration latency,
                                  bool injectable, int attempt) {
  // With injection off this is exactly the one ScheduleIn the pre-injection
  // kernel issued — same delay, same event ordering — so a linked-but-idle
  // injector leaves seeded traces byte-identical.
  engine().ScheduleIn(latency, [this, kt, latency, injectable, attempt] {
    FinishIo(kt, latency, injectable, attempt);
  });
}

void Kernel::FinishIo(KThread* kt, sim::Duration latency, bool injectable,
                      int attempt) {
  if (kt->address_space()->reaped()) {
    // Lazy cancellation: the completion event outlived its space.  The
    // thread is already dead, so the result has no consumer — discard.
    reaper_->NoteIoDiscarded(kt);
    return;
  }
  inject::FaultInjector* injector = this->injector();
  if (injectable && injector != nullptr && injector->ShouldFailIo()) {
    AddressSpace* as = kt->address_space();
    if (attempt < injector->plan().io_retries) {
      // Transient device failure: the kernel retries after an exponential
      // backoff, all while the thread stays blocked.
      const sim::Duration backoff = injector->IoBackoff(attempt);
      engine().TraceEmit(trace::cat::kInject, trace::Kind::kInjectIoRetry, -1,
                         as->id(), static_cast<uint64_t>(kt->id()),
                         static_cast<uint64_t>(attempt + 1));
      engine().ScheduleIn(backoff, [this, kt, latency, attempt] {
        ScheduleIoCompletion(kt, latency, /*injectable=*/true, attempt + 1);
      });
      return;
    }
    // Retry budget exhausted: complete the operation with an error.  The
    // thread unblocks normally; the hosting runtime surfaces the flag to
    // the workload's IoRead().
    injector->NoteFailedOp();
    kt->set_io_failed(true);
    engine().TraceEmit(trace::cat::kInject, trace::Kind::kInjectIoError, -1,
                       as->id(), static_cast<uint64_t>(kt->id()), 0);
  }
  OnIoComplete(kt);
}

void Kernel::OnIoComplete(KThread* kt) {
  SA_CHECK(kt->state() == KThreadState::kBlocked);
  AddressSpace* as = kt->address_space();
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kThreadWake, -1,
                     as->id(), static_cast<uint64_t>(kt->id()));
  if (as->mode() == AsMode::kSchedulerActivations) {
    as->sa()->OnThreadUnblockedInKernel(kt);
    return;
  }
  kt->host()->OnUnblocked(kt);
  MakeReady(kt);
}

void Kernel::SysWakeup(KThread* caller, KThread* target, sim::Callback done) {
  ++counters_.wakeups;
  engine().TraceEmit(trace::cat::kKernel, trace::Kind::kSyscall,
                     caller->processor()->id(), caller->address_space()->id(),
                     static_cast<uint64_t>(trace::Syscall::kWakeup),
                     static_cast<uint64_t>(caller->id()));
  SA_CHECK(caller->state() == KThreadState::kRunning);
  SA_CHECK_MSG(target->state() == KThreadState::kBlocked ||
                   target->address_space()->reaped(),
               "waking a non-blocked thread");
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(costs().kernel_trap + WakeupCost(caller->address_space()),
                        [this, caller, proc, target, done = std::move(done)] {
                          if (AbortSyscallIfReaped(caller, proc)) {
                            return;
                          }
                          if (target->address_space()->reaped()) {
                            done();  // the sleeper died with its space
                            return;
                          }
                          OnIoComplete(target);
                          done();
                        });
}

bool Kernel::AbortSyscallIfReaped(KThread* caller, hw::Processor* proc) {
  if (!caller->address_space()->reaped()) {
    return false;
  }
  // The caller died mid-syscall (its space was quarantined while a kernel
  // span was charging).  Drop the continuation and give the processor a
  // dispatch point: DispatchOn consumes the latched revocation, or detaches
  // the processor through the reaped-owner catch-all.
  if (running_on(proc) == caller) {
    ClearRunning(proc);
  }
  if (!proc->has_span()) {
    DispatchOn(proc);
  }
  return true;
}

void Kernel::ChargeKernel(KThread* caller, sim::Duration d, sim::Callback done) {
  hw::Processor* proc = caller->processor();
  proc->BeginKernelSpan(d, [this, caller, proc, done = std::move(done)] {
    if (AbortSyscallIfReaped(caller, proc)) {
      return;
    }
    done();
  });
}

void Kernel::UpdateKtDemand(AddressSpace* as) {
  if (allocator_ == nullptr || as->mode() != AsMode::kKernelThreads) {
    return;
  }
  allocator_->SetDesired(as, as->runnable_threads);
}

}  // namespace sa::kern
