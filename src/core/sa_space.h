// Kernel-side scheduler-activation machinery for one address space.
//
// This is the heart of the paper (Section 3): the kernel gives the address
// space a virtual multiprocessor, vectors every scheduling-relevant event to
// user level via upcalls on fresh activations (Table 2), and accepts the two
// processor-allocation hints from user level (Table 3).  Invariants
// maintained here (and checked by tests):
//
//   * there are always exactly as many running activations as processors
//     assigned to the address space;
//   * a user-level thread stopped by the kernel is never resumed directly —
//     its state travels up in a fresh activation's event list;
//   * events that coincide are delivered in a single upcall;
//   * when the last processor is preempted, notification is delayed until
//     the space next receives a processor.

#ifndef SA_CORE_SA_SPACE_H_
#define SA_CORE_SA_SPACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/activation.h"
#include "src/core/upcall.h"
#include "src/kern/kernel.h"
#include "src/kern/sa_iface.h"

namespace sa::core {

class SaSpace : public kern::SaSpaceIface {
 public:
  // `act_host` is the user-level thread system's host for activation
  // contexts: its RunOn processes a fresh activation's event inbox (via the
  // thread system's UpcallHandler) and then dispatches user-level threads.
  SaSpace(kern::Kernel* kernel, kern::AddressSpace* as, kern::KThreadHost* act_host);
  ~SaSpace() override;

  kern::AddressSpace* address_space() const { return as_; }
  kern::Kernel* kernel() const { return kernel_; }

  // Boot-time demand registration (program start: the kernel creates the
  // first activation once the allocator can grant a processor).  Cost-free.
  void BootDemand(int desired);

  // ---- downcalls from the user level (Table 3) ----
  // "Add more processors (additional # of processors needed)".
  void DowncallAddProcessors(kern::KThread* caller, int additional,
                             sim::Callback done);
  // "This processor is idle ()".
  void DowncallProcessorIdle(kern::KThread* caller, sim::Callback done);
  // Cross-space lending (DESIGN.md §16): "this processor is idle — lend it
  // if someone wants it right now".  When lending is off or no space would
  // take the processor, the hint declines synchronously and cost-free
  // (done(false): no charge, no trace, no events).  On acceptance the
  // calling activation is stopped, the processor travels to the borrower
  // through the loan ledger, and `done` is never invoked — the space hears
  // about the loss through the ordinary preempted upcall.
  void DowncallYieldHint(kern::KThread* caller, std::function<void(bool)> done);
  // Return discarded activations for reuse, in bulk (Section 4.3).
  void DowncallReturnDiscards(kern::KThread* caller, std::vector<int64_t> ids,
                              sim::Callback done);
  // Priority extension (Section 3.1): the user level knows exactly which
  // thread runs on each of its processors, so it can ask the kernel to
  // interrupt one of its *own* processors that is running a low-priority
  // thread; the kernel answers with the usual preempted upcall.
  void DowncallPreemptProcessor(kern::KThread* caller, int processor_id,
                                sim::Callback done);

  // ---- kernel event entry points (kern::SaSpaceIface) ----
  void OnProcessorGranted(hw::Processor* proc) override;
  void OnProcessorRevoked(hw::Processor* proc, kern::KThread* stopped) override;
  void OnThreadBlockedInKernel(kern::KThread* blocked, hw::Processor* proc) override;
  void OnThreadUnblockedInKernel(kern::KThread* unblocked) override;
  void OnUpcallProcessorReady(hw::Processor* proc, kern::KThread* stopped) override;
  int OnSpaceReaped() override;

  // ---- debugger interface (Section 4.4) ----
  // Stops an activation without generating an upcall (logical processor);
  // the kernel directly resumes it on DebuggerResume — the one sanctioned
  // exception to the never-resume rule.
  void DebuggerStop(kern::KThread* act);
  void DebuggerResume(kern::KThread* act);

  // ---- introspection (tests / experiments) ----
  int num_assigned() const { return static_cast<int>(as_->assigned().size()); }
  int num_running_activations() const;
  int num_cached_activations() const { return static_cast<int>(cache_.size()); }
  size_t num_pending_events() const { return pending_.size(); }
  int user_desired() const { return user_desired_; }

 private:
  Activation* NewActivation(sim::Duration* setup_cost);
  kern::KThread* LookupActivation(int64_t id);
  void QueueEvent(UpcallEvent ev);
  UserThreadState CaptureUserState(kern::KThread* act);
  // Delivers pending events: picks one of our processors (second preemption)
  // or waits for / requests a grant.
  void EnsureDelivery();
  // Fresh activation + upcall on `proc` (which must be span-free and ours).
  // Checks the §3.1 upcall page-fault window and injected delivery faults
  // (DESIGN.md §11); defers through either before committing.
  void DeliverOn(hw::Processor* proc);
  // The delivery itself: batch pending events into a fresh activation and
  // run it on `proc`.  Only called once DeliverOn's delay checks passed.
  void DeliverNow(hw::Processor* proc);
  void UpdateDemand();
  // Vessel-invariant trace snapshot at protocol-quiescent points (§10).
  void TraceVessel();

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  kern::KThreadHost* act_host_;

  std::vector<UpcallEvent> pending_;
  bool upcall_requested_ = false;  // a kUpcallDeliver preemption is in flight
  bool upcall_fault_pending_ = false;  // upcall path itself is being paged in
  int inject_defers_pending_ = 0;  // injected delivery delays in flight
  std::vector<kern::KThread*> cache_;  // recycled activations
  std::map<int64_t, kern::KThread*> activations_;
  std::vector<std::unique_ptr<Activation>> owned_;
  int64_t next_activation_id_ = 1;
  int user_desired_ = 0;

  // Debugger state: activation id -> saved processor while stopped.
  std::map<int64_t, hw::Processor*> debug_stopped_;
};

}  // namespace sa::core

#endif  // SA_CORE_SA_SPACE_H_
