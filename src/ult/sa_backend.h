// Modified FastThreads: virtual processors are scheduler activations.
//
// This backend is the user-level half of the paper's system: it consumes the
// Table-2 upcalls (processing each event list in a fresh activation and then
// using that activation as an ordinary vessel), issues the Table-3 downcalls
// on parallelism transitions, continues preempted critical sections before
// taking any locks, recycles discarded activations in bulk, and idles with
// hysteresis before telling the kernel a processor is free.
//
// Event processing is queue-driven: the events of an upcall are appended to
// a single ordered inbox and drained by whichever vessel is currently
// processing.  This is what makes processing itself recoverable — if the
// vessel draining the inbox is preempted mid-recovery, the next upcall's
// vessel simply continues draining (Section 3.1's "recover in one way if a
// user-level thread is running, and in a different way if not").

#ifndef SA_ULT_SA_BACKEND_H_
#define SA_ULT_SA_BACKEND_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/core/sa_space.h"
#include "src/kern/kernel.h"
#include "src/ult/backend.h"

namespace sa::ult {

class SaBackend : public VcpuBackend, public kern::KThreadHost, public core::UpcallHandler {
 public:
  SaBackend(kern::Kernel* kernel, kern::AddressSpace* as);
  ~SaBackend() override;

  core::SaSpace* space() { return space_.get(); }

  struct KEvent {
    int pending = 0;
    std::deque<std::pair<kern::KThread*, Tcb*>> waiters;
  };
  int CreateKernelEvent();

  // VcpuBackend:
  const char* name() const override { return "scheduler-activations"; }
  void Attach(FastThreads* ft) override;
  void Start() override;
  void BlockIo(Vcpu* v, Tcb* t, sim::Duration latency) override;
  void PageFault(Vcpu* v, Tcb* t, int64_t page, sim::Duration latency) override;
  void KernelWait(Vcpu* v, Tcb* t, int event_id) override;
  void KernelSignal(Vcpu* v, Tcb* t, int event_id) override;
  void OnIdle(Vcpu* v) override;
  void OnIdleWake(Vcpu* v) override;
  void NotifyParallelism(Vcpu* v, sim::Callback resume) override;
  void OnThreadLoaded(Vcpu* v, Tcb* t) override;
  void OnThreadUnloaded(Vcpu* v) override;
  sim::Duration ForkOverhead() const override;
  sim::Duration WaitOverhead() const override;
  sim::Duration ResumeCheckOverhead() const override;

  // kern::KThreadHost (activation contexts):
  void RunOn(kern::KThread* kt) override;
  void OnPreempted(kern::KThread* kt, hw::Interrupt irq) override;
  void OnSpaceReaped() override;

  // core::UpcallHandler:
  void HandleUpcall(kern::KThread* upcall_activation,
                    std::vector<core::UpcallEvent> events) override;

  int64_t pending_discards() const { return static_cast<int64_t>(discards_.size()); }

 private:
  // Binds the vcpu slot for kt's processor to kt; returns nullptr if every
  // slot is in use (surplus processor).
  Vcpu* BindSlot(kern::KThread* kt);
  // Unbinds the slot whose backing context is the given (stopped)
  // activation.  Keyed by activation identity, not processor id: the
  // processor may already have been re-granted and its slot rebound by the
  // time the preemption notification is processed.
  void UnbindSlotOfActivation(int64_t activation_id);
  // Anonymous preemption (no activation): unbind by processor, but only if
  // the slot's context is not running there any more.
  void UnbindIdleSlotByProcessor(int processor_id);
  void UnbindSlot(Vcpu* v, int processor_id);
  Vcpu* SlotByProcessor(int processor_id);
  int BoundCount() const;

  // Drains the shared event inbox in the context of `kt` / slot `v`
  // (v == nullptr for a surplus processor), then dispatches.
  void Drain(kern::KThread* kt, Vcpu* v);
  void FinishDrain(kern::KThread* kt, Vcpu* v);
  void NoteDiscard(int64_t activation_id);
  // Post-teardown processor handback for continuations that fire after the
  // space was reaped: detach `kt` and give the kernel a dispatch point.
  void ParkReaped(kern::KThread* kt);

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  FastThreads* ft_ = nullptr;
  std::unique_ptr<core::SaSpace> space_;
  std::map<int, Vcpu*> by_proc_;
  std::deque<core::UpcallEvent> inbox_;
  std::vector<int64_t> discards_;
  std::vector<std::unique_ptr<KEvent>> events_;
};

}  // namespace sa::ult

#endif  // SA_ULT_SA_BACKEND_H_
