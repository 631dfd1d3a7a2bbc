// Original FastThreads: virtual processors are kernel threads scheduled
// obliviously by the kernel (Section 2.2).  This backend intentionally keeps
// the paper's pathologies:
//
//  * when a user-level thread blocks in the kernel, the kernel thread serving
//    as its virtual processor blocks too — the physical processor is lost to
//    the address space for the duration of the I/O;
//  * idle virtual processors spin in the user-level scheduler and look
//    runnable to the kernel, so the kernel may time-slice a vcpu that has
//    work in favour of one that is idling;
//  * the kernel may preempt a vcpu whose current thread holds a spinlock;
//    other vcpus then spin until the holder is rescheduled.

#ifndef SA_ULT_KT_BACKEND_H_
#define SA_ULT_KT_BACKEND_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/kern/kernel.h"
#include "src/ult/backend.h"

namespace sa::ult {

class KtBackend : public VcpuBackend, public kern::KThreadHost {
 public:
  KtBackend(kern::Kernel* kernel, kern::AddressSpace* as);

  // Kernel-event table shared with the runtime facade.
  struct KEvent {
    int pending = 0;
    std::deque<std::pair<kern::KThread*, Tcb*>> waiters;
  };
  int CreateKernelEvent();

  // VcpuBackend:
  const char* name() const override { return "kernel-threads"; }
  void Attach(FastThreads* ft) override;
  void Start() override;
  void BlockIo(Vcpu* v, Tcb* t, sim::Duration latency) override;
  void PageFault(Vcpu* v, Tcb* t, int64_t page, sim::Duration latency) override;
  void KernelWait(Vcpu* v, Tcb* t, int event_id) override;
  void KernelSignal(Vcpu* v, Tcb* t, int event_id) override;
  void OnIdle(Vcpu* v) override;
  void OnIdleWake(Vcpu* v) override {}
  void NotifyParallelism(Vcpu* v, sim::Callback resume) override { resume(); }
  sim::Duration ForkOverhead() const override { return 0; }
  sim::Duration WaitOverhead() const override { return 0; }
  sim::Duration ResumeCheckOverhead() const override { return 0; }

  // kern::KThreadHost:
  void RunOn(kern::KThread* kt) override;
  void OnPreempted(kern::KThread* kt, hw::Interrupt irq) override;
  void OnUnblocked(kern::KThread* kt) override;
  void OnSpaceReaped() override;

 private:
  Vcpu* VcpuOf(kern::KThread* kt) { return static_cast<Vcpu*>(kt->host_data()); }

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  FastThreads* ft_ = nullptr;
  std::vector<std::unique_ptr<KEvent>> events_;
};

}  // namespace sa::ult

#endif  // SA_ULT_KT_BACKEND_H_
