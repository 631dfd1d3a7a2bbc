// Virtual-processor backend interface: what FastThreads needs from whatever
// supplies its processors.  Two implementations:
//
//  * KtBackend  — original FastThreads: virtual processors are kernel threads
//    scheduled obliviously by the (native) kernel.  Kernel events are
//    invisible; a blocked virtual processor takes its physical processor
//    with it.
//
//  * SaBackend  — modified FastThreads: virtual processors are scheduler
//    activations; kernel events arrive as upcalls and the package notifies
//    the kernel of allocation-relevant transitions (Table 3).

#ifndef SA_ULT_BACKEND_H_
#define SA_ULT_BACKEND_H_

#include <functional>

#include "src/sim/time.h"
#include "src/ult/tcb.h"

namespace sa::ult {

class FastThreads;

class VcpuBackend {
 public:
  virtual ~VcpuBackend() = default;

  virtual const char* name() const = 0;

  // Called once the engine is constructed.
  virtual void Attach(FastThreads* ft) = 0;

  // Boot: make the initial virtual processors / processor requests happen.
  virtual void Start() = 0;

  // The current thread of `v` performs a blocking kernel I/O.
  virtual void BlockIo(Vcpu* v, Tcb* t, sim::Duration latency) = 0;

  // The current thread of `v` faults on a non-resident page (the resident
  // fast path is handled by the engine before this is called).
  virtual void PageFault(Vcpu* v, Tcb* t, int64_t page, sim::Duration latency) = 0;

  // Kernel-event wait/signal (used by workloads that force kernel-level
  // synchronization; Section 5.2's upcall benchmark).  `ev` is an opaque
  // kernel event id owned by the runtime facade.
  virtual void KernelWait(Vcpu* v, Tcb* t, int event_id) = 0;
  virtual void KernelSignal(Vcpu* v, Tcb* t, int event_id) = 0;

  // The dispatcher found no work on `v`.
  virtual void OnIdle(Vcpu* v) = 0;

  // A ready thread appeared while `v` was idle-spinning; backends may need
  // to clear idle bookkeeping before the dispatcher reclaims `v`.
  virtual void OnIdleWake(Vcpu* v) = 0;

  // Parallelism bookkeeping hook, called after a change in the number of
  // runnable threads with the vcpu whose context we can charge costs to.
  // The SA backend issues Table-3 downcalls from here; `resume` continues
  // the interrupted user path.
  virtual void NotifyParallelism(Vcpu* v, sim::Callback resume) = 0;

  // A thread was loaded into / unloaded from a virtual processor (the SA
  // backend records which user-level thread runs in which activation).
  virtual void OnThreadLoaded(Vcpu* v, Tcb* t) {}
  virtual void OnThreadUnloaded(Vcpu* v) {}

  // Per-operation overheads (Section 5.1 / Table 4 calibration).
  virtual sim::Duration ForkOverhead() const = 0;    // busy-count accounting
  virtual sim::Duration WaitOverhead() const = 0;    // busy-count accounting
  virtual sim::Duration ResumeCheckOverhead() const = 0;  // condition-code restore
};

}  // namespace sa::ult

#endif  // SA_ULT_BACKEND_H_
