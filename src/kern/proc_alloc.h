// Space-sharing processor allocator (Section 4.1).
//
// Implements the paper's variant of the Zahorjan & McCann dynamic policy:
// processors are divided evenly among the address spaces that want them,
// higher-priority spaces are satisfied first, and no processor is left idle
// while some space wants one.  If a space does not need its full share, the
// surplus is divided evenly among the rest.  Address spaces using kernel
// threads and address spaces using scheduler activations compete identically;
// only the delivery differs (Topaz dispatch vs. add-processor upcall).
//
// Revocation is asynchronous: the allocator requests a preemption interrupt
// and the processor arrives in OnRevokeComplete once its user-level state has
// been saved and its space notified.
//
// Simplification vs. the paper: fractional shares are not time-sliced among
// same-priority spaces; leftover processors are granted whole (deterministic
// by space id).  The experiments reproduced here use exact divisions.
//
// Scaling (DESIGN.md §14): allocation decisions are incremental.  Each
// priority tier keeps Fenwick-tree aggregates over its members' demands, so
// the water-filling division is recomputed from aggregates in O(log P) per
// round instead of rescanning every space; cached per-space targets are
// re-derived only for the members whose target can have moved (changed
// demand, a threshold crossing, or the leftover frontier passing them; a
// change of the even share re-derives the whole tier).  Grants pop a
// deficit heap keyed (priority, deficit, id); revocations walk a surplus
// index.  A revocation storm therefore costs O(log n) per processor instead
// of O(spaces x processors).  The legacy full-rescan policy is preserved as
// ComputeTargetsReference() and, behind set_reference_oracle(), as a complete
// decision path; differential fuzzing (alloc_incremental_test) proves the
// two produce identical targets and identical grant/revoke sequences.
//
// Affinity (DESIGN.md §13): with Config::affinity_allocation set, the
// allocator keeps the paper's *shares* but chooses *which* physical
// processors change hands with locality in mind: grants prefer a processor's
// last owning space (warm cache), revocation victims are chosen to keep each
// space's holdings socket-compact, and leftover shares break ties toward
// incumbents.  Because affinity ties shares to current holdings, targets
// change as grants land, so the affinity policy runs on the legacy rescan
// path (with O(1) field bookkeeping).  With the flag off (the default) every
// choice reduces to the original locality-blind policy, byte-identically on
// seeded traces.

#ifndef SA_KERN_PROC_ALLOC_H_
#define SA_KERN_PROC_ALLOC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/common/rng.h"
#include "src/hw/processor.h"
#include "src/kern/address_space.h"
#include "src/trace/histogram.h"

namespace sa::kern {

class Kernel;

class ProcessorAllocator {
 public:
  explicit ProcessorAllocator(Kernel* kernel);

  void RegisterSpace(AddressSpace* as);

  // Demand change (Table-3 downcalls for SA spaces; runnable-thread count
  // for kernel-thread spaces).  Triggers a rebalance.
  void SetDesired(AddressSpace* as, int desired);

  // Recomputes targets; issues revocations and grants.
  void Rebalance();

  // A revoked processor has been fully stopped and detached.
  void OnRevokeComplete(AddressSpace* old_as, hw::Processor* proc);

  // A processor with no owner and no work (boot, space exit).
  void AddFree(hw::Processor* proc);

  // The reaper finished tearing `as` down: forget it entirely (demand,
  // in-flight revocation bookkeeping, registration) and rebalance so the
  // survivors divide the machine among themselves.  Revocations of the dead
  // space still in flight complete harmlessly (OnRevokeComplete tolerates an
  // unregistered space).
  void ReleaseSpace(AddressSpace* as);

  // Fault injection (DESIGN.md §11): revokes up to `burst` randomly chosen
  // *owned* processors and rebalances, churning allocations through the
  // normal revoke/grant protocol.  Lives here so the in-flight revocation
  // bookkeeping stays exact.  Returns the number of revocations issued.
  int InjectRevocations(int burst, common::Rng& rng);

  int num_free() const { return static_cast<int>(free_.size()); }

  // Fair-share targets, index-aligned with spaces().  Exposed for tests.
  // Synchronizes demand bookkeeping first, since tests poke demand directly
  // through AddressSpace::set_desired_processors.
  std::vector<int> ComputeTargets();

  // The legacy full-rescan target computation (the Section 4.1 policy as
  // originally implemented).  Kept verbatim as the differential-fuzz oracle;
  // index-aligned with spaces().
  std::vector<int> ComputeTargetsReference() const;

  const std::vector<AddressSpace*>& spaces() const { return spaces_; }

  // O(1): is `as` currently registered with the allocator?
  bool IsRegistered(const AddressSpace* as) const { return as->alloc_state().index >= 0; }

  // Per-space grant classification against the processor's previous owner,
  // plus the space's kernel-thread migrations (reported by the kernel's
  // dispatch paths on hierarchical machines).
  using SpaceStats = SpaceAllocStats;
  SpaceStats stats_for(const AddressSpace* as) const { return as->alloc_state().stats; }
  // One of `as`'s threads was dispatched on a different processor than its
  // last (Kernel::NoteMigration).
  void NoteSpaceMigration(const AddressSpace* as) { ++as->alloc_state().stats.migrations; }

  // Kernel::AssignProcessor / UnassignProcessor hook: `proc` entered or left
  // as->assigned() (delta is +1 or -1).  Keeps the deficit/surplus indexes
  // and the per-socket holding counts exact even for detachments the
  // allocator did not itself initiate (revoke completion, reaper teardown).
  void OnAssignedChanged(AddressSpace* as, hw::Processor* proc, int delta);

  // Test/bench hook: route every decision through the legacy full-rescan
  // policy instead of the incremental structures.  Choose before the first
  // space registers and never flip mid-run.
  void set_reference_oracle(bool on) { reference_oracle_ = on; }
  bool reference_oracle() const { return reference_oracle_; }

  // Allocator entry points processed (decision-cost denominator for
  // bench_alloc_scale).
  int64_t decisions() const { return decisions_; }

  // Members whose target a tier refresh re-derived, over the allocator's
  // lifetime: the refresh's work, as opposed to the targets it changed.
  int64_t members_touched() const { return members_touched_; }

  // ---- cross-space lending (DESIGN.md §16) ----
  // Every entry point below is inert unless Config::lending.enabled.

  // Is `proc` currently out on loan (ledger entry open)?
  bool IsOnLoan(const hw::Processor* proc) const {
    return loans_.count(proc->id()) > 0;
  }
  int loans_outstanding() const { return static_cast<int>(loans_.size()); }

  // Would some space take a processor from `lender` right now?  Cost-free
  // query the SA yield-hint downcall uses to decline without perturbation.
  bool WantsLoanFrom(AddressSpace* lender);

  // An SA space's idle vcpu offered its processor (yield-hint downcall,
  // accepted path): stop `caller`, detach `proc` from `lender`, and lend it
  // to the neediest space.  The lender keeps its entitlement — the loan is
  // recalled the instant its demand returns.
  void LendYieldedProcessor(AddressSpace* lender, hw::Processor* proc,
                            KThread* caller);

  // Recall loans if `lender`'s demand exceeds its physical holdings.  The
  // yield-hint downcall calls this after its post-lend demand update: a
  // lying hint (or a demand rise racing the downcall) leaves desired
  // unchanged, so SetDesired sees no edge and the edge-triggered recall in
  // UpdateLoanStateOnDesired never fires.
  void RecallExcessLoans(AddressSpace* lender);

  // A kLoanReclaim interrupt landed on `proc` (kernel HandleAction, before
  // the processor is detached): settle the ledger and record where the
  // processor must return.  Tolerates a loan already settled by teardown or
  // adoption while the interrupt was in flight.
  void OnLoanReclaimPreempted(hw::Processor* proc, uint64_t epoch);
  // The kLoanReclaim preemption's kernel span finished: hand the processor
  // straight back to its lender (no grant-loop renegotiation).
  void OnLoanReclaimComplete(AddressSpace* old_as, hw::Processor* proc);

  // Teardown hook (space_reaper): settle every loan touching `as` before
  // its processors are revoked.  Lender death transfers ownership to the
  // borrower (adoption); borrower death routes the processor back to its
  // lender with conservation intact.
  void ResolveLoansForTeardown(AddressSpace* as);

  // Loan-recall latency (reclaim issue -> processor back with the lender).
  const trace::LatencyHistogram& reclaim_latency() const { return reclaim_latency_; }

 private:
  // Counts a tier's uncapped members by position (a Fenwick tree that grows
  // by appending): rank and select in O(log n).
  class UncappedIndex {
   public:
    void Append();  // one more position, not counted
    void Add(int pos, int delta);
    int CountBefore(int pos) const;  // counted members at positions < pos
    int Select(int k) const;         // position of the k-th counted member
    int total() const { return total_; }
    void Clear() {
      tree_.clear();
      total_ = 0;
    }

   private:
    std::vector<int> tree_;  // 1-based; tree_[0] unused
    int total_ = 0;
  };

  // One priority tier.  Members sit in `slots` in id order (ids grow with
  // creation, so registration appends); demands are mirrored into Fenwick
  // trees over clamped demand values 1..P+1 (any demand above the machine
  // size behaves identically, so values are clamped to keep the tree small).
  // The cached water-fill summary describes every member's target: a member
  // with demand d gets
  //   d <= 0         -> 0
  //   clamp(d) <= threshold -> d (capped at its own demand)
  //   otherwise      -> share, plus 1 if its position is below `frontier`
  //                     (the first `leftover` uncapped members in id order).
  struct Tier {
    int members = 0;  // registered members (including zero-demand)
    int active = 0;   // members with demand > 0
    std::vector<AddressSpace*> slots;  // by position; null once released
    int holes = 0;                     // released slots not yet compacted
    std::vector<AddressSpace*> changed;  // demand changes since last refresh
    std::vector<int> cnt;                // Fenwick: member count per demand
    std::vector<int64_t> sum;            // Fenwick: demand sum per demand
    // Members with demand > 0 by clamped demand (sized on first use), so the
    // members crossing a threshold move are listed without a walk.
    std::vector<std::vector<AddressSpace*>> by_demand;
    UncappedIndex uncapped_index;  // members with clamp(d) > threshold
    bool dirty = true;
    // Cached water-fill summary, valid for pool_in inbound processors.
    int pool_in = -1;
    int pool_out = 0;
    int threshold = 0;
    int share = 0;
    int frontier = 0;
  };

  // A set of space ids as a bitmap: insert and erase allocate nothing once
  // the map covers the largest id, and members list in id order.
  class IdSet {
   public:
    void Insert(int id);
    void Erase(int id);
    bool empty() const { return size_ == 0; }
    // Replaces `out` with the members, ascending.
    void ListInto(std::vector<int>* out) const;

   private:
    std::vector<uint64_t> words_;
    int size_ = 0;
  };

  // Spaces owed processors, best first: highest priority, then largest
  // deficit (AllocState::heap_deficit), then lowest id — the legacy scan's
  // pick.  A binary heap of the spaces themselves; each knows its position
  // (AllocState::heap_pos), so entry, exit and re-keying allocate nothing.
  class DeficitHeap {
   public:
    bool empty() const { return heap_.empty(); }
    AddressSpace* top() const { return heap_.front(); }
    void Insert(AddressSpace* as);
    void Erase(AddressSpace* as);
    // Restores order after as's heap_deficit changed in place.
    void Rekey(AddressSpace* as);

   private:
    static bool Before(const AddressSpace* a, const AddressSpace* b);
    void Place(size_t pos, AddressSpace* as);
    void SiftUp(size_t pos);
    void SiftDown(size_t pos);
    std::vector<AddressSpace*> heap_;
  };

  // One open loan.  Keyed by processor id in loans_; at most one loan per
  // processor (no chains: a borrower never re-lends).
  struct Loan {
    hw::Processor* proc = nullptr;
    AddressSpace* lender = nullptr;
    AddressSpace* borrower = nullptr;
    uint64_t epoch = 0;  // unique, monotone; tags trace records and events
    sim::Time granted_at = 0;
    sim::Time reclaim_issued_at = 0;
    bool reclaiming = false;
    bool ipi_sent = false;  // the reclaim interrupt has actually been issued
                            // (false while an injected delay holds it back)
    int pings = 0;          // unanswered reclaim-deadline watchdog pings
  };

  // Where a processor detaching from a settled loan must land: back with
  // its lender.  `issued_at >= 0` marks a demand-return reclaim whose
  // latency should be recorded at completion.
  struct PendingReturn {
    AddressSpace* lender = nullptr;
    sim::Time issued_at = -1;
  };

  bool lending_enabled() const;
  // A space's entitlement: processors it owns outright.  Loaned-out
  // processors still count toward the lender; borrowed ones never count
  // toward the borrower.  Equals assigned().size() when lending is off.
  int Entitled(const AddressSpace* as) const;
  // Demand as the tier aggregates should see it: raw desired, floored at
  // the entitlement while a space has loans out or a dip window open (the
  // floor is what keeps §4.1 from revoking a dipped lender's surplus before
  // the hysteresis expires or the loan recall lands).
  int EffectiveDemand(const AddressSpace* as) const;
  // SetDesired pre-pass: recalls loans when demand returns, arms/cancels
  // the kt dip-hysteresis window.  No-op when lending is off.
  void UpdateLoanStateOnDesired(AddressSpace* as);
  void OnDipDeadline(AddressSpace* as, uint64_t epoch);
  // Lends ripe kt dip surplus to the neediest spaces (rebalance tail pass).
  void LendSurplus();
  AddressSpace* PickBorrower(const AddressSpace* lender);
  void LendOne(hw::Processor* proc, AddressSpace* lender, AddressSpace* borrower);
  // Recalls up to `k` of `lender`'s loans, newest first.  Idle borrower
  // processors come back synchronously (the instant-reclaim fast path);
  // busy ones get a kLoanReclaim preemption with a deadline watchdog.
  void ReclaimLoans(AddressSpace* lender, int k);
  void IssueReclaimIpi(int proc_id, uint64_t epoch);
  void ArmLoanDeadline(int proc_id, uint64_t epoch);
  void OnLoanDeadline(int proc_id, uint64_t epoch);
  // Converts a loan into an ownership transfer (no processor motion): the
  // pressured lender stops vouching for it and the borrower's entitlement
  // absorbs it.  Used when §4.1 wants the lender's capacity back for a
  // higher claim, and when a lender dies.
  void AdoptLoan(Loan loan);
  // Closes the ledger entry and both sides' counters.  `reason` feeds the
  // kLoanReturn trace record.
  void CloseLoan(const Loan& loan, int reason);

  bool use_incremental() const;
  int Clamp(int demand) const;
  Tier& TierOf(const AddressSpace* as);
  void FenwickAdd(Tier& tier, int demand, int dcnt, int64_t dsum);
  void FenwickPrefix(const Tier& tier, int demand, int* cnt, int64_t* sum) const;

  // Syncs tier aggregates with as->desired_processors().
  void RecordDemand(AddressSpace* as);
  // Catches demand poked directly through set_desired_processors (tests).
  void SyncDemands();
  // Recomputes cached targets for dirty tiers (incremental mode).
  void RefreshTargets();
  void RefreshTier(Tier& tier, int pool_in);
  // Enters or leaves `as` in its tier's uncapped-member index.
  static void SetUncapped(Tier& tier, AddressSpace* as, bool uncapped);
  // Renumbers a tier's positions without the released members' holes.
  static void CompactTier(Tier& tier);
  void ApplyTarget(AddressSpace* as, int target);
  // Re-derives heap/surplus/needy membership from the space's cached
  // target, assigned count, and pending revocations.
  void RefreshDerived(AddressSpace* as);
  void NotePendingDelta(AddressSpace* as, int delta);

  void RebalanceInternal();
  // Revokes down to `target` for one space (idle fast path or async
  // preemption), shared by both decision paths.
  void RevokeSurplus(AddressSpace* as, int target);
  void GrantFreeProcessors();           // incremental: deficit-heap pops
  void GrantFreeProcessorsReference();  // legacy: full rescan per grant
  void Grant(hw::Processor* proc, AddressSpace* as);
  // Removes and returns the free processor to grant to `as`: the affinity
  // policy's pick when enabled, else the most recently freed.
  hw::Processor* PickFreeProcessor(const AddressSpace* as);
  // Fills `out` with the revocation victims for `as`, best-first.  Default:
  // most recently granted first.  Affinity: least-held socket first so
  // holdings stay compact.
  void RevocationOrder(const AddressSpace* as, std::vector<hw::Processor*>* out) const;

  Kernel* kernel_;
  int num_processors_ = 0;
  std::vector<AddressSpace*> spaces_;   // dense registry (swap-removed)
  std::map<int, AddressSpace*> by_id_;  // id-ordered registry
  // Ids of registered spaces currently holding >= 1 processor.  Bounds
  // storm-candidate collection by the machine size instead of the space
  // count; walking it in id order yields exactly the (space, processor)
  // pairs the full by_id_ walk would (empty holdings contribute none), so
  // seeded storm RNG streams are unchanged.
  IdSet holders_;
  std::map<int, Tier, std::greater<int>> tiers_;  // highest priority first
  common::IntrusiveList<hw::Processor, &hw::Processor::alloc_free_node> free_;
  DeficitHeap deficit_heap_;
  IdSet surplus_;  // ids with assigned - pending > target
  int needy_ = 0;  // spaces with assigned - pending < target
  // Reused by RebalanceInternal's revocation pass and RevokeSurplus, which
  // revoke (editing surplus_ and assigned()) while they walk these copies.
  // Neither runs nested: RebalanceInternal defers re-entry through rerun_,
  // and it is RevokeSurplus's only caller.
  std::vector<int> surplus_snapshot_;
  std::vector<hw::Processor*> revoke_order_;
  bool reference_oracle_ = false;
  int64_t decisions_ = 0;
  int64_t members_touched_ = 0;
  bool rebalancing_ = false;
  bool rerun_ = false;

  // ---- lending state (all empty/zero unless Config::lending.enabled) ----
  std::map<int, Loan> loans_;  // open loans by processor id
  uint64_t loan_epoch_ = 0;
  std::set<int> lendable_;  // ids of spaces with a ripe dip window
  // Settled loans whose processor is still detaching: route it back to the
  // recorded lender instead of the free pool when the revocation lands.
  std::map<int, PendingReturn> return_to_;
  trace::LatencyHistogram reclaim_latency_;
};

}  // namespace sa::kern

#endif  // SA_KERN_PROC_ALLOC_H_
