#include "src/kern/proc_alloc.h"

#include <algorithm>
#include <bit>

#include "src/common/log.h"
#include "src/hw/topology.h"
#include "src/inject/fault_injector.h"
#include "src/kern/kernel.h"
#include "src/kern/space_reaper.h"
#include "src/trace/trace.h"

namespace sa::kern {

namespace {
constexpr const char* kLog = "alloc";
}  // namespace

ProcessorAllocator::ProcessorAllocator(Kernel* kernel)
    : kernel_(kernel), num_processors_(kernel->machine()->num_processors()) {}

bool ProcessorAllocator::use_incremental() const {
  // Affinity ties same-priority shares to current holdings (incumbents get
  // leftovers), so targets shift as grants land and caching them is invalid;
  // the affinity policy stays on the rescan path.
  return !reference_oracle_ && !kernel_->config().affinity_allocation;
}

int ProcessorAllocator::Clamp(int demand) const {
  // Every water-fill comparison is against a share <= P, so demands above
  // the machine size are interchangeable; clamping to P+1 bounds the
  // Fenwick domain.
  return demand < num_processors_ + 1 ? demand : num_processors_ + 1;
}

ProcessorAllocator::Tier& ProcessorAllocator::TierOf(const AddressSpace* as) {
  auto it = tiers_.find(as->priority());
  SA_CHECK(it != tiers_.end());
  return it->second;
}

void ProcessorAllocator::FenwickAdd(Tier& tier, int demand, int dcnt, int64_t dsum) {
  for (int i = demand; i <= num_processors_ + 1; i += i & -i) {
    tier.cnt[static_cast<size_t>(i)] += dcnt;
    tier.sum[static_cast<size_t>(i)] += dsum;
  }
}

void ProcessorAllocator::FenwickPrefix(const Tier& tier, int demand, int* cnt,
                                       int64_t* sum) const {
  int c = 0;
  int64_t s = 0;
  for (int i = demand; i > 0; i -= i & -i) {
    c += tier.cnt[static_cast<size_t>(i)];
    s += tier.sum[static_cast<size_t>(i)];
  }
  *cnt = c;
  *sum = s;
}

void ProcessorAllocator::UncappedIndex::Append() {
  if (tree_.empty()) {
    tree_.push_back(0);
  }
  // tree_[i] sums positions (i - lowbit(i), i] (1-based); the new one is 0.
  const int i = static_cast<int>(tree_.size());
  tree_.push_back(CountBefore(i - 1) - CountBefore(i - (i & -i)));
}

void ProcessorAllocator::UncappedIndex::Add(int pos, int delta) {
  for (int i = pos + 1; i < static_cast<int>(tree_.size()); i += i & -i) {
    tree_[static_cast<size_t>(i)] += delta;
  }
  total_ += delta;
}

int ProcessorAllocator::UncappedIndex::CountBefore(int pos) const {
  int c = 0;
  for (int i = pos; i > 0; i -= i & -i) {
    c += tree_[static_cast<size_t>(i)];
  }
  return c;
}

int ProcessorAllocator::UncappedIndex::Select(int k) const {
  SA_DCHECK(k >= 1 && k <= total_);
  const int n = static_cast<int>(tree_.size()) - 1;
  int pos = 0;
  for (int step = static_cast<int>(std::bit_floor(static_cast<unsigned>(n))); step > 0;
       step >>= 1) {
    if (pos + step <= n && tree_[static_cast<size_t>(pos + step)] < k) {
      pos += step;
      k -= tree_[static_cast<size_t>(pos)];
    }
  }
  return pos;
}

void ProcessorAllocator::IdSet::Insert(int id) {
  const auto word = static_cast<size_t>(id) / 64;
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (word >= words_.size()) {
    words_.resize(word + 1, 0);
  }
  if ((words_[word] & bit) == 0) {
    words_[word] |= bit;
    ++size_;
  }
}

void ProcessorAllocator::IdSet::Erase(int id) {
  const auto word = static_cast<size_t>(id) / 64;
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (word < words_.size() && (words_[word] & bit) != 0) {
    words_[word] &= ~bit;
    --size_;
  }
}

void ProcessorAllocator::IdSet::ListInto(std::vector<int>* out) const {
  out->clear();
  for (size_t w = 0; w < words_.size() && static_cast<int>(out->size()) < size_; ++w) {
    for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      out->push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
}

bool ProcessorAllocator::DeficitHeap::Before(const AddressSpace* a, const AddressSpace* b) {
  if (a->priority() != b->priority()) {
    return a->priority() > b->priority();
  }
  const int da = a->alloc_state().heap_deficit;
  const int db = b->alloc_state().heap_deficit;
  if (da != db) {
    return da > db;
  }
  return a->id() < b->id();
}

void ProcessorAllocator::DeficitHeap::Place(size_t pos, AddressSpace* as) {
  heap_[pos] = as;
  as->alloc_state().heap_pos = static_cast<int>(pos);
}

void ProcessorAllocator::DeficitHeap::SiftUp(size_t pos) {
  AddressSpace* as = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(as, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, as);
}

void ProcessorAllocator::DeficitHeap::SiftDown(size_t pos) {
  AddressSpace* as = heap_[pos];
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) {
      break;
    }
    if (child + 1 < heap_.size() && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], as)) {
      break;
    }
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, as);
}

void ProcessorAllocator::DeficitHeap::Insert(AddressSpace* as) {
  SA_DCHECK(as->alloc_state().heap_pos < 0);
  heap_.push_back(as);
  SiftUp(heap_.size() - 1);
}

void ProcessorAllocator::DeficitHeap::Erase(AddressSpace* as) {
  const auto pos = static_cast<size_t>(as->alloc_state().heap_pos);
  SA_DCHECK(pos < heap_.size() && heap_[pos] == as);
  as->alloc_state().heap_pos = -1;
  AddressSpace* last = heap_.back();
  heap_.pop_back();
  if (last != as) {
    Place(pos, last);
    Rekey(last);
  }
}

void ProcessorAllocator::DeficitHeap::Rekey(AddressSpace* as) {
  const auto pos = static_cast<size_t>(as->alloc_state().heap_pos);
  SiftUp(pos);
  SiftDown(static_cast<size_t>(as->alloc_state().heap_pos));
}

void ProcessorAllocator::RegisterSpace(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  SA_CHECK(st.index < 0);
  st.index = static_cast<int>(spaces_.size());
  spaces_.push_back(as);
  by_id_[as->id()] = as;
  if (!as->assigned().empty()) {
    holders_.Insert(as->id());
  }
  Tier& tier = tiers_[as->priority()];
  if (tier.cnt.empty()) {
    tier.cnt.assign(static_cast<size_t>(num_processors_) + 2, 0);
    tier.sum.assign(static_cast<size_t>(num_processors_) + 2, 0);
  }
  // Ids grow with creation and spaces register when created, so appending
  // keeps the slots in id order.
  st.tier_pos = static_cast<int>(tier.slots.size());
  tier.slots.push_back(as);
  tier.uncapped_index.Append();
  ++tier.members;
  st.demand = 0;
  if (as->desired_processors() != 0) {
    RecordDemand(as);
  }
}

void ProcessorAllocator::AddFree(hw::Processor* proc) { free_.PushBack(proc); }

void ProcessorAllocator::RecordDemand(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  const int desired = EffectiveDemand(as);
  if (st.demand == desired) {
    return;
  }
  Tier& tier = TierOf(as);
  if (st.demand > 0) {
    FenwickAdd(tier, Clamp(st.demand), -1, -Clamp(st.demand));
    --tier.active;
    std::vector<AddressSpace*>& list = tier.by_demand[static_cast<size_t>(Clamp(st.demand))];
    AddressSpace* moved = list.back();
    list[static_cast<size_t>(st.demand_slot)] = moved;
    moved->alloc_state().demand_slot = st.demand_slot;
    list.pop_back();
    st.demand_slot = -1;
  }
  if (desired > 0) {
    FenwickAdd(tier, Clamp(desired), +1, +Clamp(desired));
    ++tier.active;
    const auto v = static_cast<size_t>(Clamp(desired));
    if (tier.by_demand.size() <= v) {
      tier.by_demand.resize(v + 1);
    }
    st.demand_slot = static_cast<int>(tier.by_demand[v].size());
    tier.by_demand[v].push_back(as);
  }
  st.demand = desired;
  tier.dirty = true;
  if (!st.pending_refresh) {
    st.pending_refresh = true;
    tier.changed.push_back(as);
  }
}

void ProcessorAllocator::SyncDemands() {
  for (AddressSpace* as : spaces_) {
    if (as->alloc_state().demand != EffectiveDemand(as)) {
      RecordDemand(as);
    }
  }
}

void ProcessorAllocator::SetDesired(AddressSpace* as, int desired) {
  SA_CHECK(desired >= 0);
  if (as->desired_processors() == desired) {
    return;
  }
  ++decisions_;
  as->set_desired_processors(desired);
  // Lending reacts to the demand edge before the tier aggregates see it:
  // a demand return recalls loans, a dip arms the hysteresis window (whose
  // entitlement floor RecordDemand then reads through EffectiveDemand).
  UpdateLoanStateOnDesired(as);
  if (IsRegistered(as)) {
    RecordDemand(as);
  }
  SA_DEBUG(kLog, "space %s now wants %d processors", as->name().c_str(), desired);
  RebalanceInternal();
}

// ---------------------------------------------------------------------------
// Target computation.
// ---------------------------------------------------------------------------

std::vector<int> ProcessorAllocator::ComputeTargetsReference() const {
  // Spaces are processed a priority tier at a time (highest first).  Within
  // a tier, processors are divided evenly; a space that wants less than its
  // even share is capped at its demand and the surplus is re-divided among
  // the rest of the tier (the paper's space-sharing policy, Section 4.1).
  // Tier membership iterates in space-id order — the registration order the
  // original dense-array implementation walked — so results are independent
  // of the swap-removals the dense registry undergoes on release.
  std::vector<int> target(spaces_.size(), 0);
  int remaining = num_processors_;

  for (const auto& [prio, t] : tiers_) {
    if (remaining == 0) {
      break;
    }
    std::vector<int> tier;  // alloc-registry indexes, in space-id order
    for (const AddressSpace* as : t.slots) {
      if (as != nullptr && as->desired_processors() > 0) {
        tier.push_back(as->alloc_state().index);
      }
    }
    if (tier.empty()) {
      continue;
    }
    // Iterate: cap satisfied spaces at their demand, re-split the rest.
    std::vector<int> open = tier;
    int pool = remaining;
    while (!open.empty() && pool > 0) {
      const int share = pool / static_cast<int>(open.size());
      bool capped_any = false;
      for (auto it = open.begin(); it != open.end();) {
        const size_t i = static_cast<size_t>(*it);
        const int want = spaces_[i]->desired_processors() - target[i];
        if (want <= share) {
          target[i] += want;
          pool -= want;
          it = open.erase(it);
          capped_any = true;
        } else {
          ++it;
        }
      }
      if (capped_any) {
        continue;
      }
      // Everyone still open wants more than the share: give each the share,
      // then hand out the leftover one-by-one in space-id order.  Under the
      // affinity policy, incumbents (spaces already holding more processors)
      // come first — a leftover that stays put forces no migration; the
      // stable sort keeps id order among equals.
      if (kernel_->config().affinity_allocation) {
        std::stable_sort(open.begin(), open.end(), [this](int a, int b) {
          return spaces_[static_cast<size_t>(a)]->assigned().size() >
                 spaces_[static_cast<size_t>(b)]->assigned().size();
        });
      }
      for (int i : open) {
        target[static_cast<size_t>(i)] += share;
        pool -= share;
      }
      for (auto it = open.begin(); it != open.end() && pool > 0; ++it) {
        target[static_cast<size_t>(*it)] += 1;
        --pool;
      }
      open.clear();
    }
    remaining = pool;
  }
  return target;
}

std::vector<int> ProcessorAllocator::ComputeTargets() {
  if (!use_incremental()) {
    return ComputeTargetsReference();
  }
  SyncDemands();
  RefreshTargets();
  std::vector<int> target(spaces_.size(), 0);
  for (const AddressSpace* as : spaces_) {
    target[static_cast<size_t>(as->alloc_state().index)] = as->alloc_state().target;
  }
  return target;
}

void ProcessorAllocator::RefreshTargets() {
  int pool = num_processors_;
  for (auto& [prio, tier] : tiers_) {
    if (!tier.dirty && tier.pool_in == pool) {
      pool = tier.pool_out;
      continue;
    }
    RefreshTier(tier, pool);
    pool = tier.pool_out;
  }
}

void ProcessorAllocator::RefreshTier(Tier& tier, int pool_in) {
  // Replay the reference water-fill on aggregates.  Each round offers every
  // still-open member an even share of the pool and caps those content with
  // it.  Because the offered share never decreases between rounds, "capped"
  // is exactly "demand <= the final capping share" — one prefix query per
  // round gives the capped count and their total demand without touching
  // members.  The loop runs at most once per distinct capping share.
  int capped_cnt = 0;
  int threshold = 0;
  int pool = pool_in;
  for (;;) {
    const int open = tier.active - capped_cnt;
    if (open == 0 || pool == 0) {
      break;
    }
    const int share = pool / open;
    int cnt = 0;
    int64_t sum = 0;
    FenwickPrefix(tier, share, &cnt, &sum);
    if (cnt == capped_cnt) {
      break;  // nobody newly content: distribute the pool evenly
    }
    threshold = share;
    capped_cnt = cnt;
    pool = pool_in - static_cast<int>(sum);
  }
  const int uncapped = tier.active - capped_cnt;
  const int share = uncapped > 0 ? pool / uncapped : 0;
  const int leftover = uncapped > 0 ? pool - share * uncapped : 0;
  const int pool_out = uncapped > 0 ? 0 : pool;

  // A member's uncapped status can move only if its demand changed or its
  // demand lies between the old and the new threshold; re-derive exactly
  // those.  Everyone else keeps the status, and the index position, of the
  // last refresh.
  const int lo_t = std::min(tier.threshold, threshold);
  const int hi_t = std::min(std::max(tier.threshold, threshold),
                            static_cast<int>(tier.by_demand.size()) - 1);
  for (AddressSpace* as : tier.changed) {
    const int d = as->alloc_state().demand;
    SetUncapped(tier, as, d > 0 && Clamp(d) > threshold);
  }
  for (int v = lo_t + 1; v <= hi_t; ++v) {
    for (AddressSpace* as : tier.by_demand[static_cast<size_t>(v)]) {
      SetUncapped(tier, as, v > threshold);
    }
  }
  SA_CHECK(tier.uncapped_index.total() == uncapped);
  // The first `leftover` uncapped members in id order get one more: those
  // below the position just past the leftover-th one.
  const int frontier = leftover > 0 ? tier.uncapped_index.Select(leftover) + 1 : 0;
  auto apply = [&](AddressSpace* as) {
    ++members_touched_;
    const int d = as->alloc_state().demand;
    int t = 0;
    if (d > 0) {
      t = Clamp(d) <= threshold ? d
                                : share + (as->alloc_state().tier_pos < frontier ? 1 : 0);
    }
    ApplyTarget(as, t);
  };
  if (share != tier.share) {
    // Every uncapped target moves.
    for (AddressSpace* as : tier.slots) {
      if (as != nullptr) {
        apply(as);
      }
    }
  } else {
    // Otherwise a target moves only for a member whose status was just
    // re-derived, or for an uncapped member that the leftover frontier
    // crossed: its extra processor comes or goes.
    for (AddressSpace* as : tier.changed) {
      apply(as);
    }
    for (int v = lo_t + 1; v <= hi_t; ++v) {
      for (AddressSpace* as : tier.by_demand[static_cast<size_t>(v)]) {
        apply(as);
      }
    }
    const int lo = std::min(tier.frontier, frontier);
    const int hi = std::max(tier.frontier, frontier);
    const int total = tier.uncapped_index.total();
    for (int k = tier.uncapped_index.CountBefore(lo) + 1; k <= total; ++k) {
      const int pos = tier.uncapped_index.Select(k);
      if (pos >= hi) {
        break;
      }
      apply(tier.slots[static_cast<size_t>(pos)]);
    }
  }
  for (AddressSpace* as : tier.changed) {
    as->alloc_state().pending_refresh = false;
  }
  tier.changed.clear();
  tier.dirty = false;
  tier.pool_in = pool_in;
  tier.pool_out = pool_out;
  tier.threshold = threshold;
  tier.share = share;
  tier.frontier = frontier;
}

void ProcessorAllocator::SetUncapped(Tier& tier, AddressSpace* as, bool uncapped) {
  AddressSpace::AllocState& st = as->alloc_state();
  if (st.uncapped != uncapped) {
    st.uncapped = uncapped;
    tier.uncapped_index.Add(st.tier_pos, uncapped ? +1 : -1);
  }
}

void ProcessorAllocator::CompactTier(Tier& tier) {
  // A member keeps its leftover processor exactly when it stays below the
  // frontier, so the frontier becomes the count of live members before it.
  std::vector<AddressSpace*> live;
  live.reserve(tier.slots.size() - static_cast<size_t>(tier.holes));
  int frontier = 0;
  tier.uncapped_index.Clear();
  for (size_t pos = 0; pos < tier.slots.size(); ++pos) {
    AddressSpace* as = tier.slots[pos];
    if (as == nullptr) {
      continue;
    }
    frontier += static_cast<int>(pos) < tier.frontier ? 1 : 0;
    AddressSpace::AllocState& st = as->alloc_state();
    st.tier_pos = static_cast<int>(live.size());
    live.push_back(as);
    tier.uncapped_index.Append();
    if (st.uncapped) {
      tier.uncapped_index.Add(st.tier_pos, +1);
    }
  }
  tier.slots = std::move(live);
  tier.holes = 0;
  tier.frontier = frontier;
}

void ProcessorAllocator::ApplyTarget(AddressSpace* as, int target) {
  if (as->alloc_state().target != target) {
    as->alloc_state().target = target;
    RefreshDerived(as);
  }
}

void ProcessorAllocator::RefreshDerived(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  if (st.index < 0 || !use_incremental()) {
    return;
  }
  // Entitlement, not raw holdings: a lender's loaned-out processors still
  // count toward it (it must not look needy for capacity it chose to lend)
  // and a borrower's borrowed ones never do (it must not look satisfied by
  // capacity it can lose at any instant).  Identical to assigned().size()
  // with lending off.
  const int assigned = Entitled(as);
  const int deficit = st.target - assigned;
  if (deficit <= 0) {
    if (st.heap_pos >= 0) {
      deficit_heap_.Erase(as);
    }
  } else if (st.heap_pos < 0) {
    st.heap_deficit = deficit;
    deficit_heap_.Insert(as);
  } else if (deficit != st.heap_deficit) {
    st.heap_deficit = deficit;
    deficit_heap_.Rekey(as);
  }
  const int have = assigned - st.pending_revokes;
  const bool in_surplus = have > st.target;
  if (in_surplus != st.in_surplus) {
    if (in_surplus) {
      surplus_.Insert(as->id());
    } else {
      surplus_.Erase(as->id());
    }
    st.in_surplus = in_surplus;
  }
  const bool needy = have < st.target;
  if (needy != st.needy) {
    needy_ += needy ? 1 : -1;
    st.needy = needy;
  }
}

void ProcessorAllocator::NotePendingDelta(AddressSpace* as, int delta) {
  as->alloc_state().pending_revokes += delta;
  RefreshDerived(as);
}

void ProcessorAllocator::OnAssignedChanged(AddressSpace* as, hw::Processor* proc,
                                           int delta) {
  AddressSpace::AllocState& st = as->alloc_state();
  const hw::Topology& topo = kernel_->machine()->topology();
  if (st.socket_held.empty()) {
    st.socket_held.assign(static_cast<size_t>(topo.num_sockets()), 0);
  }
  st.socket_held[static_cast<size_t>(topo.SocketOf(proc->id()))] += delta;
  if (st.index >= 0) {
    if (delta > 0 && as->assigned().size() == 1) {
      holders_.Insert(as->id());
    } else if (delta < 0 && as->assigned().empty()) {
      holders_.Erase(as->id());
    }
  }
  RefreshDerived(as);
}

// ---------------------------------------------------------------------------
// Rebalancing.
// ---------------------------------------------------------------------------

void ProcessorAllocator::Rebalance() {
  SyncDemands();
  RebalanceInternal();
}

void ProcessorAllocator::RebalanceInternal() {
  if (rebalancing_) {
    rerun_ = true;
    return;
  }
  rebalancing_ = true;
  do {
    rerun_ = false;
    if (use_incremental()) {
      RefreshTargets();
      // Revocation pass: spaces above target give up processors, but only
      // if some other space will use them.  Targets stay fixed for the
      // pass (demand changes re-enter via rerun_), so walking a snapshot
      // of the surplus index in id order visits exactly the spaces the
      // full scan would have revoked from.
      if (needy_ > 0 && !surplus_.empty()) {
        surplus_.ListInto(&surplus_snapshot_);
        for (int id : surplus_snapshot_) {
          auto it = by_id_.find(id);
          if (it != by_id_.end()) {
            RevokeSurplus(it->second, it->second->alloc_state().target);
          }
        }
      }
      GrantFreeProcessors();
      if (lending_enabled()) {
        LendSurplus();
      }
    } else {
      const std::vector<int> target = ComputeTargetsReference();
      bool someone_needs = false;
      for (const AddressSpace* as : spaces_) {
        const int have = static_cast<int>(as->assigned().size()) -
                         as->alloc_state().pending_revokes;
        if (have < target[static_cast<size_t>(as->alloc_state().index)]) {
          someone_needs = true;
          break;
        }
      }
      if (someone_needs) {
        for (auto& [id, as] : by_id_) {
          RevokeSurplus(as, target[static_cast<size_t>(as->alloc_state().index)]);
        }
      }
      GrantFreeProcessorsReference();
    }
  } while (rerun_);
  rebalancing_ = false;
}

void ProcessorAllocator::RevokeSurplus(AddressSpace* as, int target) {
  int surplus = Entitled(as) - as->alloc_state().pending_revokes - target;
  if (surplus <= 0) {
    return;
  }
  // A lender above target sheds loans first: adoption transfers ownership
  // to the borrower with no processor motion, so Section 4.1 reclaims the
  // lender's paper capacity without a preemption.  Loans mid-reclaim are
  // skipped — their in-flight completion would strand an adopted processor.
  while (surplus > 0 && !loans_.empty()) {
    const Loan* pick = nullptr;
    for (const auto& [pid, loan] : loans_) {
      if (loan.lender == as && !loan.reclaiming &&
          (pick == nullptr || loan.epoch > pick->epoch)) {
        pick = &loan;
      }
    }
    if (pick == nullptr) {
      break;
    }
    AdoptLoan(*pick);
    --surplus;
  }
  if (surplus <= 0) {
    return;
  }
  RevocationOrder(as, &revoke_order_);
  const std::vector<hw::Processor*>& candidates = revoke_order_;
  // Pass 1: idle-in-kernel processors reclaim immediately and displace
  // nothing; take those first regardless of recency, so a surplus never
  // preempts a running thread while a sibling processor sits idle.  A
  // processor with anything in flight (pending action, latched interrupt)
  // is not quiescent and falls through to the preemption pass.  Borrowed
  // processors leave only through the loan protocol, never through here.
  for (hw::Processor* proc : candidates) {
    if (surplus == 0) {
      break;
    }
    if (IsOnLoan(proc)) {
      continue;
    }
    if (kernel_->IdleInKernel(proc)) {
      kernel_->UnassignProcessor(proc);
      if (as->mode() == AsMode::kSchedulerActivations) {
        as->sa()->OnProcessorRevoked(proc, nullptr);
      }
      free_.PushBack(proc);
      --surplus;
    }
  }
  // Pass 2: preempt busy processors in revocation order for what remains.
  for (hw::Processor* proc : candidates) {
    if (surplus == 0) {
      break;
    }
    if (IsOnLoan(proc)) {
      continue;
    }
    if (kernel_->IdleInKernel(proc)) {
      continue;  // reclaimed above (or already detached)
    }
    PendingAction action;
    action.kind = PendingAction::Kind::kRevoke;
    if (kernel_->RequestPreemption(proc, action)) {
      NotePendingDelta(as, +1);
      --surplus;
    }
  }
}

void ProcessorAllocator::GrantFreeProcessors() {
  for (;;) {
    if (free_.empty()) {
      return;
    }
    // Demand may have changed synchronously under a grant's upcall (e.g. a
    // kernel-thread dispatch raising runnable count); dirty tiers refresh
    // here, mirroring the reference path's per-grant recompute.
    RefreshTargets();
    if (deficit_heap_.empty()) {
      return;  // idle processors stay in the free pool
    }
    Grant(free_.PopBack(), deficit_heap_.top());
  }
}

void ProcessorAllocator::GrantFreeProcessorsReference() {
  for (;;) {
    if (free_.empty()) {
      return;
    }
    const std::vector<int> target = ComputeTargetsReference();
    // Pick the neediest space: highest priority first, then largest deficit,
    // then lowest id (deterministic).
    AddressSpace* best = nullptr;
    int best_deficit = 0;
    for (auto& [id, as] : by_id_) {
      const int deficit = target[static_cast<size_t>(as->alloc_state().index)] -
                          static_cast<int>(as->assigned().size());
      if (deficit <= 0) {
        continue;
      }
      if (best == nullptr || as->priority() > best->priority() ||
          (as->priority() == best->priority() && deficit > best_deficit)) {
        best = as;
        best_deficit = deficit;
      }
    }
    if (best == nullptr) {
      return;  // idle processors stay in the free pool
    }
    // Affinity: a space tied with `best` on priority and deficit has an
    // equal claim, so if a pooled processor's last owner is among the tied
    // spaces, hand it straight back — the common case after a revocation
    // burst, where each robbed space is owed exactly one processor and the
    // id tie-break would shuffle them.
    if (kernel_->config().affinity_allocation) {
      bool granted_warm = false;
      for (hw::Processor* proc = free_.Back(); proc != nullptr;) {
        hw::Processor* prev = free_.Prev(proc);
        if (proc->alloc_last_owner >= 0) {
          auto owner = by_id_.find(proc->alloc_last_owner);
          if (owner != by_id_.end()) {
            AddressSpace* as = owner->second;
            const int deficit = target[static_cast<size_t>(as->alloc_state().index)] -
                                static_cast<int>(as->assigned().size());
            if (as->priority() == best->priority() && deficit == best_deficit) {
              free_.Remove(proc);
              Grant(proc, as);
              granted_warm = true;
              break;
            }
          }
        }
        proc = prev;
      }
      if (granted_warm) {
        continue;
      }
    }
    Grant(PickFreeProcessor(best), best);
  }
}

hw::Processor* ProcessorAllocator::PickFreeProcessor(const AddressSpace* as) {
  SA_CHECK(!free_.empty());
  hw::Processor* pick = free_.Back();  // default policy: most recently freed
  if (kernel_->config().affinity_allocation) {
    const hw::Topology& topo = kernel_->machine()->topology();
    const auto& held = as->alloc_state().socket_held;
    // Warm (last owner is this space) dominates; then a socket the space
    // already occupies.  `>=` so ties go to the most recently freed,
    // matching the default policy's choice.
    int best_score = -1;
    for (hw::Processor* p : free_) {
      int score = 0;
      if (p->alloc_last_owner == as->id()) {
        score += 2;
      }
      if (!held.empty() && held[static_cast<size_t>(topo.SocketOf(p->id()))] > 0) {
        score += 1;
      }
      if (score >= best_score) {
        best_score = score;
        pick = p;
      }
    }
  }
  free_.Remove(pick);
  return pick;
}

void ProcessorAllocator::RevocationOrder(const AddressSpace* as,
                                         std::vector<hw::Processor*>* out) const {
  // Most recently granted first: long-held (warm) processors stay with
  // their space longest.
  std::vector<hw::Processor*>& order = *out;
  order.assign(as->assigned().rbegin(), as->assigned().rend());
  const hw::Topology& topo = kernel_->machine()->topology();
  if (!kernel_->config().affinity_allocation || !topo.hierarchical()) {
    return;
  }
  // Give up stragglers first — processors in sockets where the space holds
  // the fewest — so what remains is socket-compact.  Stable, so recency
  // still decides within a socket-population class.
  const std::vector<int>& held = as->alloc_state().socket_held;
  std::stable_sort(order.begin(), order.end(),
                   [&](const hw::Processor* a, const hw::Processor* b) {
                     return held[static_cast<size_t>(topo.SocketOf(a->id()))] <
                            held[static_cast<size_t>(topo.SocketOf(b->id()))];
                   });
}

void ProcessorAllocator::Grant(hw::Processor* proc, AddressSpace* as) {
  SA_DEBUG(kLog, "grant processor %d to %s", proc->id(), as->name().c_str());
  const int prev_owner = proc->alloc_last_owner;
  const bool warm = prev_owner == as->id();
  SpaceAllocStats& st = as->alloc_state().stats;
  if (warm) {
    ++st.warm_grants;
  } else {
    ++st.cold_grants;
  }
  const hw::Topology& topo = kernel_->machine()->topology();
  if (topo.hierarchical()) {
    const auto socket = static_cast<uint64_t>(topo.SocketOf(proc->id()));
    if (warm) {
      kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocWarmGrant,
                                  proc->id(), as->id(), socket, 0);
    } else {
      const uint64_t prev_arg =
          prev_owner < 0 ? 0 : static_cast<uint64_t>(prev_owner) + 1;
      kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocColdGrant,
                                  proc->id(), as->id(), socket, prev_arg);
    }
  }
  proc->alloc_last_owner = as->id();
  kernel_->AssignProcessor(proc, as);
  if (as->mode() == AsMode::kSchedulerActivations) {
    as->sa()->OnProcessorGranted(proc);
  } else {
    kernel_->DispatchOn(proc);
  }
}

int ProcessorAllocator::InjectRevocations(int burst, common::Rng& rng) {
  ++decisions_;
  // Candidates are owned processors only: a free-pool processor has no
  // revocation protocol to exercise (and pushing it to free_ again would
  // corrupt the pool).  Holder spaces iterate in id order — the registration
  // order the original implementation walked, minus spaces whose empty
  // holdings contributed nothing — so seeded storms are reproducible
  // regardless of release-time swap-removals in the dense registry, and a
  // storm costs O(processors), not O(spaces).
  std::vector<std::pair<AddressSpace*, hw::Processor*>> owned;
  std::vector<int> holder_ids;
  holders_.ListInto(&holder_ids);
  for (int id : holder_ids) {
    AddressSpace* as = by_id_.find(id)->second;
    for (hw::Processor* proc : as->assigned()) {
      if (IsOnLoan(proc)) {
        continue;  // loans churn only through the loan protocol
      }
      owned.emplace_back(as, proc);
    }
  }
  int revoked = 0;
  for (int i = 0; i < burst && !owned.empty(); ++i) {
    const size_t pick = static_cast<size_t>(rng.Below(owned.size()));
    auto [as, proc] = owned[pick];
    owned.erase(owned.begin() + static_cast<ptrdiff_t>(pick));
    if (kernel_->running_on(proc) == nullptr && !proc->has_span()) {
      // Idle in kernel: reclaim immediately (same fast path as Rebalance).
      kernel_->UnassignProcessor(proc);
      if (as->mode() == AsMode::kSchedulerActivations) {
        as->sa()->OnProcessorRevoked(proc, nullptr);
      }
      free_.PushBack(proc);
      ++revoked;
      continue;
    }
    PendingAction action;
    action.kind = PendingAction::Kind::kRevoke;
    if (kernel_->RequestPreemption(proc, action)) {
      NotePendingDelta(as, +1);
      ++revoked;
    }
  }
  if (revoked > 0) {
    // The freed/soon-free processors re-enter allocation through the normal
    // path — the churn the storm is meant to exercise.
    RebalanceInternal();
  }
  return revoked;
}

void ProcessorAllocator::ReleaseSpace(AddressSpace* as) {
  ++decisions_;
  AddressSpace::AllocState& st = as->alloc_state();
  SA_CHECK(st.index >= 0);
  as->set_desired_processors(0);
  RecordDemand(as);  // zero demand leaves the tier aggregates
  // Drop out of the decision structures.
  if (st.heap_pos >= 0) {
    deficit_heap_.Erase(as);
  }
  if (st.in_surplus) {
    surplus_.Erase(as->id());
    st.in_surplus = false;
  }
  if (st.needy) {
    --needy_;
    st.needy = false;
  }
  st.pending_revokes = 0;
  st.target = 0;
  st.heap_deficit = 0;
  st.stats = SpaceAllocStats{};
  // Loans touching the space were settled by ResolveLoansForTeardown (the
  // conservation report checks loaned_out/borrowed_in are zero); wipe the
  // dip machinery and bump the epoch so scheduled dip callbacks captured
  // before death see a stale epoch and fall out.  Lifetime lend/borrow
  // totals survive for reporting.
  lendable_.erase(as->id());
  as->loan_state().dip_armed = false;
  as->loan_state().dip_ripe = false;
  ++as->loan_state().dip_epoch;
  // Leave the tier.
  Tier& tier = TierOf(as);
  if (st.pending_refresh) {
    tier.changed.erase(std::find(tier.changed.begin(), tier.changed.end(), as));
    st.pending_refresh = false;
  }
  SetUncapped(tier, as, false);
  tier.slots[static_cast<size_t>(st.tier_pos)] = nullptr;
  st.tier_pos = -1;
  ++tier.holes;
  if (2 * static_cast<size_t>(tier.holes) > tier.slots.size()) {
    CompactTier(tier);
  }
  --tier.members;
  const bool tier_empty = tier.members == 0;
  // Leave the dense registry: swap-remove, fixing the moved space's slot.
  AddressSpace* last = spaces_.back();
  spaces_[static_cast<size_t>(st.index)] = last;
  last->alloc_state().index = st.index;
  spaces_.pop_back();
  st.index = -1;
  by_id_.erase(as->id());
  holders_.Erase(as->id());
  if (tier_empty) {
    tiers_.erase(as->priority());
  }
  SA_DEBUG(kLog, "released space %s; %d spaces remain", as->name().c_str(),
           static_cast<int>(spaces_.size()));
  RebalanceInternal();
}

void ProcessorAllocator::OnRevokeComplete(AddressSpace* old_as, hw::Processor* proc) {
  ++decisions_;
  if (old_as != nullptr && IsRegistered(old_as) &&
      old_as->alloc_state().pending_revokes > 0) {
    NotePendingDelta(old_as, -1);
  }
  // A processor detaching from a settled loan (borrower-death teardown
  // revocation) goes straight home to its lender, not the free pool.
  auto rt = return_to_.find(proc->id());
  if (rt != return_to_.end()) {
    AddressSpace* lender = rt->second.lender;
    return_to_.erase(rt);
    if (lender != nullptr && IsRegistered(lender) && !lender->reaped()) {
      Grant(proc, lender);
      RebalanceInternal();
      return;
    }
  }
  free_.PushBack(proc);
  RebalanceInternal();
}

// ---------------------------------------------------------------------------
// Cross-space lending (DESIGN.md §16).
//
// All lending state is empty and every hook below is inert unless
// Config::lending.enabled: Entitled() collapses to assigned().size(),
// EffectiveDemand() to desired_processors(), and no events, trace records,
// or RNG draws are produced — seeded traces stay byte-identical.
// ---------------------------------------------------------------------------

bool ProcessorAllocator::lending_enabled() const {
  return kernel_->config().lending.enabled;
}

int ProcessorAllocator::Entitled(const AddressSpace* as) const {
  const AddressSpace::LoanState& ls = as->loan_state();
  return static_cast<int>(as->assigned().size()) - ls.borrowed_in + ls.loaned_out;
}

int ProcessorAllocator::EffectiveDemand(const AddressSpace* as) const {
  const int desired = as->desired_processors();
  if (!lending_enabled()) {
    return desired;
  }
  const AddressSpace::LoanState& ls = as->loan_state();
  if (ls.loaned_out > 0 || ls.dip_armed || ls.dip_ripe) {
    // The floor keeps Section 4.1 from revoking a dipped lender's surplus
    // out from under the hysteresis window, and keeps a lender's claim to
    // its loaned-out processors alive until the recall lands.
    return std::max(desired, Entitled(as));
  }
  return desired;
}

void ProcessorAllocator::UpdateLoanStateOnDesired(AddressSpace* as) {
  if (!lending_enabled() || !IsRegistered(as) || as->reaped()) {
    return;
  }
  AddressSpace::LoanState& ls = as->loan_state();
  const int desired = as->desired_processors();
  const int assigned = static_cast<int>(as->assigned().size());
  // Demand returned above physical holdings: recall loans first — the
  // instant-reclaim guarantee — before Section 4.1 considers fresh grants.
  if (ls.loaned_out > 0 && desired > assigned) {
    ReclaimLoans(as, std::min(ls.loaned_out, desired - assigned));
  }
  // Dip hysteresis is a kernel-thread-lender device: an SA space parks its
  // idle processors spinning at user level (never idle-in-kernel), so it
  // lends only through the explicit yield-hint downcall.
  if (as->mode() != AsMode::kKernelThreads) {
    return;
  }
  if (desired >= Entitled(as)) {
    ls.dip_armed = false;
    ls.dip_ripe = false;
    ++ls.dip_epoch;
    lendable_.erase(as->id());
    return;
  }
  if (!ls.dip_armed && !ls.dip_ripe) {
    ls.dip_armed = true;
    const uint64_t epoch = ++ls.dip_epoch;
    kernel_->engine().ScheduleIn(kernel_->config().lending.hysteresis,
                                 [this, as, epoch] { OnDipDeadline(as, epoch); });
  }
}

void ProcessorAllocator::OnDipDeadline(AddressSpace* as, uint64_t epoch) {
  if (!lending_enabled() || !IsRegistered(as) || as->reaped()) {
    return;
  }
  AddressSpace::LoanState& ls = as->loan_state();
  if (ls.dip_epoch != epoch || !ls.dip_armed) {
    return;  // demand recovered (or the space churned) while we waited
  }
  ls.dip_armed = false;
  ls.dip_ripe = true;
  lendable_.insert(as->id());
  RebalanceInternal();  // the lend pass runs in the rebalance tail
}

void ProcessorAllocator::LendSurplus() {
  if (lendable_.empty()) {
    return;
  }
  const std::vector<int> ids(lendable_.begin(), lendable_.end());
  for (int id : ids) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      continue;
    }
    AddressSpace* lender = it->second;
    if (!lender->loan_state().dip_ripe || lender->reaped()) {
      continue;
    }
    int surplus = Entitled(lender) - lender->desired_processors();
    // Most recently granted first, mirroring the revocation order.  Only
    // quiescent, owned processors travel: the borrower must get a grant it
    // can use immediately, and the loan must displace nothing.
    const std::vector<hw::Processor*> order(lender->assigned().rbegin(),
                                            lender->assigned().rend());
    for (hw::Processor* proc : order) {
      if (surplus <= 0) {
        break;
      }
      if (IsOnLoan(proc) || !kernel_->IdleInKernel(proc)) {
        continue;
      }
      AddressSpace* borrower = PickBorrower(lender);
      if (borrower == nullptr) {
        break;
      }
      LendOne(proc, lender, borrower);
      --surplus;
    }
  }
}

AddressSpace* ProcessorAllocator::PickBorrower(const AddressSpace* lender) {
  AddressSpace* best = nullptr;
  int best_unmet = 0;
  for (auto& [id, as] : by_id_) {
    if (as == lender || as->reaped()) {
      continue;
    }
    const AddressSpace::LoanState& ls = as->loan_state();
    if (ls.loaned_out > 0 || ls.dip_armed || ls.dip_ripe) {
      continue;  // lenders don't borrow; a loan never chains
    }
    const int unmet =
        as->desired_processors() - static_cast<int>(as->assigned().size());
    if (unmet <= 0) {
      continue;
    }
    if (best == nullptr || as->priority() > best->priority() ||
        (as->priority() == best->priority() && unmet > best_unmet)) {
      best = as;
      best_unmet = unmet;
    }
  }
  return best;
}

void ProcessorAllocator::LendOne(hw::Processor* proc, AddressSpace* lender,
                                 AddressSpace* borrower) {
  ++decisions_;
  Loan loan;
  loan.proc = proc;
  loan.lender = lender;
  loan.borrower = borrower;
  loan.epoch = ++loan_epoch_;
  loan.granted_at = kernel_->engine().now();
  loans_[proc->id()] = loan;
  lender->loan_state().loaned_out += 1;
  borrower->loan_state().borrowed_in += 1;
  ++lender->loan_state().lends;
  ++borrower->loan_state().borrows;
  ++kernel_->counters().loans_granted;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanGrant,
                              proc->id(), lender->id(), loan.epoch,
                              static_cast<uint64_t>(borrower->id()));
  // With the ledger open first, Entitled() on both sides is invariant
  // across the two physical transitions below (loaned_out/borrowed_in
  // offset the assigned() moves), so the deficit/surplus indexes see no
  // transient spike.
  kernel_->UnassignProcessor(proc);
  if (lender->mode() == AsMode::kSchedulerActivations) {
    lender->sa()->OnProcessorRevoked(proc, nullptr);
  }
  Grant(proc, borrower);
  RecordDemand(lender);  // the effective-demand floor may have engaged
  RefreshDerived(lender);
}

bool ProcessorAllocator::WantsLoanFrom(AddressSpace* lender) {
  return lending_enabled() && PickBorrower(lender) != nullptr;
}

void ProcessorAllocator::LendYieldedProcessor(AddressSpace* lender,
                                              hw::Processor* proc, KThread* caller) {
  SA_CHECK(lending_enabled());
  ++decisions_;
  caller->set_state(KThreadState::kStopped);
  kernel_->ClearRunning(proc);
  auto it = loans_.find(proc->id());
  if (it != loans_.end()) {
    // The space hinting here is the *borrower* of an existing loan: loans
    // never chain, so the hint closes the loan instead — a zero-cost return
    // for the original lender (counted as a fast reclaim when one was in
    // flight).
    const Loan loan = it->second;
    SA_CHECK(loan.borrower == lender);
    const bool was_reclaiming = loan.reclaiming;
    CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kReclaimFast));
    if (was_reclaiming) {
      ++kernel_->counters().loans_reclaimed;
      ++kernel_->counters().loans_reclaimed_fast;
      reclaim_latency_.Add(kernel_->engine().now() - loan.reclaim_issued_at);
    }
    kernel_->UnassignProcessor(proc);
    lender->sa()->OnProcessorRevoked(proc, caller);
    AddressSpace* home = loan.lender;
    if (home != nullptr && IsRegistered(home) && !home->reaped()) {
      Grant(proc, home);
    } else {
      free_.PushBack(proc);
    }
    RebalanceInternal();
    return;
  }
  AddressSpace* borrower = PickBorrower(lender);
  if (borrower == nullptr) {
    // The taker vanished between the hint and the downcall charge: detach
    // and pool the processor; the rebalance re-grants it if anyone wants it.
    kernel_->UnassignProcessor(proc);
    lender->sa()->OnProcessorRevoked(proc, caller);
    free_.PushBack(proc);
    RebalanceInternal();
    return;
  }
  Loan loan;
  loan.proc = proc;
  loan.lender = lender;
  loan.borrower = borrower;
  loan.epoch = ++loan_epoch_;
  loan.granted_at = kernel_->engine().now();
  loans_[proc->id()] = loan;
  lender->loan_state().loaned_out += 1;
  borrower->loan_state().borrowed_in += 1;
  ++lender->loan_state().lends;
  ++borrower->loan_state().borrows;
  ++kernel_->counters().loans_granted;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanGrant,
                              proc->id(), lender->id(), loan.epoch,
                              static_cast<uint64_t>(borrower->id()));
  kernel_->UnassignProcessor(proc);
  lender->sa()->OnProcessorRevoked(proc, caller);
  Grant(proc, borrower);
  RecordDemand(lender);
  RefreshDerived(lender);
  RebalanceInternal();
}

void ProcessorAllocator::RecallExcessLoans(AddressSpace* lender) {
  if (!lending_enabled() || !IsRegistered(lender) || lender->reaped()) {
    return;
  }
  const int assigned = static_cast<int>(lender->assigned().size());
  if (lender->desired_processors() > assigned &&
      lender->loan_state().loaned_out > 0) {
    ReclaimLoans(lender, std::min(lender->loan_state().loaned_out,
                                  lender->desired_processors() - assigned));
  }
}

void ProcessorAllocator::ReclaimLoans(AddressSpace* lender, int k) {
  for (int i = 0; i < k; ++i) {
    // Newest loan not already being recalled.
    Loan* pick = nullptr;
    for (auto& [pid, loan] : loans_) {
      if (loan.lender == lender && !loan.reclaiming &&
          (pick == nullptr || loan.epoch > pick->epoch)) {
        pick = &loan;
      }
    }
    if (pick == nullptr) {
      return;
    }
    ++decisions_;
    pick->reclaiming = true;
    pick->reclaim_issued_at = kernel_->engine().now();
    ++lender->loan_state().reclaims;
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanReclaimIssue,
                                pick->proc->id(), lender->id(), pick->epoch, 0);
    hw::Processor* proc = pick->proc;
    const uint64_t epoch = pick->epoch;
    // Instant-reclaim fast path: an idle borrower processor comes back
    // synchronously, with zero recall latency and no preemption at all.
    if (kernel_->IdleInKernel(proc)) {
      const Loan loan = *pick;
      CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kReclaimFast));
      ++kernel_->counters().loans_reclaimed;
      ++kernel_->counters().loans_reclaimed_fast;
      reclaim_latency_.Add(0);
      kernel_->UnassignProcessor(proc);
      if (loan.borrower->mode() == AsMode::kSchedulerActivations &&
          !loan.borrower->reaped()) {
        loan.borrower->sa()->OnProcessorRevoked(proc, nullptr);
      }
      Grant(proc, lender);
      continue;
    }
    // Busy borrower: a single bounded-latency preemption (no grant-loop
    // renegotiation), optionally held back by the fault injector to
    // exercise the deadline watchdog.
    inject::FaultInjector* injector = kernel_->injector();
    const sim::Duration delay =
        injector != nullptr ? injector->LoanReclaimDelay() : 0;
    if (delay > 0) {
      const int pid2 = proc->id();
      kernel_->engine().ScheduleIn(delay, [this, pid2, epoch] {
        IssueReclaimIpi(pid2, epoch);
      });
    } else {
      IssueReclaimIpi(proc->id(), epoch);
    }
    ArmLoanDeadline(proc->id(), epoch);
  }
}

void ProcessorAllocator::IssueReclaimIpi(int proc_id, uint64_t epoch) {
  auto it = loans_.find(proc_id);
  if (it == loans_.end() || it->second.epoch != epoch || !it->second.reclaiming) {
    return;  // settled (teardown, hint-back) while the issue was in flight
  }
  Loan& loan = it->second;
  loan.ipi_sent = true;
  hw::Processor* proc = loan.proc;
  if (kernel_->IdleInKernel(proc)) {
    // The borrower went idle while the issue (or an injected delay) was
    // pending: synchronous completion, no preemption needed.
    const Loan copy = loan;
    CloseLoan(copy, static_cast<int>(trace::LoanReturnReason::kReclaimFast));
    ++kernel_->counters().loans_reclaimed;
    ++kernel_->counters().loans_reclaimed_fast;
    reclaim_latency_.Add(kernel_->engine().now() - copy.reclaim_issued_at);
    kernel_->UnassignProcessor(proc);
    if (copy.borrower->mode() == AsMode::kSchedulerActivations &&
        !copy.borrower->reaped()) {
      copy.borrower->sa()->OnProcessorRevoked(proc, nullptr);
    }
    AddressSpace* lender = copy.lender;
    if (lender != nullptr && IsRegistered(lender) && !lender->reaped()) {
      Grant(proc, lender);
    } else {
      free_.PushBack(proc);
    }
    RebalanceInternal();
    return;
  }
  PendingAction action;
  action.kind = PendingAction::Kind::kLoanReclaim;
  action.loan_epoch = epoch;
  // A false return (slot already latched) is tolerated: the deadline
  // watchdog retries until the loan settles or the borrower is quarantined.
  kernel_->RequestPreemption(proc, action);
}

void ProcessorAllocator::OnLoanReclaimPreempted(hw::Processor* proc, uint64_t epoch) {
  auto it = loans_.find(proc->id());
  if (it == loans_.end() || it->second.epoch != epoch) {
    return;  // settled by adoption/teardown while the interrupt was in flight
  }
  // Settle the ledger at preempt time — before the processor detaches — so
  // the borrower's entitlement never transiently dips below its holdings.
  const Loan loan = it->second;
  CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kReclaimPreempt));
  ++kernel_->counters().loans_reclaimed;
  PendingReturn ret;
  ret.lender = loan.lender;
  ret.issued_at = loan.reclaim_issued_at;
  return_to_[proc->id()] = ret;
}

void ProcessorAllocator::OnLoanReclaimComplete(AddressSpace* old_as,
                                               hw::Processor* proc) {
  (void)old_as;  // the ledger was settled in OnLoanReclaimPreempted
  ++decisions_;
  AddressSpace* lender = nullptr;
  sim::Time issued_at = -1;
  auto rt = return_to_.find(proc->id());
  if (rt != return_to_.end()) {
    lender = rt->second.lender;
    issued_at = rt->second.issued_at;
    return_to_.erase(rt);
  }
  if (issued_at >= 0) {
    reclaim_latency_.Add(kernel_->engine().now() - issued_at);
  }
  if (lender != nullptr && IsRegistered(lender) && !lender->reaped()) {
    Grant(proc, lender);
  } else {
    free_.PushBack(proc);
  }
  RebalanceInternal();
}

void ProcessorAllocator::ArmLoanDeadline(int proc_id, uint64_t epoch) {
  auto it = loans_.find(proc_id);
  if (it == loans_.end() || it->second.epoch != epoch) {
    return;
  }
  // The deadline doubles per unanswered ping (space_reaper's ladder shape).
  const int pings = std::min(it->second.pings, 20);
  const sim::Duration delay = kernel_->config().lending.reclaim_deadline << pings;
  kernel_->engine().ScheduleIn(delay, [this, proc_id, epoch] {
    OnLoanDeadline(proc_id, epoch);
  });
}

void ProcessorAllocator::OnLoanDeadline(int proc_id, uint64_t epoch) {
  auto it = loans_.find(proc_id);
  if (it == loans_.end() || it->second.epoch != epoch || !it->second.reclaiming) {
    return;  // the loan settled in time
  }
  Loan& loan = it->second;
  ++loan.pings;
  ++kernel_->counters().loan_deadline_pings;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanDeadlinePing,
                              proc_id, loan.lender->id(), epoch,
                              static_cast<uint64_t>(loan.pings));
  if (loan.pings >= kernel_->config().lending.max_pings) {
    // The borrower sat on the reclaim deadline: force-revoke.  Quarantining
    // it through the reaper settles every loan it touches
    // (ResolveLoansForTeardown) and routes this processor home via
    // return_to_ when the teardown revocation lands.
    const Loan copy = loan;
    ++kernel_->counters().loans_force_revoked;
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanForceRevoke,
                                proc_id, copy.lender->id(), epoch,
                                static_cast<uint64_t>(copy.borrower->id()));
    if (!copy.borrower->reaped()) {
      kernel_->reaper()->BeginTeardown(copy.borrower, TeardownCause::kHoarded);
    }
    return;
  }
  if (loan.ipi_sent) {
    // The interrupt was actually issued but the preemption slot was taken;
    // retry.  (While an injected delay still holds the issue back, pings
    // escalate without re-issuing — that is what makes force-revocation
    // reachable under a reclaim-delay fault.)
    IssueReclaimIpi(proc_id, epoch);
  }
  ArmLoanDeadline(proc_id, epoch);
}

void ProcessorAllocator::AdoptLoan(Loan loan) {
  ++decisions_;
  ++kernel_->counters().loans_adopted;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanAdopt,
                              loan.proc->id(), loan.lender->id(), loan.epoch,
                              static_cast<uint64_t>(loan.borrower->id()));
  // Adoption is an ownership transfer, not a return: no kLoanReturn record,
  // no processor motion — the borrower's entitlement absorbs the processor
  // it already holds.
  CloseLoan(loan, /*reason=*/-1);
  rerun_ = true;  // entitlements moved; re-derive targets if mid-rebalance
}

void ProcessorAllocator::CloseLoan(const Loan& loan, int reason) {
  auto it = loans_.find(loan.proc->id());
  SA_CHECK(it != loans_.end() && it->second.epoch == loan.epoch);
  loans_.erase(it);
  AddressSpace* lender = loan.lender;
  AddressSpace* borrower = loan.borrower;
  SA_CHECK(lender->loan_state().loaned_out > 0);
  SA_CHECK(borrower->loan_state().borrowed_in > 0);
  --lender->loan_state().loaned_out;
  --borrower->loan_state().borrowed_in;
  if (reason >= 0) {
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanReturn,
                                loan.proc->id(), lender->id(), loan.epoch,
                                static_cast<uint64_t>(reason));
  }
  if (IsRegistered(lender)) {
    RecordDemand(lender);
    RefreshDerived(lender);
  }
  if (IsRegistered(borrower)) {
    RecordDemand(borrower);
    RefreshDerived(borrower);
  }
}

void ProcessorAllocator::ResolveLoansForTeardown(AddressSpace* as) {
  if (loans_.empty()) {
    return;
  }
  ++decisions_;
  std::vector<Loan> lender_side;
  std::vector<Loan> borrower_side;
  for (const auto& [pid, loan] : loans_) {
    if (loan.lender == as) {
      lender_side.push_back(loan);
    } else if (loan.borrower == as) {
      borrower_side.push_back(loan);
    }
  }
  // Lender death: each loan becomes the borrower's outright — adoption, no
  // processor motion, machine-wide conservation intact.
  for (const Loan& loan : lender_side) {
    AdoptLoan(loan);
  }
  // Borrower death: the processor comes home.  The reaper's teardown sweep
  // revokes every assigned processor; return_to_ reroutes these from the
  // free pool back to their lenders when those revocations land.
  for (const Loan& loan : borrower_side) {
    const bool was_reclaiming = loan.reclaiming;
    CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kBorrowerDeath));
    if (was_reclaiming) {
      ++kernel_->counters().loans_reclaimed;
    }
    PendingReturn ret;
    ret.lender = loan.lender;
    ret.issued_at = was_reclaiming ? loan.reclaim_issued_at : sim::Time{-1};
    return_to_[loan.proc->id()] = ret;
  }
}

}  // namespace sa::kern
