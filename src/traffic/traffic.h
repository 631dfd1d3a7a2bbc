// Open-loop multi-tenant traffic generation (DESIGN.md §15).
//
// A TrafficGenerator drives many address spaces ("tenants") at distinct
// priority tiers through an rt::Harness the way a datacenter cluster is
// driven: requests arrive on a seeded stochastic clock that does not care
// whether earlier requests finished (open loop — queueing delay compounds
// under overload instead of throttling the source, which is what makes tail
// latency honest).  Each tenant is a kernel-thread-mode space; a request is
// one thread spawned at arrival time whose body computes (and optionally
// blocks on I/O) for a service time sampled at arrival.  Sojourn latency —
// arrival to completion, queueing included — feeds a per-tenant
// trace::LatencyHistogram (and optionally exact common::Samples), and a
// harness report hook surfaces p50/p99/p999 plus SLO-violation fractions in
// RunReport's per-tenant table.
//
// Determinism: every draw comes from per-tenant Rng streams forked from one
// run-level seed at construction, and arrival times are functions of those
// streams and the config alone.  With no tenants configured the generator
// registers nothing and schedules nothing, so seeded traces stay
// byte-identical to a run without it (zero-perturbation, house convention).

#ifndef SA_TRAFFIC_TRAFFIC_H_
#define SA_TRAFFIC_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/histogram.h"

namespace sa::traffic {

// One request class in a tenant's mix: how long a request of this class
// computes, and whether it blocks on a device mid-request.
struct RequestClass {
  std::string name = "req";
  double weight = 1.0;  // relative draw probability within the tenant's mix
  sim::Duration mean_service = sim::Msec(2);
  enum class Dist {
    kFixed,        // every request costs exactly mean_service
    kExponential,  // service ~ Exp(mean_service), capped at 20x the mean
  };
  Dist dist = Dist::kFixed;
  sim::Duration io = 0;  // device block in the middle of service (0 = none)
};

// Arrival process for one tenant.  Rates are requests per virtual second.
struct ArrivalSpec {
  enum class Kind {
    kPoisson,  // memoryless: inter-arrival ~ Exp(1/rate)
    kOnOff,    // bursty: Poisson(rate) during ON, silent during OFF, with
               // exponentially distributed ON/OFF phase lengths
  };
  Kind kind = Kind::kPoisson;
  double rate = 100.0;
  sim::Duration on_mean = sim::Msec(200);
  sim::Duration off_mean = sim::Msec(800);
};

// Diurnal load shape: a cyclic piecewise-linear rate multiplier.  `period`
// of zero means flat load (multiplier 1 everywhere).
struct RampPoint {
  sim::Duration at = 0;  // offset within the period
  double multiplier = 1.0;
};
struct RampSpec {
  sim::Duration period = 0;
  std::vector<RampPoint> points;  // sorted by `at`, first at offset 0

  // Multiplier at virtual time `now` (cyclic linear interpolation).
  double At(sim::Time now) const;
};

// The tenant's latency objective: `quantile` of requests must have sojourn
// latency <= `latency`.
struct SloSpec {
  sim::Duration latency = sim::Msec(50);
  double quantile = 0.999;
};

struct TenantSpec {
  std::string name;
  int priority = 0;  // allocator tier; higher is served first
  ArrivalSpec arrivals;
  RampSpec ramp;
  std::vector<RequestClass> mix = {RequestClass{}};
  SloSpec slo;
};

struct TrafficConfig {
  std::vector<TenantSpec> tenants;
  // Arrivals stop at `horizon`; the run then drains for at most `drain`
  // before in-flight requests are censored (counted unserved; a censored
  // request already past its SLO bound still counts as a violation).
  sim::Duration horizon = sim::Sec(2);
  sim::Duration drain = sim::Sec(1);
  uint64_t seed = 1;
  bool record_samples = false;   // keep exact per-request Samples too
  bool record_arrivals = false;  // keep the arrival event log (tests)

  bool active() const { return !tenants.empty(); }
};

// One entry of the (optional) arrival event log: enough to prove two equal
// seeds produce byte-identical arrival sequences.
struct ArrivalEvent {
  int tenant = 0;
  sim::Time at = 0;
  int klass = 0;
  sim::Duration service = 0;

  bool operator==(const ArrivalEvent&) const = default;
};

// Per-tenant accounting, exposed for tests; FillReport translates it into
// rt::TenantSloRow form.
struct TenantStats {
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t completed_violations = 0;  // completed, but over the SLO bound
  trace::LatencyHistogram sojourn;
  common::Samples samples;  // iff record_samples
  // Arrival time of every request, indexed by its sequence number (the
  // tenant's arrival count when it arrived); kServed once it completed.
  std::vector<sim::Time> arrived_at;
  static constexpr sim::Time kServed = -1;
};

class TrafficGenerator {
 public:
  // Builds one TopazRuntime tenant per spec (background: tenants never gate
  // completion themselves), registers a completion gate that holds the run
  // open until arrivals finish and the load drains, and a report hook that
  // fills RunReport::tenants.  With an empty config this is a no-op object.
  // Call before harness->Start(); the generator must outlive the harness run.
  TrafficGenerator(rt::Harness* harness, TrafficConfig config);
  TrafficGenerator(const TrafficGenerator&) = delete;
  TrafficGenerator& operator=(const TrafficGenerator&) = delete;

  // True once arrivals are done and every request completed (or the drain
  // deadline censored the stragglers) — the harness completion gate.
  bool Quiesced() const;

  void FillReport(rt::RunReport& report) const;

  const TenantStats& stats(size_t tenant) const { return tenants_[tenant].stats; }
  const std::vector<ArrivalEvent>& arrival_log() const { return arrival_log_; }
  int64_t total_arrivals() const { return total_arrivals_; }
  int64_t total_completions() const { return total_completions_; }

 private:
  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<rt::TopazRuntime> runtime;
    common::Rng rng{0};
    double total_weight = 0;
    // ON-OFF phase machine (kOnOff only).
    bool on = true;
    sim::Time phase_end = 0;
    TenantStats stats;
  };

  void ScheduleNextArrival(size_t i);
  void Arrive(size_t i);
  void RecordCompletion(size_t i, int64_t seq);
  // Delay from `now` to tenant i's next arrival (advances the ON-OFF phase
  // machine as a side effect).
  sim::Duration NextArrivalDelay(Tenant& t, sim::Time now);
  // Exponential duration with the given mean, from the tenant's stream.
  static sim::Duration ExpDuration(common::Rng& rng, double mean_ns);

  rt::Harness* harness_;
  TrafficConfig config_;
  std::vector<Tenant> tenants_;
  std::vector<ArrivalEvent> arrival_log_;
  int64_t total_arrivals_ = 0;
  int64_t total_completions_ = 0;
  int64_t outstanding_total_ = 0;
  int active_chains_ = 0;  // tenants whose arrival chain is still scheduled
  bool drain_deadline_passed_ = false;
};

}  // namespace sa::traffic

#endif  // SA_TRAFFIC_TRAFFIC_H_
