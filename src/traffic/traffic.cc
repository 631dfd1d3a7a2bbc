#include "src/traffic/traffic.h"

#include <algorithm>
#include <cmath>

namespace sa::traffic {

double RampSpec::At(sim::Time now) const {
  if (period <= 0 || points.empty()) {
    return 1.0;
  }
  const sim::Duration offset = now % period;
  // Find the segment [points[k], points[k+1]) containing `offset`; the last
  // segment wraps to the first point one period later.
  size_t k = 0;
  while (k + 1 < points.size() && points[k + 1].at <= offset) {
    ++k;
  }
  const RampPoint& a = points[k];
  const bool wrap = k + 1 == points.size();
  const sim::Duration b_at = wrap ? points.front().at + period : points[k + 1].at;
  const double b_mult = wrap ? points.front().multiplier : points[k + 1].multiplier;
  double mult = a.multiplier;
  if (b_at > a.at) {
    const double frac =
        static_cast<double>(offset - a.at) / static_cast<double>(b_at - a.at);
    mult = a.multiplier + frac * (b_mult - a.multiplier);
  }
  // A zero multiplier would stretch the next inter-arrival gap past any
  // horizon and kill the chain; floor it so valleys are quiet, not silent.
  return std::clamp(mult, 0.01, 100.0);
}

TrafficGenerator::TrafficGenerator(rt::Harness* harness, TrafficConfig config)
    : harness_(harness), config_(std::move(config)) {
  if (!config_.active()) {
    return;  // zero-perturbation: no runtimes, no events, no hooks
  }
  common::Rng root(config_.seed);
  tenants_.reserve(config_.tenants.size());
  for (const TenantSpec& spec : config_.tenants) {
    tenants_.push_back(Tenant{});
    Tenant& t = tenants_.back();
    t.spec = spec;
    if (t.spec.mix.empty()) {
      t.spec.mix.push_back(RequestClass{});
    }
    t.rng = root.Fork();
    for (const RequestClass& rc : t.spec.mix) {
      t.total_weight += rc.weight;
    }
    t.runtime = std::make_unique<rt::TopazRuntime>(
        &harness->kernel(), spec.name, /*heavyweight=*/false, spec.priority);
    harness->AddRuntime(t.runtime.get(), /*background=*/true);
    if (t.spec.arrivals.kind == ArrivalSpec::Kind::kOnOff) {
      t.phase_end = std::max<sim::Duration>(
          ExpDuration(t.rng, static_cast<double>(t.spec.arrivals.on_mean)), 1);
    }
  }
  harness->AddCompletionGate([this] { return Quiesced(); });
  harness->AddReportHook([this](rt::RunReport& report) { FillReport(report); });
  // Liveness backstop for saturated runs: even if starved tenants make no
  // progress, this event fires, the gate opens, and the stragglers are
  // censored.  (If everything drains earlier the run ends before it fires.)
  harness_->engine().ScheduleIn(config_.horizon + config_.drain,
                                [this] { drain_deadline_passed_ = true; });
  active_chains_ = static_cast<int>(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    ScheduleNextArrival(i);
  }
}

bool TrafficGenerator::Quiesced() const {
  if (!config_.active()) {
    return true;
  }
  return active_chains_ == 0 &&
         (outstanding_total_ == 0 || drain_deadline_passed_);
}

sim::Duration TrafficGenerator::ExpDuration(common::Rng& rng, double mean_ns) {
  return static_cast<sim::Duration>(-std::log(1.0 - rng.NextDouble()) * mean_ns);
}

sim::Duration TrafficGenerator::NextArrivalDelay(Tenant& t, sim::Time now) {
  const ArrivalSpec& a = t.spec.arrivals;
  const double rate = std::max(a.rate * t.spec.ramp.At(now), 1e-6);  // req/s
  const double mean_gap_ns = 1e9 / rate;
  if (a.kind == ArrivalSpec::Kind::kPoisson) {
    return std::max<sim::Duration>(ExpDuration(t.rng, mean_gap_ns), 1);
  }
  // ON-OFF: draw gaps on the ON clock; a gap that crosses the phase boundary
  // pushes the arrival past the whole OFF phase.
  sim::Time at = now;
  for (;;) {
    if (!t.on) {
      at = std::max(at, t.phase_end);
      t.on = true;
      t.phase_end = at + std::max<sim::Duration>(
                             ExpDuration(t.rng, static_cast<double>(a.on_mean)), 1);
    }
    const sim::Duration gap =
        std::max<sim::Duration>(ExpDuration(t.rng, mean_gap_ns), 1);
    if (at + gap <= t.phase_end) {
      return at + gap - now;
    }
    at = t.phase_end;
    t.on = false;
    t.phase_end = at + std::max<sim::Duration>(
                           ExpDuration(t.rng, static_cast<double>(a.off_mean)), 1);
  }
}

void TrafficGenerator::ScheduleNextArrival(size_t i) {
  Tenant& t = tenants_[i];
  sim::Engine& eng = harness_->engine();
  const sim::Time now = eng.now();
  const sim::Duration delay = NextArrivalDelay(t, now);
  if (now + delay > config_.horizon) {
    --active_chains_;  // this tenant's load is over
    return;
  }
  eng.ScheduleIn(delay, [this, i] {
    Arrive(i);
    ScheduleNextArrival(i);
  });
}

void TrafficGenerator::Arrive(size_t i) {
  Tenant& t = tenants_[i];
  const sim::Time now = harness_->engine().now();
  // Class pick and service sample happen on the arrival clock, so the event
  // sequence is a function of (config, seed) alone — scheduling outcomes
  // downstream cannot perturb it.
  size_t klass = 0;
  if (t.spec.mix.size() > 1) {
    double u = t.rng.NextDouble() * t.total_weight;
    for (size_t k = 0; k < t.spec.mix.size(); ++k) {
      u -= t.spec.mix[k].weight;
      if (u < 0 || k + 1 == t.spec.mix.size()) {
        klass = k;
        break;
      }
    }
  }
  const RequestClass& rc = t.spec.mix[klass];
  sim::Duration service = rc.mean_service;
  if (rc.dist == RequestClass::Dist::kExponential) {
    const double mean = static_cast<double>(rc.mean_service);
    service = std::clamp<sim::Duration>(
        ExpDuration(t.rng, mean), 1,
        static_cast<sim::Duration>(20.0 * mean));
  }
  service = std::max<sim::Duration>(service, 1);

  const int64_t seq = t.stats.arrivals++;
  ++total_arrivals_;
  t.stats.arrived_at.push_back(now);
  ++outstanding_total_;
  if (config_.record_arrivals) {
    arrival_log_.push_back(ArrivalEvent{static_cast<int>(i), now,
                                        static_cast<int>(klass), service});
  }
  if (t.runtime->address_space()->reaped()) {
    return;  // space torn down: the request arrives but can never be served
  }
  const sim::Duration io = rc.io;
  t.runtime->Spawn(
      [this, i, seq, service, io](rt::ThreadCtx& c) -> sim::Program {
        if (io > 0) {
          const sim::Duration pre = service / 2;
          co_await c.Compute(pre);
          co_await c.Io(io);
          co_await c.Compute(service - pre);
        } else {
          co_await c.Compute(service);
        }
        // Runs when the final compute span retires — i.e. at completion time.
        RecordCompletion(i, seq);
      },
      /*thread_name=*/"");
}

void TrafficGenerator::RecordCompletion(size_t i, int64_t seq) {
  Tenant& t = tenants_[i];
  sim::Time& arrived_at = t.stats.arrived_at[static_cast<size_t>(seq)];
  SA_CHECK(arrived_at != TenantStats::kServed);
  const sim::Duration sojourn = harness_->engine().now() - arrived_at;
  arrived_at = TenantStats::kServed;
  --outstanding_total_;
  ++t.stats.completions;
  ++total_completions_;
  t.stats.sojourn.Add(sojourn);
  if (config_.record_samples) {
    t.stats.samples.Add(static_cast<double>(sojourn));
  }
  if (sojourn > t.spec.slo.latency) {
    ++t.stats.completed_violations;
  }
}

void TrafficGenerator::FillReport(rt::RunReport& report) const {
  report.traffic_active = true;
  const sim::Time now = harness_->engine().now();
  for (const Tenant& t : tenants_) {
    rt::TenantSloRow row;
    row.name = t.spec.name;
    row.tier = t.spec.priority;
    row.arrivals = t.stats.arrivals;
    row.completions = t.stats.completions;
    row.unserved = t.stats.arrivals - t.stats.completions;
    const trace::LatencyHistogram& h = t.stats.sojourn;
    if (h.count() > 0) {
      row.p50 = h.Quantile(0.5);
      row.p99 = h.Quantile(0.99);
      row.p999 = h.Quantile(0.999);
      row.mean = h.mean();
      row.max = h.max();
      row.mean_saturated = h.saturated();
    }
    row.slo_latency = t.spec.slo.latency;
    row.slo_quantile = t.spec.slo.quantile;
    // Violations: completed over the bound, plus censored requests already
    // past the bound at run end (a request nobody served is the worst kind
    // of SLO miss, not a free pass).
    int64_t violations = t.stats.completed_violations;
    for (const sim::Time arrived : t.stats.arrived_at) {
      if (arrived != TenantStats::kServed && now - arrived > t.spec.slo.latency) {
        ++violations;
      }
    }
    row.violation_fraction =
        t.stats.arrivals > 0
            ? static_cast<double>(violations) / static_cast<double>(t.stats.arrivals)
            : 0.0;
    row.slo_met = row.violation_fraction <= (1.0 - t.spec.slo.quantile) + 1e-12;
    report.tenants.push_back(std::move(row));
  }
}

}  // namespace sa::traffic
