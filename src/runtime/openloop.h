// Open-loop load generation (DESIGN.md §3g): aggregated arrival processes
// that offer load at a scheduled rate regardless of how fast the system
// drains it — the production-facing complement to the closed-loop fleet in
// src/runtime/workload.h.
//
// The scaling trick is aggregation. A million simulated users are not a
// million client objects: each tenant carries one ArrivalSchedule (its users'
// summed rate curve) and one O(1) accounting record, and a per-tenant tick
// loop draws the number of arrivals in the next quantum from a Poisson
// distribution, then bulk-admits them into the tenant's event-queue shard
// with Simulator::ScheduleBatch. Memory is O(tenants + in-flight), never
// O(users); the 1M-user sweep in bench/openloop_scale holds the in-flight cap
// fixed while the offered rate scales 100x.
//
// OpenLoopSource is only the source: its DispatchFn is the sink. For data
// plane echoes (RunOpenLoopScale) the sink is one RequestClient per tenant
// (src/runtime/request_client.h), whose completions call OnComplete.
//
// Open-loop semantics: an arrival that cannot be issued (in-flight cap hit,
// buffer-pool backpressure, a refused send) is SHED and counted — it does not
// queue, and it does not slow subsequent arrivals. Goodput vs offered load is
// the measurement, exactly the quantity a closed loop hides.

#ifndef SRC_RUNTIME_OPENLOOP_H_
#define SRC_RUNTIME_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/sim/stats.h"

namespace nadino {

// One step of a piecewise-constant diurnal modulation: from `start` (phase
// within the schedule period, or absolute time when period == 0) the base
// rate is multiplied by `multiplier` until the next segment begins.
struct RateSegment {
  SimTime start = 0;
  double multiplier = 1.0;
};

// A flash crowd: `add_rps` extra arrivals per second layered on top of the
// scheduled rate for [start, start + duration). Always absolute-time.
struct FlashBurst {
  SimTime start = 0;
  SimDuration duration = 0;
  double add_rps = 0.0;
};

// Per-tenant offered-rate curve: base rate x diurnal segments + bursts, or a
// replayed trace (which overrides the base rate, then segments/bursts still
// apply). Evaluation keeps amortized-O(1) cursors, relying on the tick loop
// evaluating time monotonically; cursors reset when the diurnal phase wraps.
class ArrivalSchedule {
 public:
  struct TracePoint {
    SimTime at = 0;
    double rps = 0.0;
  };

  double base_rps = 0.0;
  // When > 0, segment starts are phases within this period (e.g. a 24 h
  // diurnal cycle evaluated at now % period). Traces and bursts stay absolute.
  SimDuration period = 0;
  std::vector<RateSegment> segments;  // Sorted by start.
  std::vector<FlashBurst> bursts;     // Sorted by start.
  std::vector<TracePoint> trace;      // Sorted by at; step function.

  // Offered rate (arrivals/sec) at `now`. Amortized O(1) for monotonically
  // nondecreasing `now`; an arbitrary rewind just resets the cursors.
  double RateAt(SimTime now) const;

 private:
  mutable size_t seg_cursor_ = 0;
  mutable size_t burst_cursor_ = 0;
  mutable size_t trace_cursor_ = 0;
  mutable SimTime last_phase_ = 0;
};

// A smooth day/night curve: `steps` piecewise-constant segments over `period`
// following a raised cosine between trough_multiplier (at phase 0) and
// peak_multiplier (at phase period/2).
ArrivalSchedule MakeDiurnalSchedule(double base_rps, SimDuration period, int steps,
                                    double trough_multiplier, double peak_multiplier);

// Parses an arrival trace from `path`: one "<time_ms> <rps>" pair per line,
// '#' comments and blank lines skipped. Points must be time-sorted. Returns
// false (and leaves *out untouched) on I/O or parse errors.
bool LoadArrivalTrace(const std::string& path, std::vector<ArrivalSchedule::TracePoint>* out);

// The arrival engine. Each tenant ticks once per admission quantum: draw
// n ~ Poisson(rate x quantum), scatter n arrival instants uniformly across
// the quantum, and ScheduleBatch them onto the tenant's event-queue shard.
// Arrivals call the installed DispatchFn; the sink reports completions back
// through OnComplete so goodput/latency are measured end to end.
class OpenLoopSource {
 public:
  struct Options {
    // Admission quantum: one Poisson draw + one batch per tenant per tick.
    // Smaller quanta track rate curves more faithfully; larger quanta
    // amortize better. 10 ms resolves everything the benches sweep.
    SimDuration tick = 10 * kMillisecond;
    // Stop generating at this virtual time (0 = until Stop()). In-flight
    // requests still complete, so RunUntil(horizon + drain) settles cleanly.
    SimTime horizon = 0;
  };

  struct TenantOptions {
    ArrivalSchedule schedule;
    // Event-queue shard (the tenant's node) for batch admission; taken modulo
    // the simulator's shard count.
    uint32_t shard = 0;
    // Open-loop discipline: arrivals beyond this many unanswered requests are
    // shed, bounding memory no matter how far offered load exceeds capacity.
    uint64_t max_in_flight = 4096;
  };

  // Issues one request for `tenant` arriving now. Returns false to shed (the
  // source counts it; the sink does nothing further). On success the sink
  // must eventually call OnComplete(tenant, issued_at) exactly once.
  using DispatchFn = std::function<bool(uint32_t tenant, SimTime issued_at)>;

  OpenLoopSource(Env& env, const Options& options) : env_(&env), options_(options) {}

  // Returns the tenant index used in DispatchFn/OnComplete.
  uint32_t AddTenant(const TenantOptions& tenant);

  void SetDispatch(DispatchFn fn) { dispatch_ = std::move(fn); }

  void Start();
  void Stop() { running_ = false; }

  // Sink-side completion: closes the latency sample opened at `issued_at`.
  void OnComplete(uint32_t tenant, SimTime issued_at);

  // Aggregate accounting. offered == dispatched + shed, always.
  uint64_t offered() const { return offered_; }
  uint64_t dispatched() const { return dispatched_; }
  uint64_t completed() const { return completed_; }
  uint64_t shed() const { return shed_; }
  uint64_t in_flight() const { return in_flight_; }
  uint64_t in_flight_peak() const { return in_flight_peak_; }
  size_t num_tenants() const { return tenants_.size(); }

  uint64_t tenant_offered(uint32_t tenant) const { return tenants_[tenant].offered; }
  uint64_t tenant_shed(uint32_t tenant) const { return tenants_[tenant].shed; }
  uint64_t tenant_completed(uint32_t tenant) const { return tenants_[tenant].completed; }

  RateMeter& rate() { return rate_; }
  const LatencyHistogram& latencies() const { return latencies_; }
  LatencyHistogram& mutable_latencies() { return latencies_; }

 private:
  struct TenantState {
    TenantOptions opts;
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t in_flight = 0;
  };

  void TenantTick(uint32_t tenant);
  void Admit(uint32_t tenant);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Options options_;
  bool running_ = false;
  uint64_t offered_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t completed_ = 0;
  uint64_t shed_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t in_flight_peak_ = 0;
  std::vector<TenantState> tenants_;
  std::vector<SimTime> batch_scratch_;  // Reused per tick; no per-tick allocs.
  DispatchFn dispatch_;
  RateMeter rate_;
  LatencyHistogram latencies_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_OPENLOOP_H_
