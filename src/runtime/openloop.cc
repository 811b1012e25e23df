#include "src/runtime/openloop.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace nadino {

double ArrivalSchedule::RateAt(SimTime now) const {
  double rate = base_rps;
  if (!trace.empty()) {
    if (trace_cursor_ < trace.size() && trace[trace_cursor_].at > now) {
      trace_cursor_ = 0;  // Rewound (tests evaluate out of order); restart.
    }
    while (trace_cursor_ + 1 < trace.size() && trace[trace_cursor_ + 1].at <= now) {
      ++trace_cursor_;
    }
    rate = now >= trace[trace_cursor_].at ? trace[trace_cursor_].rps : 0.0;
  }
  if (!segments.empty()) {
    const SimTime phase = period > 0 ? now % period : now;
    if (phase < last_phase_) {
      seg_cursor_ = 0;  // Diurnal wrap: the cycle restarted.
    }
    last_phase_ = phase;
    while (seg_cursor_ + 1 < segments.size() && segments[seg_cursor_ + 1].start <= phase) {
      ++seg_cursor_;
    }
    if (phase >= segments[seg_cursor_].start) {
      rate *= segments[seg_cursor_].multiplier;
    }
  }
  if (!bursts.empty()) {
    if (burst_cursor_ < bursts.size() && bursts[burst_cursor_].start > now &&
        burst_cursor_ > 0) {
      burst_cursor_ = 0;
    }
    while (burst_cursor_ < bursts.size() &&
           bursts[burst_cursor_].start + bursts[burst_cursor_].duration <= now) {
      ++burst_cursor_;
    }
    for (size_t i = burst_cursor_; i < bursts.size() && bursts[i].start <= now; ++i) {
      if (now < bursts[i].start + bursts[i].duration) {
        rate += bursts[i].add_rps;
      }
    }
  }
  return rate > 0.0 ? rate : 0.0;
}

ArrivalSchedule MakeDiurnalSchedule(double base_rps, SimDuration period, int steps,
                                    double trough_multiplier, double peak_multiplier) {
  constexpr double kPi = 3.14159265358979323846;
  ArrivalSchedule schedule;
  schedule.base_rps = base_rps;
  schedule.period = period;
  schedule.segments.reserve(static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double phase = static_cast<double>(i) / static_cast<double>(steps);
    // Raised cosine: trough at phase 0, peak at phase 0.5, back to trough.
    const double multiplier =
        trough_multiplier +
        (peak_multiplier - trough_multiplier) * 0.5 * (1.0 - std::cos(2.0 * kPi * phase));
    const SimTime start = static_cast<SimTime>(
        (static_cast<double>(period) * static_cast<double>(i)) / static_cast<double>(steps));
    schedule.segments.push_back({start, multiplier});
  }
  return schedule;
}

bool LoadArrivalTrace(const std::string& path, std::vector<ArrivalSchedule::TracePoint>* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::vector<ArrivalSchedule::TracePoint> points;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    double time_ms = 0.0;
    double rps = 0.0;
    if (!(fields >> time_ms)) {
      continue;  // Blank or comment-only line.
    }
    if (!(fields >> rps) || time_ms < 0.0 || rps < 0.0) {
      return false;
    }
    const SimTime at = static_cast<SimTime>(time_ms * static_cast<double>(kMillisecond));
    if (!points.empty() && at < points.back().at) {
      return false;  // Must be time-sorted.
    }
    points.push_back({at, rps});
  }
  if (points.empty()) {
    return false;
  }
  *out = std::move(points);
  return true;
}

uint32_t OpenLoopSource::AddTenant(const TenantOptions& tenant) {
  const uint32_t index = static_cast<uint32_t>(tenants_.size());
  TenantState state;
  state.opts = tenant;
  tenants_.push_back(std::move(state));
  return index;
}

void OpenLoopSource::Start() {
  running_ = true;
  // First quantum is generated inline (tenants draw in index order, keeping
  // the RNG stream deterministic), then each tenant re-arms itself.
  for (uint32_t t = 0; t < tenants_.size(); ++t) {
    TenantTick(t);
  }
}

void OpenLoopSource::TenantTick(uint32_t tenant) {
  if (!running_) {
    return;
  }
  const SimTime now = sim().now();
  if (options_.horizon > 0 && now >= options_.horizon) {
    return;  // Generation window over; in-flight work drains on its own.
  }
  TenantState& state = tenants_[tenant];
  const double rate = state.opts.schedule.RateAt(now);
  const double mean =
      rate * (static_cast<double>(options_.tick) / static_cast<double>(kSecond));
  const uint64_t n = env_->rng().Poisson(mean);
  if (n > 0) {
    batch_scratch_.clear();
    batch_scratch_.reserve(n);
    const uint64_t span = static_cast<uint64_t>(options_.tick);
    for (uint64_t i = 0; i < n; ++i) {
      const SimTime at = now + static_cast<SimDuration>(env_->rng().UniformInt(0, span - 1));
      if (options_.horizon > 0 && at >= options_.horizon) {
        continue;
      }
      batch_scratch_.push_back(at);
    }
    // Sorted ascending: ScheduleBatch exploits the order (a sorted run IS a
    // heap) and arrivals admit in time order within the quantum.
    std::sort(batch_scratch_.begin(), batch_scratch_.end());
    sim().ScheduleBatch(state.opts.shard, batch_scratch_,
                        [this, tenant](size_t) { return [this, tenant]() { Admit(tenant); }; });
  }
  sim().ScheduleOn(state.opts.shard, options_.tick, [this, tenant]() { TenantTick(tenant); });
}

void OpenLoopSource::Admit(uint32_t tenant) {
  TenantState& state = tenants_[tenant];
  ++state.offered;
  ++offered_;
  if (!running_ || dispatch_ == nullptr || state.in_flight >= state.opts.max_in_flight) {
    ++state.shed;
    ++shed_;
    return;
  }
  const SimTime issued_at = sim().now();
  if (!dispatch_(tenant, issued_at)) {
    ++state.shed;
    ++shed_;
    return;
  }
  ++state.in_flight;
  ++dispatched_;
  ++in_flight_;
  in_flight_peak_ = std::max(in_flight_peak_, in_flight_);
}

void OpenLoopSource::OnComplete(uint32_t tenant, SimTime issued_at) {
  TenantState& state = tenants_[tenant];
  --state.in_flight;
  --in_flight_;
  ++state.completed;
  ++completed_;
  latencies_.Record(sim().now() - issued_at);
  rate_.RecordCompletion();
}

}  // namespace nadino
