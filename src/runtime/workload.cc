#include "src/runtime/workload.h"

#include <algorithm>

namespace nadino {

ClosedLoopClients::ClosedLoopClients(Env& env, IngressGateway* gateway, const Options& options)
    : env_(&env), gateway_(gateway), options_(options) {}

void ClosedLoopClients::Start() {
  for (int i = 0; i < options_.num_clients; ++i) {
    AddClient();
  }
}

SimDuration ClosedLoopClients::StaggerDelay(uint32_t client_id) const {
  const SimDuration stagger = options_.start_stagger;
  if (stagger <= 0) {
    return 0;
  }
  const SimDuration window = std::max(options_.stagger_window, stagger);
  // The ramp cycles inside `window` ON PURPOSE (an unbounded ramp would push
  // late clients arbitrarily far out), but wrapping must not re-synchronize:
  // the old `stagger * id % window` put client slots_per_window·k back onto
  // client 0's instant, recreating the burst the stagger exists to avoid.
  // Each lap through the window instead shifts by one nanosecond, so starts
  // stay distinct for the first slots·stagger clients (1M at the defaults).
  const uint32_t slots = static_cast<uint32_t>(window / stagger);
  const uint32_t lap = client_id / slots;
  return static_cast<SimDuration>(client_id % slots) * stagger +
         static_cast<SimDuration>(lap % static_cast<uint64_t>(stagger));
}

void ClosedLoopClients::AddClient() {
  const uint32_t client_id = static_cast<uint32_t>(next_client_++);
  sim().Schedule(StaggerDelay(client_id), [this, client_id]() { IssueRequest(client_id); });
}

void ClosedLoopClients::IssueRequest(uint32_t client_id) {
  if (stopped_) {
    return;
  }
  const SimTime issued_at = sim().now();
  // Client-side wire: the request crosses the client<->ingress Ethernet.
  sim().Schedule(env_->cost().client_wire_one_way, [this, client_id, issued_at]() {
    gateway_->SubmitRequest(client_id, options_.path, options_.payload_bytes,
                            [this, client_id, issued_at]() {
                              latencies_.Record(sim().now() - issued_at);
                              rate_.RecordCompletion();
                              ++completed_;
                              if (stopped_) {
                                return;
                              }
                              if (options_.think_time > 0) {
                                sim().Schedule(options_.think_time, [this, client_id]() {
                                  IssueRequest(client_id);
                                });
                              } else {
                                IssueRequest(client_id);
                              }
                            });
  });
}

TenantEchoLoad::TenantEchoLoad(Env& env, DataPlane* dataplane, FunctionRuntime* client,
                               FunctionRuntime* server, const Options& options)
    : env_(&env), options_(options),
      client_(env, dataplane, client,
              RequestClient::Route{/*chain=*/0, server->id(), options.payload_bytes},
              [this](SimTime issued_at) { OnComplete(issued_at); }) {
  ServeEcho(dataplane, server);
}

void TenantEchoLoad::ScheduleActive(SimTime from, SimTime to) {
  if (to <= from) {
    // Empty window: a tenant whose lifetime ends before its setup gate opens
    // (e.g. eager connection prewarm outlasting a short-lived tenant) never
    // issues — otherwise the deactivation would fire first and the late
    // activation would run the load forever.
    return;
  }
  sim().ScheduleAt(from, [this]() { SetActive(true); });
  sim().ScheduleAt(to, [this]() { SetActive(false); });
}

void TenantEchoLoad::SetActive(bool active) {
  active_ = active;
  if (active_) {
    Fill();
  }
}

void TenantEchoLoad::Fill() {
  while (active_ && outstanding() < options_.window) {
    if (!client_.Issue()) {
      break;  // Backpressure: resume filling as completions come back.
    }
    pending_peak_ = std::max(pending_peak_, client_.pending());
    if (SloObject* slo = env_->slos().OfTenant(tenant())) {
      slo->RecordRequest();
    }
    ArmReaper();
  }
}

void TenantEchoLoad::OnComplete(SimTime issued_at) {
  const SimDuration latency = sim().now() - issued_at;
  latencies_.Record(latency);
  if (SloObject* slo = env_->slos().OfTenant(tenant())) {
    slo->RecordLatency(latency);
  }
  ++completed_;
  if (completed_ == 1 && on_first_response_) {
    on_first_response_();
  }
  rate_.RecordCompletion();
  Fill();
}

void TenantEchoLoad::ArmReaper() {
  if (options_.pending_timeout <= 0 || reaper_armed_) {
    return;
  }
  reaper_armed_ = true;
  sim().Schedule(options_.pending_timeout, [this]() { ReapTick(); });
}

void TenantEchoLoad::ReapTick() {
  reaper_armed_ = false;
  // Permanently dropped ("counted not hung" at the injection site, retries
  // exhausted): the response will never arrive. Expiring the id releases its
  // window slot; a zombie late response counts as unmatched.
  reaped_ += client_.ExpireIssuedBy(sim().now() - options_.pending_timeout);
  Fill();
  if (active_ || client_.pending() > 0) {
    reaper_armed_ = true;
    sim().Schedule(options_.pending_timeout, [this]() { ReapTick(); });
  }
}

void PeriodicSampler::Start() { Tick(); }

void PeriodicSampler::Tick() {
  if (stopped_) {
    return;
  }
  tick_event_ = sim().Schedule(period_, [this]() {
    for (RateMeter* meter : meters_) {
      meter->Roll(sim().now());
    }
    for (const SampleHook& hook : hooks_) {
      hook(sim().now());
    }
    Tick();
  });
}

void PeriodicSampler::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  sim().Cancel(tick_event_);
  tick_event_ = kInvalidEventId;
  // Flush the final partial window: without this, completions since the last
  // tick never reach the series (RateMeter::Roll's zero-width guard makes a
  // Stop() exactly on a tick boundary harmless).
  for (RateMeter* meter : meters_) {
    meter->Roll(sim().now());
  }
  for (const SampleHook& hook : hooks_) {
    hook(sim().now());
  }
}

}  // namespace nadino
