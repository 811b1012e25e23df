// Payload-scaling study: the four-stage media pipeline at growing frame
// sizes, NADINO vs the copy-per-hop baselines. Large payloads are where
// zero-copy pays: NADINO's cost per hop is descriptor-sized while SPRIGHT
// and Junction serialize every frame through their transports.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/pipeline.h"
#include "src/core/nadino.h"

using namespace nadino;

namespace {

struct Row {
  double rps = 0.0;
  double latency_us = 0.0;
  uint64_t copies = 0;
};

Row RunPipeline(uint32_t frame_bytes, const char* system) {
  const CostModel& cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  const PipelineSpec spec = BuildPipelineSpec(frame_bytes);
  cluster.CreateTenantPools(spec.tenant, 2048, frame_bytes + 4096);
  Simulator& sim = cluster.sim();

  std::unique_ptr<NadinoDataPlane> nadino_dp;
  std::unique_ptr<BaselineDataPlane> baseline_dp;
  DataPlane* dp = nullptr;
  if (std::string(system) == "NADINO") {
    nadino_dp = std::make_unique<NadinoDataPlane>(cluster.env(), &cluster.routing(),
                                                  NadinoDataPlane::Options{});
    nadino_dp->AddWorkerNode(cluster.worker(0));
    nadino_dp->AddWorkerNode(cluster.worker(1));
    nadino_dp->AttachTenant(spec.tenant, 1);
    nadino_dp->Start();
    dp = nadino_dp.get();
  } else {
    const BaselineSystem baseline = std::string(system) == "SPRIGHT"
                                        ? BaselineSystem::kSpright
                                        : BaselineSystem::kJunction;
    baseline_dp = std::make_unique<BaselineDataPlane>(cluster.env(), &cluster.routing(),
                                                      baseline, spec.tenant);
    baseline_dp->AddWorkerNode(cluster.worker(0));
    baseline_dp->AddWorkerNode(cluster.worker(1));
    baseline_dp->Start();
    dp = baseline_dp.get();
  }

  ChainExecutor executor(cluster.env(), dp);
  executor.RegisterChain(spec.chain);
  std::vector<std::unique_ptr<FunctionRuntime>> fns;
  for (size_t i = 0; i < spec.stages.size(); ++i) {
    Node* node = cluster.worker(static_cast<int>(i % 2));  // Every hop crosses.
    fns.push_back(std::make_unique<FunctionRuntime>(
        spec.stages[i], spec.tenant, "stage" + std::to_string(i), node,
        node->AllocateCore(), node->tenants().PoolOfTenant(spec.tenant)));
    dp->RegisterFunction(fns.back().get());
    executor.AttachFunction(fns.back().get());
  }
  auto client = std::make_unique<FunctionRuntime>(
      30, spec.tenant, "client", cluster.worker(0), cluster.worker(0)->AllocateCore(),
      cluster.worker(0)->tenants().PoolOfTenant(spec.tenant));
  dp->RegisterFunction(client.get());

  // Closed loop with a window of 8 chain requests in flight.
  const size_t window = 8;
  LatencyHistogram latencies;
  uint64_t completed = 0;
  std::function<void()> fill;
  RequestClient requester(
      cluster.env(), dp, client.get(),
      RequestClient::Route{spec.chain.id, spec.chain.entry, spec.chain.entry_request_payload},
      [&](SimTime issued_at) {
        latencies.Record(sim.now() - issued_at);
        ++completed;
        fill();
      },
      [&executor]() { return executor.NextRequestId(); });
  fill = [&]() {
    while (requester.pending() < window && requester.Issue()) {
    }
  };
  fill();
  sim.RunFor(100 * kMillisecond);
  latencies.Reset();
  const uint64_t before = completed;
  const SimTime start = sim.now();
  sim.RunFor(400 * kMillisecond);
  Row row;
  row.rps = static_cast<double>(completed - before) / ToSeconds(sim.now() - start);
  row.latency_us = latencies.MeanUs();
  row.copies = dp->stats().payload_copies;
  return row;
}

}  // namespace

int main() {
  bench::Title("Payload scaling — 4-stage media pipeline, every hop cross-node",
               "zero-copy leverage at growing frame sizes (extension study)");
  std::printf("%-10s | %10s %12s %10s | %10s %12s %10s | %10s %12s\n", "frame", "NADINO",
              "lat (us)", "copies", "SPRIGHT", "lat (us)", "copies", "Junction",
              "lat (us)");
  for (const uint32_t frame : {4096u, 16384u, 65536u, 262144u}) {
    const Row nadino = RunPipeline(frame, "NADINO");
    const Row spright = RunPipeline(frame, "SPRIGHT");
    const Row junction = RunPipeline(frame, "Junction");
    std::printf("%-10u | %10.0f %12.1f %10llu | %10.0f %12.1f %10llu | %10.0f %12.1f\n",
                frame, nadino.rps, nadino.latency_us,
                static_cast<unsigned long long>(nadino.copies), spright.rps,
                spright.latency_us, static_cast<unsigned long long>(spright.copies),
                junction.rps, junction.latency_us);
  }
  bench::Note(
      "NADINO's copy count stays zero at every size; the baselines' per-hop "
      "serialization grows linearly with the frame, so the gap widens with "
      "payload size — the distributed zero-copy claim, quantified.");
  return 0;
}
