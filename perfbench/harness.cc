// perfbench harness: assembles one benchmark workload on the NADINO library,
// runs it once, checks its outputs and prints one JSON line of results.
//
//   perfbench_plain  --workload <name> --seed <n>
//   perfbench_traced --workload <name> --seed <n> --trace
//
// perfbench/run.py drives repetitions of this binary and aggregates them;
// README.md explains the workloads and metrics. Host time is split at the
// first Simulator::RunUntil: everything before it is set-up (cluster
// assembly, pool and MR registration, QP prewarm), everything after it is the
// timed phase. The simulator drains serially (one event worker).

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/boutique.h"
#include "src/cluster/cluster.h"
#include "src/core/calibration.h"
#include "src/core/env.h"
#include "src/dne/nadino_dataplane.h"
#include "src/ingress/gateway.h"
#include "src/rdma/control_plane.h"
#include "src/runtime/chain.h"
#include "src/runtime/coldstart.h"
#include "src/runtime/function.h"
#include "src/runtime/message_header.h"
#include "src/runtime/openloop.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace nadino;  // NOLINT: the harness touches most of the library.
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// Splits host time at the first simulated instant and brackets the timed
// phase with tracing (when requested and available).
class HostTimer {
 public:
  explicit HostTimer(bool trace) : trace_(trace), entered_(Clock::now()) {}

  void RunUntil(Simulator& sim, SimTime deadline) {
    if (!running_) {
      running_ = true;
      run_start_ = Clock::now();
      if (trace_) {
        TraceStart();
      }
    }
    sim.RunUntil(deadline);
  }

  void Finish() {
    run_end_ = Clock::now();
    TraceStop();
  }

  double setup_s() const { return Seconds(run_start_ - entered_); }
  double run_s() const { return Seconds(run_end_ - run_start_); }

 private:
  bool trace_;
  bool running_ = false;
  Clock::time_point entered_;
  Clock::time_point run_start_;
  Clock::time_point run_end_;
};

// What one workload run produced. Counts cover the measurement window unless
// noted; `failed` is requests that errored or were lost, `refused` requests
// shed by admission control (both count against ok_frac).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t host_requests = 0;  // Completions over the whole timed phase.
  double window_s = 0.0;       // Simulated length of the measurement window.
  std::vector<SimDuration> latencies;
  std::vector<SimDuration> ttfb;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, double>> layer;  // Modeled per-layer values.

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
  void Layer(const std::string& name, double value) { layer.emplace_back(name, value); }
};

// Sum over every instrument named `name` (any labels) in a registry snapshot.
double SnapshotSum(const std::string& snapshot, const std::string& name) {
  double total = 0.0;
  size_t pos = 0;
  while (pos < snapshot.size()) {
    size_t end = snapshot.find('\n', pos);
    if (end == std::string::npos) {
      end = snapshot.size();
    }
    const size_t key_end = snapshot.find_first_of("{ ", pos);
    if (key_end < end && snapshot.compare(pos, key_end - pos, name) == 0 &&
        key_end - pos == name.size()) {
      const size_t value = snapshot.find(' ', key_end);
      if (value < end && std::isdigit(static_cast<unsigned char>(snapshot[value + 1]))) {
        total += std::strtod(snapshot.c_str() + value + 1, nullptr);
      }
    }
    pos = end + 1;
  }
  return total;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// Nearest-rank quantile in microseconds; 0 for an empty sample.
double QuantileUs(std::vector<SimDuration> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return ToUs(samples[index]);
}

// Per-layer values every workload reports, read from the registry snapshot
// and the nodes' control-plane services.
void CommonLayers(Cluster& cluster, const std::string& snapshot, Outcome* out) {
  Simulator& sim = cluster.sim();
  out->Layer("sim.events", static_cast<double>(sim.events_processed()));
  out->Layer("sim.slab_slots", static_cast<double>(sim.slab_slots()));
  out->Layer("mem.pool_get_failures", SnapshotSum(snapshot, "pool_get_failures"));
  out->Layer("dne.drops", SnapshotSum(snapshot, "dataplane_drops"));
  const double hits = SnapshotSum(snapshot, "rnic_qp_cache_hits");
  const double misses = SnapshotSum(snapshot, "rnic_qp_cache_misses");
  out->Layer("rdma.qp_cache_miss_frac", hits + misses > 0 ? misses / (hits + misses) : 0.0);
  out->Layer("rdma.rnr_events", SnapshotSum(snapshot, "rnic_rnr_events"));
  uint64_t setup_verbs = 0;
  uint64_t destroy_verbs = 0;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    if (const ConnectionService* service = cluster.worker(i)->connections_or_null()) {
      const ConnectionService::Stats stats = service->stats();
      setup_verbs += stats.create_verbs + stats.modify_verbs;
      destroy_verbs += stats.destroy_verbs;
    }
  }
  out->Layer("rdma.setup_verbs", static_cast<double>(setup_verbs));
  out->Layer("rdma.verbs_per_invocation",
             out->host_requests > 0 ? static_cast<double>(setup_verbs + destroy_verbs) /
                                          static_cast<double>(out->host_requests)
                                    : 0.0);
  out->Layer("ingress.http_errors", SnapshotSum(snapshot, "gateway_http_errors"));
  out->Check(SnapshotSum(snapshot, "pool_ownership_violations") == 0,
             "pool ownership violations");
}

// Modeled busy cores of the DNE (its DPU worker core plus the DPU core
// serving the other stage) and of the worker nodes' host cores, over the
// window since the last ResetUtilizationWindows().
void CoreLayers(Cluster& cluster, const std::vector<NetworkEngine*>& engines, Outcome* out) {
  double dpu = 0.0;
  for (NetworkEngine* engine : engines) {
    dpu += engine->worker_core()->WindowUtilization();
    dpu += engine->node()->dpu()->core(1).WindowUtilization();
  }
  double host = 0.0;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    host += cluster.worker(i)->HostUtilizationCores();
  }
  out->Layer("dne.dpu_cores", dpu);
  out->Layer("dne.host_cores", host);
}

// The open-loop admission layer does no work in the closed-loop workloads.
void IdleOpenLoopLayers(Outcome* out) {
  out->Layer("openloop.shed_frac", 0.0);
  out->Layer("openloop.in_flight_peak", 0.0);
}

// --- Load generators ----------------------------------------------------------

// Closed-loop HTTP clients against the ingress gateway: each client keeps one
// request outstanding and thinks for a seeded exponential time between a
// response and its next request. Requests issued in [measure_from, stop_at)
// are measured; none are issued after stop_at. (The library's
// ClosedLoopClients has a fixed think time and keeps only a bucketed
// histogram; the benchmark needs seeded inputs and exact samples.)
class HttpClients {
 public:
  struct Options {
    std::string path;
    uint32_t payload = 0;
    int clients = 1;
    SimDuration mean_think = 0;
    SimTime measure_from = 0;
    SimTime stop_at = 0;
  };

  HttpClients(Env& env, IngressGateway* gateway, const Options& options, uint64_t seed)
      : env_(&env), gateway_(gateway), options_(options), rng_(seed ^ 0x68747470636c6e74ULL),
        first_issue_(static_cast<size_t>(options.clients), -1),
        answered_(static_cast<size_t>(options.clients), false) {}

  void Start() {
    for (int c = 0; c < options_.clients; ++c) {
      const auto start = static_cast<SimDuration>(rng_.UniformInt(0, kMillisecond - 1));
      env_->sim().Schedule(start, [this, c]() { Issue(static_cast<uint32_t>(c)); });
    }
  }

  uint64_t outstanding() const { return outstanding_; }

  void Collect(Outcome* out) const {
    out->attempted = attempted_;
    out->completed = latencies_.size();
    out->failed = attempted_ - latencies_.size();
    out->host_requests = completed_total_;
    out->latencies = latencies_;
    out->ttfb = ttfb_;
  }

 private:
  void Issue(uint32_t client) {
    Simulator& sim = env_->sim();
    const SimTime issued_at = sim.now();
    if (issued_at >= options_.stop_at) {
      return;
    }
    const bool measured = issued_at >= options_.measure_from;
    attempted_ += measured ? 1 : 0;
    if (first_issue_[client] < 0) {
      first_issue_[client] = issued_at;
    }
    ++outstanding_;
    // The request crosses the client<->ingress wire before the gateway sees it.
    sim.Schedule(env_->cost().client_wire_one_way, [this, client, issued_at, measured]() {
      gateway_->SubmitRequest(client, options_.path, options_.payload,
                              [this, client, issued_at, measured]() {
                                OnResponse(client, issued_at, measured);
                              });
    });
  }

  void OnResponse(uint32_t client, SimTime issued_at, bool measured) {
    Simulator& sim = env_->sim();
    --outstanding_;
    ++completed_total_;
    if (measured) {
      latencies_.push_back(sim.now() - issued_at);
    }
    if (!answered_[client]) {
      answered_[client] = true;
      ttfb_.push_back(sim.now() - first_issue_[client]);
    }
    const auto think = static_cast<SimDuration>(
        rng_.Exponential(static_cast<double>(options_.mean_think)));
    sim.Schedule(think, [this, client]() { Issue(client); });
  }

  Env* env_;
  IngressGateway* gateway_;
  Options options_;
  Rng rng_;
  std::vector<SimTime> first_issue_;
  std::vector<bool> answered_;
  uint64_t attempted_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t completed_total_ = 0;
  std::vector<SimDuration> latencies_;
  std::vector<SimDuration> ttfb_;
};

// One tenant's echo: client function -> data plane -> server function ->
// data plane -> client, matched on request id. The completion callback gets
// the instant the request was due, so open-loop latency includes any wait
// between an arrival and its dispatch. (OpenLoopEchoDriver and TenantEchoLoad
// do the same but expose only bucketed histograms, not each completion.)
class EchoPair {
 public:
  using Completion = std::function<void(SimTime due)>;

  EchoPair(DataPlane* dataplane, FunctionRuntime* client, FunctionRuntime* server,
           uint32_t payload, Completion on_complete)
      : dataplane_(dataplane), client_(client), server_(server), payload_(payload),
        on_complete_(std::move(on_complete)) {
    client_->SetHandler([this](FunctionRuntime&, Buffer* buffer) { OnResponse(buffer); });
    server_->SetHandler(
        [this](FunctionRuntime& fn, Buffer* buffer) { OnRequest(fn, buffer); });
  }

  // False when the client pool is empty or the data plane refuses the send.
  bool Issue(SimTime due) {
    Buffer* buffer = client_->pool()->Get(client_->owner_id());
    if (buffer == nullptr) {
      return false;
    }
    MessageHeader header;
    header.src = client_->id();
    header.dst = server_->id();
    header.payload_length = payload_;
    header.request_id = next_request_++;
    if (!WriteMessage(buffer, header) || !dataplane_->Send(client_, buffer)) {
      client_->pool()->Put(buffer, client_->owner_id());
      return false;
    }
    pending_.emplace(header.request_id, due);
    return true;
  }

  size_t pending() const { return pending_.size(); }
  uint64_t unmatched() const { return unmatched_; }
  uint64_t server_failures() const { return server_failures_; }

 private:
  void OnRequest(FunctionRuntime& server, Buffer* buffer) {
    const std::optional<MessageHeader> request = ReadMessage(*buffer);
    MessageHeader reply;
    if (request.has_value()) {
      reply = *request;
      reply.src = server.id();
      reply.dst = request->src;
      reply.flags = MessageHeader::kFlagResponse;
    }
    if (!request.has_value() || !RewriteHeader(buffer, reply) ||
        !dataplane_->Send(&server, buffer)) {
      ++server_failures_;
      server.pool()->Put(buffer, server.owner_id());
    }
  }

  void OnResponse(Buffer* buffer) {
    const std::optional<MessageHeader> header = ReadMessage(*buffer);
    const auto it = header.has_value() ? pending_.find(header->request_id) : pending_.end();
    client_->pool()->Put(buffer, client_->owner_id());
    if (it == pending_.end()) {
      ++unmatched_;
      return;
    }
    const SimTime due = it->second;
    pending_.erase(it);
    on_complete_(due);
  }

  DataPlane* dataplane_;
  FunctionRuntime* client_;
  FunctionRuntime* server_;
  uint32_t payload_;
  Completion on_complete_;
  uint64_t next_request_ = 1;
  uint64_t unmatched_ = 0;
  uint64_t server_failures_ = 0;
  std::map<uint64_t, SimTime> pending_;
};

// --- Workloads ------------------------------------------------------------------

constexpr TenantId kAppTenant = 1;

// Runs until `clients` drained after their stop instant (or `limit`).
void DrainClients(HostTimer& timer, Simulator& sim, const HttpClients& clients, SimTime limit) {
  while (clients.outstanding() > 0 && sim.now() < limit) {
    timer.RunUntil(sim, std::min(limit, sim.now() + kMillisecond));
  }
}

void ClosedLoopChecks(const std::string& snapshot, const ChainExecutor& executor,
                      const HttpClients& clients, Outcome* out) {
  out->Check(clients.outstanding() == 0, "requests still outstanding after the drain");
  out->Check(executor.errors() == 0, "chain executor errors");
  out->Check(SnapshotSum(snapshot, "gateway_http_errors") == 0, "gateway HTTP errors");
  out->Check(SnapshotSum(snapshot, "dataplane_drops") == 0, "data-plane drops");
}

// Fig. 16: Online Boutique Home Query on NADINO DNE, a closed loop of 60
// clients through the ingress node onto two worker nodes.
Outcome RunBoutiqueWorkload(uint64_t seed, HostTimer& timer, std::string* snapshot) {
  constexpr SimDuration kWarmup = 30 * kMillisecond;
  constexpr SimDuration kMeasure = 120 * kMillisecond;
  ClusterConfig config;
  config.worker_nodes = 2;
  config.host_cores_per_node = 16;
  config.with_ingress_node = true;
  config.seed = seed;
  Cluster cluster(&CostModel::Default(), config);
  const BoutiqueSpec spec = BuildBoutiqueSpec(kAppTenant);
  cluster.CreateTenantPools(spec.tenant);

  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  std::vector<NetworkEngine*> engines;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    engines.push_back(dataplane.AddWorkerNode(cluster.worker(i)));
  }
  dataplane.AttachTenant(spec.tenant, 1);
  dataplane.Start();

  ChainExecutor executor(cluster.env(), &dataplane);
  for (const ChainSpec& chain : spec.chains) {
    executor.RegisterChain(chain);
  }
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  for (const BoutiqueFunction& bf : spec.functions) {
    Node* node = cluster.worker(bf.placement_group);
    functions.push_back(std::make_unique<FunctionRuntime>(
        bf.id, spec.tenant, bf.name, node, node->AllocateCore(),
        node->tenants().PoolOfTenant(spec.tenant)));
    dataplane.RegisterFunction(functions.back().get());
    executor.AttachFunction(functions.back().get());
  }

  IngressGateway::Options gw_options;
  gw_options.mode = IngressMode::kNadino;
  gw_options.tenant = spec.tenant;
  gw_options.initial_workers = 1;
  IngressGateway gateway(cluster.env(), cluster.ingress(), &cluster.routing(), &dataplane,
                         &executor, gw_options);
  gateway.AddRoute("/home", kHomeQueryChain, kFrontend);
  gateway.ConnectWorkerEngines(engines);

  HttpClients::Options client_options;
  client_options.path = "/home";
  for (const ChainSpec& chain : spec.chains) {
    if (chain.id == kHomeQueryChain) {
      client_options.payload = chain.entry_request_payload;
    }
  }
  client_options.clients = 60;
  client_options.mean_think = 200 * kMicrosecond;
  client_options.measure_from = kWarmup;
  client_options.stop_at = kWarmup + kMeasure;
  HttpClients clients(cluster.env(), &gateway, client_options, seed);
  clients.Start();

  Simulator& sim = cluster.sim();
  timer.RunUntil(sim, kWarmup);
  for (int i = 0; i < cluster.worker_count(); ++i) {
    cluster.worker(i)->ResetUtilizationWindows();
  }
  timer.RunUntil(sim, kWarmup + kMeasure);
  Outcome out;
  CoreLayers(cluster, engines, &out);
  DrainClients(timer, sim, clients, kWarmup + kMeasure + 100 * kMillisecond);
  timer.Finish();

  *snapshot = cluster.metrics().SnapshotText();
  clients.Collect(&out);
  out.window_s = ToSeconds(kMeasure);
  IdleOpenLoopLayers(&out);
  CommonLayers(cluster, *snapshot, &out);
  ClosedLoopChecks(*snapshot, executor, clients, &out);
  return out;
}

// Fig. 13 shape: NADINO ingress HTTP echo, 16 closed-loop clients, 4 KiB.
Outcome RunIngressWorkload(uint64_t seed, HostTimer& timer, std::string* snapshot) {
  constexpr SimDuration kWarmup = 20 * kMillisecond;
  constexpr SimDuration kMeasure = 100 * kMillisecond;
  constexpr uint32_t kPayload = 4096;
  constexpr ChainId kEchoChain = 10;
  constexpr FunctionId kEchoFn = 21;
  ClusterConfig config;
  config.worker_nodes = 1;
  config.with_ingress_node = true;
  config.seed = seed;
  Cluster cluster(&CostModel::Default(), config);
  cluster.CreateTenantPools(kAppTenant);

  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  NetworkEngine* engine = dataplane.AddWorkerNode(cluster.worker(0));
  dataplane.AttachTenant(kAppTenant, 1);
  dataplane.Start();

  ChainExecutor executor(cluster.env(), &dataplane);
  ChainSpec chain;
  chain.id = kEchoChain;
  chain.tenant = kAppTenant;
  chain.name = "http-echo";
  chain.entry = kEchoFn;
  chain.entry_request_payload = kPayload;
  FunctionBehavior echo;
  echo.compute = 5 * kMicrosecond;
  echo.response_payload = kPayload;
  chain.behaviors[kEchoFn] = echo;
  executor.RegisterChain(chain);
  FunctionRuntime server(kEchoFn, kAppTenant, "http-echo", cluster.worker(0),
                         cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(kAppTenant));
  dataplane.RegisterFunction(&server);
  executor.AttachFunction(&server);

  IngressGateway::Options gw_options;
  gw_options.mode = IngressMode::kNadino;
  gw_options.tenant = kAppTenant;
  IngressGateway gateway(cluster.env(), cluster.ingress(), &cluster.routing(), &dataplane,
                         &executor, gw_options);
  gateway.AddRoute("/echo", kEchoChain, kEchoFn);
  gateway.ConnectWorkerEngines({engine});

  HttpClients::Options client_options;
  client_options.path = "/echo";
  client_options.payload = kPayload;
  client_options.clients = 16;
  client_options.mean_think = 20 * kMicrosecond;
  client_options.measure_from = kWarmup;
  client_options.stop_at = kWarmup + kMeasure;
  HttpClients clients(cluster.env(), &gateway, client_options, seed);
  clients.Start();

  Simulator& sim = cluster.sim();
  timer.RunUntil(sim, kWarmup);
  cluster.worker(0)->ResetUtilizationWindows();
  timer.RunUntil(sim, kWarmup + kMeasure);
  Outcome out;
  CoreLayers(cluster, {engine}, &out);
  DrainClients(timer, sim, clients, kWarmup + kMeasure + 100 * kMillisecond);
  timer.Finish();

  *snapshot = cluster.metrics().SnapshotText();
  clients.Collect(&out);
  out.window_s = ToSeconds(kMeasure);
  IdleOpenLoopLayers(&out);
  CommonLayers(cluster, *snapshot, &out);
  ClosedLoopChecks(*snapshot, executor, clients, &out);
  return out;
}

// Open loop: 1M simulated users aggregated into per-tenant Poisson arrivals
// (one compressed diurnal cycle plus a flash crowd), 64 tenants' 64 B echoes
// over 4 worker nodes. The diurnal peak stays under capacity; the flash crowd
// pushes past it, so admission sheds a few percent and p99 is set by the
// per-tenant in-flight cap.
Outcome RunOpenLoopWorkload(uint64_t seed, HostTimer& timer, std::string* snapshot) {
  constexpr int kNodes = 4;
  constexpr int kTenants = 64;
  constexpr double kUsers = 1e6;
  constexpr double kRpsPerUser = 0.09;
  constexpr double kFlashCrowd = 1.5;
  constexpr uint32_t kPayload = 64;
  constexpr SimTime kHorizon = 300 * kMillisecond;
  constexpr SimDuration kDrain = 100 * kMillisecond;
  constexpr uint64_t kMaxInFlight = 16;
  ClusterConfig config;
  config.worker_nodes = kNodes;
  config.with_ingress_node = false;
  config.seed = seed;
  config.event_shards = 0;  // One admission shard per worker node.
  Cluster cluster(&CostModel::Default(), config);

  NadinoDataPlane::Options dp_options;
  dp_options.extra_engine_cost = 1200;  // The Fig. 15 DNE throttle.
  dp_options.initial_recv_buffers = 32;  // Twice the in-flight cap.
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  std::vector<NetworkEngine*> engines;
  for (int i = 0; i < kNodes; ++i) {
    engines.push_back(dataplane.AddWorkerNode(cluster.worker(i)));
  }
  // Pools hold the in-flight cap plus the engines' pre-posted RECV ring.
  const size_t pool_buffers = kMaxInFlight + static_cast<size_t>(dp_options.initial_recv_buffers) +
                              64;
  for (int t = 0; t < kTenants; ++t) {
    cluster.CreateTenantPools(kAppTenant + static_cast<TenantId>(t), pool_buffers, 1024);
    dataplane.AttachTenant(kAppTenant + static_cast<TenantId>(t), 1);
  }
  dataplane.Start();

  OpenLoopSource::Options source_options;
  source_options.horizon = kHorizon;
  OpenLoopSource source(cluster.env(), source_options);
  Simulator& sim = cluster.sim();
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  std::vector<std::unique_ptr<EchoPair>> pairs;
  std::vector<SimDuration> latencies;
  // Per tenant: its first dispatch instant, -1 before it, -2 once answered.
  std::vector<SimTime> first_dispatch(kTenants, -1);
  std::vector<SimDuration> ttfb;
  const double tenant_rps = kUsers * kRpsPerUser / kTenants;
  for (int t = 0; t < kTenants; ++t) {
    const TenantId tenant = kAppTenant + static_cast<TenantId>(t);
    const int client_node = t % kNodes;
    const int server_node = (t + 1) % kNodes;
    functions.push_back(std::make_unique<FunctionRuntime>(
        100 + t, tenant, "ol-client", cluster.worker(client_node),
        cluster.worker(client_node)->AllocateCore(),
        cluster.worker(client_node)->tenants().PoolOfTenant(tenant)));
    FunctionRuntime* client = functions.back().get();
    functions.push_back(std::make_unique<FunctionRuntime>(
        200 + t, tenant, "ol-server", cluster.worker(server_node),
        cluster.worker(server_node)->AllocateCore(),
        cluster.worker(server_node)->tenants().PoolOfTenant(tenant)));
    FunctionRuntime* server = functions.back().get();
    dataplane.RegisterFunction(client);
    dataplane.RegisterFunction(server);

    OpenLoopSource::TenantOptions tenant_options;
    tenant_options.schedule = MakeDiurnalSchedule(tenant_rps, kHorizon, /*steps=*/24,
                                                  /*trough_multiplier=*/0.5,
                                                  /*peak_multiplier=*/1.5);
    FlashBurst burst;
    burst.start = kHorizon / 2;
    burst.duration = kHorizon / 10;
    burst.add_rps = kFlashCrowd * tenant_rps;
    tenant_options.schedule.bursts.push_back(burst);
    tenant_options.shard = static_cast<uint32_t>(client_node);
    tenant_options.max_in_flight = kMaxInFlight;
    source.AddTenant(tenant_options);

    const auto index = static_cast<uint32_t>(t);
    pairs.push_back(std::make_unique<EchoPair>(
        &dataplane, client, server, kPayload, [&, index](SimTime due) {
          latencies.push_back(sim.now() - due);
          if (first_dispatch[index] >= 0) {
            ttfb.push_back(sim.now() - first_dispatch[index]);
            first_dispatch[index] = -2;  // Answered.
          }
          source.OnComplete(index, due);
        }));
  }
  source.SetDispatch([&](uint32_t tenant, SimTime due) {
    if (!pairs[tenant]->Issue(due)) {
      return false;
    }
    if (first_dispatch[tenant] == -1) {
      first_dispatch[tenant] = due;
    }
    return true;
  });
  source.Start();
  timer.RunUntil(sim, kHorizon + kDrain);
  timer.Finish();

  *snapshot = cluster.metrics().SnapshotText();
  Outcome out;
  out.attempted = source.offered();
  out.completed = source.completed();
  out.refused = source.shed();
  out.failed = source.dispatched() - source.completed();
  out.host_requests = source.completed();
  out.window_s = ToSeconds(kHorizon);
  out.latencies = std::move(latencies);
  out.ttfb = std::move(ttfb);
  uint64_t unmatched = 0;
  uint64_t pending = 0;
  uint64_t server_failures = 0;
  for (const auto& pair : pairs) {
    unmatched += pair->unmatched();
    pending += pair->pending();
    server_failures += pair->server_failures();
  }
  out.Check(source.offered() == source.dispatched() + source.shed(),
            "offered != dispatched + shed");
  out.Check(source.shed() > 0, "no arrival was shed: the load is not past capacity");
  out.Check(unmatched == 0, "unmatched responses");
  out.Check(pending == 0, "requests pending at the end");
  out.Check(server_failures == 0, "server-side send failures");
  out.Check(out.completed == out.latencies.size(), "completions without a latency sample");
  out.Layer("openloop.shed_frac",
            static_cast<double>(source.shed()) / static_cast<double>(source.offered()));
  out.Layer("openloop.in_flight_peak", static_cast<double>(source.in_flight_peak()));
  CoreLayers(cluster, engines, &out);
  CommonLayers(cluster, *snapshot, &out);
  return out;
}

// §3f churn study: seeded tenant arrivals and departures under the lazy,
// tenant-shared connect policy. Arrivals are a Poisson process conditioned on
// its count (uniform instants over the arrival window). Each tenant echoes
// closed-loop with seeded think times for a uniform lifetime, idles out, and
// its QPs are destroyed when the cold-start sweeper retires its server. The
// echo load is light on purpose: the control plane is what this exercises.
Outcome RunChurnWorkload(uint64_t seed, HostTimer& timer, std::string* snapshot) {
  constexpr int kTenants = 160;
  constexpr TenantId kTenantBase = 10;
  constexpr SimDuration kArrivalWindow = 640 * kMillisecond;
  constexpr SimDuration kMinLifetime = 40 * kMillisecond;
  constexpr SimDuration kMaxLifetime = 120 * kMillisecond;
  constexpr SimDuration kMeanThink = 300 * kMicrosecond;
  constexpr uint32_t kMinPayload = 64;
  constexpr uint32_t kMaxPayload = 1536;
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  config.seed = seed;
  Cluster cluster(&CostModel::Default(), config);
  Simulator& sim = cluster.sim();

  NadinoDataPlane::Options dp_options;
  dp_options.connect_policy = ConnectPolicy::kLazyShared;
  dp_options.instrument_control_plane = true;
  dp_options.initial_recv_buffers = 8;  // Hundreds of tenants share the nodes.
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  std::vector<NetworkEngine*> engines = {dataplane.AddWorkerNode(cluster.worker(0)),
                                         dataplane.AddWorkerNode(cluster.worker(1))};
  dataplane.Start();

  ColdStartManager::Options cold_options;
  cold_options.keep_warm_timeout = 30 * kMillisecond;
  cold_options.sweep_period = 10 * kMillisecond;
  ColdStartManager coldstart(cluster.env(), cold_options);

  struct Tenant {
    std::unique_ptr<FunctionRuntime> client;
    std::unique_ptr<FunctionRuntime> server;
    std::unique_ptr<EchoPair> echo;
    SimTime arrival = 0;
    SimTime until = 0;
    bool answered = false;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::map<FunctionId, TenantId> live_servers;
  uint64_t arrived = 0;
  uint64_t departed = 0;
  uint64_t issued = 0;
  uint64_t issue_failures = 0;
  std::vector<SimDuration> latencies;
  std::vector<SimDuration> ttfb;

  coldstart.SetRetireHook([&](FunctionId fn) {
    const auto it = live_servers.find(fn);
    if (it == live_servers.end()) {
      return;
    }
    dataplane.DetachTenant(it->second);
    live_servers.erase(it);
    ++departed;
  });

  auto issue = [&](Tenant& t) {
    if (sim.now() >= t.until) {
      return;
    }
    if (t.echo->Issue(sim.now())) {
      ++issued;
    } else {
      ++issue_failures;
    }
  };

  Rng rng(seed ^ 0x636875726e5f7270ULL);
  Rng think_rng(seed ^ 0x7468696e6b5f7270ULL);
  std::vector<SimTime> arrivals(kTenants);
  for (SimTime& at : arrivals) {
    at = static_cast<SimTime>(rng.UniformInt(0, kArrivalWindow - 1));
  }
  std::sort(arrivals.begin(), arrivals.end());
  SimTime last_active = 0;
  for (int i = 0; i < kTenants; ++i) {
    const SimTime arrival = arrivals[static_cast<size_t>(i)];
    const auto lifetime = static_cast<SimDuration>(rng.UniformInt(kMinLifetime, kMaxLifetime));
    const auto payload = static_cast<uint32_t>(rng.UniformInt(kMinPayload, kMaxPayload));
    last_active = std::max(last_active, arrival + lifetime);
    sim.Schedule(arrival, [&, i, arrival, lifetime, payload]() {
      const TenantId tenant = kTenantBase + static_cast<TenantId>(i);
      cluster.CreateTenantPools(tenant, 32, 2048);
      const SimDuration setup = dataplane.AttachTenant(tenant, 1);  // 0 when lazy.
      auto t = std::make_unique<Tenant>();
      t->arrival = arrival;
      t->until = arrival + lifetime;
      t->client = std::make_unique<FunctionRuntime>(
          10000 + i, tenant, "client", cluster.worker(0), cluster.worker(0)->AllocateCore(),
          cluster.worker(0)->tenants().PoolOfTenant(tenant));
      t->server = std::make_unique<FunctionRuntime>(
          20000 + i, tenant, "server", cluster.worker(1), cluster.worker(1)->AllocateCore(),
          cluster.worker(1)->tenants().PoolOfTenant(tenant));
      dataplane.RegisterFunction(t->client.get());
      dataplane.RegisterFunction(t->server.get());
      Tenant* raw = t.get();
      t->echo = std::make_unique<EchoPair>(&dataplane, raw->client.get(), raw->server.get(),
                                           payload, [&, raw](SimTime due) {
                                             latencies.push_back(sim.now() - due);
                                             if (!raw->answered) {
                                               raw->answered = true;
                                               ttfb.push_back(sim.now() - raw->arrival);
                                             }
                                             const auto think = static_cast<SimDuration>(
                                                 think_rng.Exponential(kMeanThink));
                                             sim.Schedule(think, [&, raw]() { issue(*raw); });
                                           });
      // Managed after the echo installed its server handler; prewarmed so
      // the time to first byte isolates the control plane, not container boot.
      coldstart.Manage(raw->server.get());
      coldstart.Prewarm(raw->server->id());
      live_servers[raw->server->id()] = tenant;
      ++arrived;
      sim.Schedule(setup, [&, raw]() { issue(*raw); });
      tenants.push_back(std::move(t));
    });
  }
  // Long enough for the last tenant to idle out and be swept.
  const SimTime end = last_active + cold_options.keep_warm_timeout +
                      3 * cold_options.sweep_period + 10 * kMillisecond;
  timer.RunUntil(sim, end);
  timer.Finish();

  *snapshot = cluster.metrics().SnapshotText();
  Outcome out;
  out.attempted = issued + issue_failures;
  out.completed = latencies.size();
  out.failed = out.attempted - out.completed;
  out.host_requests = latencies.size();
  // The span in which tenants can be active, fixed so that goodput does not
  // swing with the seed's latest departure.
  out.window_s = ToSeconds(kArrivalWindow + kMaxLifetime);
  out.latencies = std::move(latencies);
  out.ttfb = std::move(ttfb);
  uint64_t unmatched = 0;
  uint64_t pending = 0;
  for (const auto& t : tenants) {
    unmatched += t->echo->unmatched();
    pending += t->echo->pending();
  }
  out.Check(arrived >= 100, "fewer than 100 tenant arrivals");
  out.Check(out.ttfb.size() == arrived, "a tenant never got its first byte");
  out.Check(departed == arrived, "a tenant never departed");
  out.Check(unmatched == 0 && pending == 0, "unmatched or pending echoes");
  out.Check(issue_failures == 0, "echo sends refused");
  IdleOpenLoopLayers(&out);
  CoreLayers(cluster, engines, &out);
  CommonLayers(cluster, *snapshot, &out);
  return out;
}

// --- Output -----------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      trace = true;
    } else {
      std::fprintf(stderr, "usage: %s --workload <name> --seed <n> [--trace]\n", argv[0]);
      return 2;
    }
  }
  if (trace && !TraceAvailable()) {
    std::fprintf(stderr, "--trace needs the traced build (perfbench_traced)\n");
    return 2;
  }
  using Runner = Outcome (*)(uint64_t, HostTimer&, std::string*);
  const std::map<std::string, Runner> runners = {
      {"boutique", RunBoutiqueWorkload},
      {"ingress_4k", RunIngressWorkload},
      {"openloop_64", RunOpenLoopWorkload},
      {"churn", RunChurnWorkload},
  };
  const auto runner = runners.find(workload);
  if (runner == runners.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  HostTimer timer(trace);
  std::string snapshot;
  const Outcome out = runner->second(seed, timer, &snapshot);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  std::string json = "{\"workload\": " + JsonString(workload) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"traced\": " + (trace ? "true" : "false") +
                     ", \"setup_s\": " + JsonNumber(timer.setup_s()) +
                     ", \"run_s\": " + JsonNumber(timer.run_s()) +
                     ", \"peak_rss_mb\": " + JsonNumber(usage.ru_maxrss / 1024.0) +
                     ", \"host_requests\": " + std::to_string(out.host_requests) +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"completed\": " + std::to_string(out.completed) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"refused\": " + std::to_string(out.refused);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, Fnv1a(snapshot));
  json += ", \"registry_digest\": \"" + std::string(digest) + "\"";
  const double ok_frac = out.attempted > 0 ? static_cast<double>(out.completed) /
                                                 static_cast<double>(out.attempted)
                                           : 0.0;
  json += ", \"sim\": {\"sim_goodput_rps\": " +
          JsonNumber(static_cast<double>(out.completed) / out.window_s) +
          ", \"sim_lat_p50_us\": " + JsonNumber(QuantileUs(out.latencies, 0.50)) +
          ", \"sim_lat_p99_us\": " + JsonNumber(QuantileUs(out.latencies, 0.99)) +
          ", \"ok_frac\": " + JsonNumber(ok_frac) +
          ", \"sim_ttfb_p90_us\": " + JsonNumber(QuantileUs(out.ttfb, 0.90)) +
          ", \"lat_samples\": " + std::to_string(out.latencies.size()) +
          ", \"ttfb_samples\": " + std::to_string(out.ttfb.size()) + "}";
  json += ", \"layer\": {";
  for (size_t i = 0; i < out.layer.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(out.layer[i].first) + ": " +
            JsonNumber(out.layer[i].second);
  }
  json += "}, \"trace\": " + TraceJson() + ", \"violations\": [";
  for (size_t i = 0; i < out.violations.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(out.violations[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
