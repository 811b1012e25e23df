#include "src/core/experiments.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "src/rdma/control_plane.h"
#include "src/rdma/distributed_lock.h"
#include "src/runtime/chain.h"
#include "src/runtime/coldstart.h"
#include "src/runtime/message_header.h"
#include "src/runtime/openloop.h"
#include "src/runtime/request_client.h"
#include "src/sim/random.h"

namespace nadino {

namespace {
constexpr TenantId kEchoTenant = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Shared echo-driver plumbing
// ---------------------------------------------------------------------------

namespace {

// Measures a closed-loop echo stream: the caller invokes RecordIssue() and
// RecordComplete() around each round trip; latencies correlate FIFO (RC
// transports deliver in order).
class EchoMeter {
 public:
  explicit EchoMeter(Env& env) : env_(&env) {}

  void RecordIssue() { issue_times_.push_back(env_->now()); }

  void RecordComplete() {
    if (!issue_times_.empty()) {
      latencies_.Record(env_->now() - issue_times_.front());
      issue_times_.pop_front();
    }
    ++completed_;
  }

  void ResetForMeasurement() {
    latencies_.Reset();
    measure_start_completed_ = completed_;
    measure_start_time_ = env_->now();
  }

  EchoResult Finish() {
    EchoResult result;
    result.completed = completed_ - measure_start_completed_;
    const double seconds = ToSeconds(env_->now() - measure_start_time_);
    result.rps = seconds > 0 ? static_cast<double>(result.completed) / seconds : 0.0;
    result.mean_latency_us = latencies_.MeanUs();
    result.p99_latency_us = ToUs(latencies_.Percentile(0.99));
    result.metrics_text = env_->metrics().SnapshotText();
    result.metrics_json = env_->metrics().SnapshotJson();
    return result;
  }

 private:
  Env* env_;
  std::deque<SimTime> issue_times_;
  LatencyHistogram latencies_;
  uint64_t completed_ = 0;
  uint64_t measure_start_completed_ = 0;
  SimTime measure_start_time_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Fig. 6 / Fig. 11 / Fig. 12: DNE echo
// ---------------------------------------------------------------------------

EchoResult RunDneEcho(const CostModel& cost, const DneEchoOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  // Buffers must hold the payload plus the message header.
  cluster.CreateTenantPools(kEchoTenant, 8192,
                            std::max<size_t>(16 * 1024, options.payload + 4096));

  NadinoDataPlane::Options dp_options;
  dp_options.engine_kind = options.kind;
  dp_options.on_path = options.on_path;
  dp_options.extra_engine_cost = options.extra_engine_cost;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  NetworkEngine* engine_a = dataplane.AddWorkerNode(cluster.worker(0));
  NetworkEngine* engine_b = dataplane.AddWorkerNode(cluster.worker(1));
  dataplane.AttachTenant(kEchoTenant, 1);
  dataplane.Start();

  const FunctionId client_fn = 11;
  const FunctionId server_fn = 12;
  cluster.routing().Place(client_fn, cluster.worker(0)->id());
  cluster.routing().Place(server_fn, cluster.worker(1)->id());

  Simulator& sim = cluster.sim();
  EchoMeter meter(cluster.env());

  if (options.via_functions) {
    // Fig. 6 setup: host functions behind Comch.
    FunctionRuntime client(client_fn, kEchoTenant, "echo-client", cluster.worker(0),
                           cluster.worker(0)->AllocateCore(),
                           cluster.worker(0)->tenants().PoolOfTenant(kEchoTenant));
    FunctionRuntime server(server_fn, kEchoTenant, "echo-server", cluster.worker(1),
                           cluster.worker(1)->AllocateCore(),
                           cluster.worker(1)->tenants().PoolOfTenant(kEchoTenant));
    dataplane.RegisterFunction(&client);
    dataplane.RegisterFunction(&server);
    TenantEchoLoad::Options load_options;
    load_options.payload_bytes = options.payload;
    load_options.window = options.concurrency;
    TenantEchoLoad load(cluster.env(), &dataplane, &client, &server, load_options);
    load.SetActive(true);
    sim.RunFor(options.warmup);
    load.mutable_latencies().Reset();
    const uint64_t before = load.completed();
    const SimTime start = sim.now();
    sim.RunFor(options.duration);
    EchoResult result;
    result.completed = load.completed() - before;
    result.rps = static_cast<double>(result.completed) / ToSeconds(sim.now() - start);
    result.mean_latency_us = load.latencies().MeanUs();
    result.p99_latency_us = ToUs(load.latencies().Percentile(0.99));
    result.metrics_text = cluster.metrics().SnapshotText();
    result.metrics_json = cluster.metrics().SnapshotJson();
    return result;
  }

  // Fig. 12 setup: the engines themselves are the echo endpoints.
  BufferPool* pool_a = cluster.worker(0)->tenants().PoolOfTenant(kEchoTenant);
  uint64_t next_request = 1;
  engine_b->SetEngineEndpoint(server_fn, [&](Buffer* buffer) {
    const std::optional<MessageHeader> header = ReadMessage(*buffer);
    if (!header.has_value()) {
      return;
    }
    MessageHeader reply = *header;
    reply.src = server_fn;
    reply.dst = client_fn;
    reply.flags = MessageHeader::kFlagResponse;
    RewriteHeader(buffer, reply);
    engine_b->SendFromEngine(kEchoTenant, buffer);
  });
  std::function<void()> issue_one = [&]() {
    Buffer* buffer = pool_a->Get(engine_a->owner_id());
    if (buffer == nullptr) {
      return;
    }
    MessageHeader header;
    header.src = client_fn;
    header.dst = server_fn;
    header.payload_length = options.payload;
    header.request_id = next_request++;
    WriteMessage(buffer, header);
    meter.RecordIssue();
    engine_a->SendFromEngine(kEchoTenant, buffer);
  };
  engine_a->SetEngineEndpoint(client_fn, [&](Buffer* buffer) {
    meter.RecordComplete();
    pool_a->Put(buffer, engine_a->owner_id());
    issue_one();
  });
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 100, [&]() { issue_one(); });
  }
  sim.RunFor(options.warmup);
  meter.ResetForMeasurement();
  sim.RunFor(options.duration);
  return meter.Finish();
}

// ---------------------------------------------------------------------------
// Fig. 6: native two-sided RDMA echo (functions drive verbs directly)
// ---------------------------------------------------------------------------

namespace {

// One side of the native echo: a core that posts and polls verbs directly.
class NativeEchoSide {
 public:
  NativeEchoSide(Env& env, Node* node, FifoResource* core, BufferPool* pool)
      : env_(&env), node_(node), core_(core), pool_(pool) {
    node_->rnic().mr_table().Register(pool_, kMrLocal);
  }

  void PostRecvs(int count) {
    for (int i = 0; i < count; ++i) {
      Buffer* buffer = pool_->Get(OwnerId::External(node_->id()));
      if (buffer == nullptr) {
        return;
      }
      node_->rnic().PostRecvBuffer(pool_, buffer, OwnerId::External(node_->id()),
                                   next_wr_id_++);
    }
  }

  void PostSend(QpNum qp, Buffer* buffer) {
    core_->Submit(env_->cost().native_post, [this, qp, buffer]() {
      pool_->Transfer(buffer, OwnerId::External(node_->id()), OwnerId::Rnic(node_->id()));
      const uint64_t wr = next_wr_id_++;
      in_flight_[wr] = buffer;
      node_->rnic().PostSend(qp, *buffer, wr);
    });
  }

  // Installs the completion handler; `on_recv(buffer)` runs after poll cost.
  void Install(std::function<void(Buffer*)> on_recv) {
    node_->rnic().cq().SetHandler([this, on_recv = std::move(on_recv)](const Completion& cqe) {
      if (cqe.opcode == RdmaOpcode::kSend) {
        const auto it = in_flight_.find(cqe.wr_id);
        if (it != in_flight_.end()) {
          pool_->Put(it->second, OwnerId::Rnic(node_->id()));
          in_flight_.erase(it);
        }
        return;
      }
      if (cqe.opcode != RdmaOpcode::kRecv) {
        return;
      }
      Buffer* buffer = cqe.buffer;
      core_->Submit(env_->cost().native_poll, [this, buffer, on_recv]() {
        pool_->Transfer(buffer, OwnerId::Rnic(node_->id()), OwnerId::External(node_->id()));
        PostRecvs(1);  // Keep the receive queue fed.
        on_recv(buffer);
      });
    });
  }

  BufferPool* pool() { return pool_; }
  Node* node() { return node_; }
  OwnerId app_owner() const { return OwnerId::External(node_->id()); }

 private:
  Env* env_;
  Node* node_;
  FifoResource* core_;
  BufferPool* pool_;
  uint64_t next_wr_id_ = 1;
  std::map<uint64_t, Buffer*> in_flight_;
};

}  // namespace

EchoResult RunNativeRdmaEcho(const CostModel& cost, const NativeEchoOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(kEchoTenant, 8192,
                            std::max<size_t>(16 * 1024, options.payload + 4096));
  Simulator& sim = cluster.sim();

  FifoResource* client_core = options.on_dpu_cores ? &cluster.worker(0)->dpu()->core(0)
                                                   : cluster.worker(0)->AllocateCore();
  FifoResource* server_core = options.on_dpu_cores ? &cluster.worker(1)->dpu()->core(0)
                                                   : cluster.worker(1)->AllocateCore();
  NativeEchoSide client(cluster.env(), cluster.worker(0), client_core,
                        cluster.worker(0)->tenants().PoolOfTenant(kEchoTenant));
  NativeEchoSide server(cluster.env(), cluster.worker(1), server_core,
                        cluster.worker(1)->tenants().PoolOfTenant(kEchoTenant));
  client.PostRecvs(options.concurrency + 8);
  server.PostRecvs(options.concurrency + 8);

  const auto [client_qp, server_qp] = RdmaEngine::CreateConnectedPair(
      cluster.worker(0)->rnic(), cluster.worker(1)->rnic(), kEchoTenant);

  EchoMeter meter(cluster.env());
  std::function<void()> issue_one = [&]() {
    Buffer* buffer = client.pool()->Get(client.app_owner());
    if (buffer == nullptr) {
      return;
    }
    buffer->FillPattern(0xE0E0, options.payload);
    meter.RecordIssue();
    client.PostSend(client_qp, buffer);
  };
  server.Install([&](Buffer* buffer) {
    server.PostSend(server_qp, buffer);  // Echo the buffer straight back.
  });
  client.Install([&](Buffer* buffer) {
    meter.RecordComplete();
    client.pool()->Put(buffer, client.app_owner());
    issue_one();
  });
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 100, [&]() { issue_one(); });
  }
  sim.RunFor(options.warmup);
  meter.ResetForMeasurement();
  sim.RunFor(options.duration);
  return meter.Finish();
}

// ---------------------------------------------------------------------------
// Fig. 12: one-sided write alternatives (OWRC-Best/Worst, OWDL)
// ---------------------------------------------------------------------------

namespace {

struct OneSidedParty {
  Node* node = nullptr;
  FifoResource* core = nullptr;  // A single DPU core per party, as in Fig. 12.
  BufferPool* local_pool = nullptr;
  BufferPool* rdma_pool = nullptr;  // Separate for OWRC; == local for OWDL.
};

}  // namespace

EchoResult RunOneSidedEcho(const CostModel& cost, const OneSidedEchoOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(kEchoTenant, 8192,
                            std::max<size_t>(16 * 1024, options.payload + 4096));
  Simulator& sim = cluster.sim();
  const bool owdl = options.variant == OneSidedVariant::kOwdl;
  const CopyLocality locality = options.variant == OneSidedVariant::kOwrcBest
                                    ? CopyLocality::kCacheHot
                                    : CopyLocality::kCacheCold;

  OneSidedParty parties[2];
  for (int i = 0; i < 2; ++i) {
    parties[i].node = cluster.worker(i);
    parties[i].core = &cluster.worker(i)->dpu()->core(0);
    parties[i].local_pool = cluster.worker(i)->tenants().PoolOfTenant(kEchoTenant);
    if (owdl) {
      // OWDL: one-sided writes land directly in the unified pool, guarded by
      // distributed locks (Fig. 3 (1)).
      parties[i].rdma_pool = parties[i].local_pool;
    } else {
      // OWRC: a dedicated RDMA-only pool isolated from local processing
      // (Fig. 3 (2)); arrival requires a receiver-side copy out of it.
      parties[i].rdma_pool = cluster.worker(i)->tenants().CreatePool(
          0x200 + static_cast<TenantId>(i), "rdma_only_" + std::to_string(i),
          TenantRegistry::PoolConfig{1024, 16 * 1024});
    }
    parties[i].node->rnic().mr_table().Register(parties[i].rdma_pool, kMrRemoteWrite);
  }

  const auto [qp_a, qp_b] = RdmaEngine::CreateConnectedPair(
      cluster.worker(0)->rnic(), cluster.worker(1)->rnic(), kEchoTenant);
  const QpNum qps[2] = {qp_a, qp_b};

  DistributedLockService locks_a(cluster.env(), &cluster.network(), parties[0].node->id(),
                                 parties[0].core);
  DistributedLockService locks_b(cluster.env(), &cluster.network(), parties[1].node->id(),
                                 parties[1].core);
  DistributedLockService* locks[2] = {&locks_a, &locks_b};

  EchoMeter meter(cluster.env());
  CopyEngine copier;
  uint64_t next_wr = 1;

  // Sources: each party owns one message buffer per outstanding slot.
  std::vector<Buffer*> client_sources;
  for (int i = 0; i < options.concurrency; ++i) {
    Buffer* b = parties[0].local_pool->Get(OwnerId::External(1));
    b->FillPattern(0x0D, options.payload);
    client_sources.push_back(b);
  }
  Buffer* server_source = parties[1].local_pool->Get(OwnerId::External(2));
  server_source->FillPattern(0x0E, options.payload);

  // Receiver-side discovery continuations, keyed by slot per target party.
  // The write-arrival hook fires when the RNIC deposits the payload; the
  // poller then finds it half a poll interval later on average and (OWRC)
  // copies it out of the RDMA-only pool.
  std::map<uint32_t, std::function<void()>> pending[2];
  for (int target = 0; target < 2; ++target) {
    parties[target].node->rnic().SetWriteArrivalHook(
        parties[target].rdma_pool->id(),
        [&, target](Buffer* /*buffer*/, uint32_t slot) {
          const auto it = pending[target].find(slot);
          if (it == pending[target].end()) {
            return;
          }
          std::function<void()> written = std::move(it->second);
          pending[target].erase(it);
          sim.Schedule(cost.owrc_poll_interval / 2, [&, target, slot,
                                                     written = std::move(written)]() {
            parties[target].core->Submit(cost.owrc_poll_iteration, [&, target, slot,
                                                                    written]() {
              if (!owdl) {
                Buffer* rdma_buffer = parties[target].rdma_pool->Resolve(
                    BufferDescriptor{parties[target].rdma_pool->id(), slot, 0, 0});
                Buffer* local = parties[target].local_pool->Get(OwnerId::External(99));
                if (local != nullptr) {
                  const SimDuration copy_cost = copier.Copy(*rdma_buffer, local, locality);
                  parties[target].core->Submit(copy_cost, [&, target, local, written]() {
                    parties[target].local_pool->Put(local, OwnerId::External(99));
                    written();
                  });
                  return;
                }
              }
              written();
            });
          });
        });
  }

  // One-sided write with the variant's full critical path, then `written`.
  // `writer` / `target` are party indices.
  std::function<void(int, int, Buffer*, uint32_t, std::function<void()>)> do_write =
      [&](int writer, int target, Buffer* source, uint32_t slot, std::function<void()> written) {
        auto post = [&, writer, target, source, slot, written]() {
          pending[target][slot] = written;
          parties[writer].core->Submit(cost.dne_tx_stage, [&, writer, target, source, slot]() {
            parties[writer].node->rnic().PostWrite(qps[writer], *source,
                                                   parties[target].rdma_pool->id(), slot,
                                                   next_wr++);
          });
        };
        if (owdl) {
          // Acquire the remote slot's lock before writing; release after.
          const uint64_t lock_id = (static_cast<uint64_t>(target) << 32) | slot;
          locks[target]->Acquire(parties[writer].node->id(), lock_id,
                                 [&, writer, target, lock_id, post]() {
                                   post();
                                   // Release off the critical path.
                                   sim.Schedule(FromUs(2.0), [&, writer, target, lock_id]() {
                                     locks[target]->Release(parties[writer].node->id(),
                                                            lock_id);
                                   });
                                 });
        } else {
          post();
        }
      };

  std::function<void(int)> issue_one = [&](int slot) {
    meter.RecordIssue();
    do_write(0, 1, client_sources[static_cast<size_t>(slot)], static_cast<uint32_t>(slot),
             [&, slot]() {
               // Server processes and echoes back into the client's pool.
               do_write(1, 0, server_source, static_cast<uint32_t>(slot), [&, slot]() {
                 meter.RecordComplete();
                 issue_one(slot);
               });
             });
  };
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 200, [&, i]() { issue_one(i); });
  }
  sim.RunFor(options.warmup);
  meter.ResetForMeasurement();
  sim.RunFor(options.duration);
  return meter.Finish();
}

// ---------------------------------------------------------------------------
// Fig. 9: Comch variants
// ---------------------------------------------------------------------------

ComchBenchResult RunComchBench(const CostModel& cost, const ComchBenchOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 1;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();
  Node* node = cluster.worker(0);

  ComchServer server(cluster.env(), &node->dpu()->core(0),
                     /*engine_managed_polling=*/false, node->id());
  // The single-core DNE echoes descriptors straight back.
  server.SetReceiver([&server](FunctionId fn, const BufferDescriptor& desc) {
    server.SendToHost(fn, desc);
  });

  struct Fn {
    FifoResource* core = nullptr;
    SimTime issued_at = 0;
  };
  std::vector<Fn> fns(static_cast<size_t>(options.num_functions));
  LatencyHistogram latencies;
  uint64_t completed = 0;
  uint64_t measured_from = 0;
  SimTime measure_start = 0;

  for (int i = 0; i < options.num_functions; ++i) {
    fns[static_cast<size_t>(i)].core = node->AllocateCore();
  }
  std::function<void(int)> issue = [&](int i) {
    Fn& fn = fns[static_cast<size_t>(i)];
    fn.issued_at = sim.now();
    server.SendToDpu(static_cast<FunctionId>(i), BufferDescriptor{0, 0, 16, 0});
  };
  for (int i = 0; i < options.num_functions; ++i) {
    server.ConnectEndpoint(static_cast<FunctionId>(i), options.variant,
                           fns[static_cast<size_t>(i)].core,
                           [&, i](const BufferDescriptor&) {
                             latencies.Record(sim.now() - fns[static_cast<size_t>(i)].issued_at);
                             ++completed;
                             issue(i);
                           });
  }
  for (int i = 0; i < options.num_functions; ++i) {
    sim.Schedule(i * 50, [&, i]() { issue(i); });
  }
  sim.RunFor(options.warmup);
  latencies.Reset();
  measured_from = completed;
  measure_start = sim.now();
  sim.RunFor(options.duration);

  ComchBenchResult result;
  result.mean_rtt_us = latencies.MeanUs();
  result.descriptor_rps =
      static_cast<double>(completed - measured_from) / ToSeconds(sim.now() - measure_start);
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// Figs. 13 / 14: ingress designs
// ---------------------------------------------------------------------------

IngressEchoResult RunIngressEcho(const CostModel& cost, const IngressEchoOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 1;
  config.with_ingress_node = true;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(kEchoTenant);
  Simulator& sim = cluster.sim();
  for (const FaultSpec& spec : options.faults) {
    cluster.env().faults().Install(spec);
  }
  for (const auto& [tenant, target] : options.slos) {
    cluster.env().slos().Register(tenant, target);
  }
  for (const auto& [tenant, policy] : options.retries) {
    cluster.env().slos().SetRetryPolicy(tenant, policy);
  }

  NadinoDataPlane::Options dp_options;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  NetworkEngine* engine = nullptr;
  if (options.mode == IngressMode::kNadino) {
    engine = dataplane.AddWorkerNode(cluster.worker(0));
    dataplane.AttachTenant(kEchoTenant, 1);
    dataplane.Start();
  }

  ChainExecutor executor(cluster.env(), &dataplane);
  const ChainId echo_chain = 10;
  const FunctionId echo_fn = 21;
  ChainSpec chain;
  chain.id = echo_chain;
  chain.tenant = kEchoTenant;
  chain.name = "http-echo";
  chain.entry = echo_fn;
  chain.entry_request_payload = options.payload;
  FunctionBehavior echo;
  echo.compute = 5 * kMicrosecond;
  echo.response_payload = options.payload;
  chain.behaviors[echo_fn] = echo;
  executor.RegisterChain(chain);

  FunctionRuntime server(echo_fn, kEchoTenant, "http-echo", cluster.worker(0),
                         cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(kEchoTenant));
  dataplane.RegisterFunction(&server);
  executor.AttachFunction(&server);

  IngressGateway::Options gw_options;
  gw_options.mode = options.mode;
  gw_options.tenant = kEchoTenant;
  gw_options.initial_workers = options.initial_workers;
  gw_options.max_workers = options.max_workers;
  gw_options.autoscale = options.autoscale;
  IngressGateway gateway(cluster.env(), cluster.ingress(), &cluster.routing(), &dataplane,
                         &executor, gw_options);
  gateway.AddRoute("/echo", echo_chain, echo_fn);
  if (options.mode == IngressMode::kNadino) {
    gateway.ConnectWorkerEngines({engine});
  } else {
    gateway.ConnectWorkerPortals({cluster.worker(0)});
  }

  ClosedLoopClients::Options client_options;
  client_options.num_clients = options.ramp_interval > 0 ? 1 : options.clients;
  client_options.path = "/echo";
  client_options.payload_bytes = options.payload;
  ClosedLoopClients clients(cluster.env(), &gateway, client_options);
  clients.Start();
  if (options.ramp_interval > 0) {
    for (int i = 1; i < options.clients; ++i) {
      sim.Schedule(options.ramp_interval * i, [&clients]() { clients.AddClient(); });
    }
  }

  IngressEchoResult result;
  PeriodicSampler sampler(cluster.env(), options.sample_period);
  sampler.AddRate(&clients.rate());
  sampler.AddHook([&](SimTime now) {
    result.cpu_series.Record(now, gateway.WorkerUtilizationCores());
    if (!options.autoscale) {
      gateway.ResetUtilizationWindows();  // The autoscaler resets otherwise.
    }
    const auto& samples = clients.rate().series().samples();
    if (!samples.empty()) {
      result.rps_series.Record(now, samples.back().value);
    }
  });
  sampler.Start();

  sim.RunFor(options.warmup);
  clients.mutable_latencies().Reset();
  const uint64_t before = clients.completed();
  const SimTime start = sim.now();
  sim.RunFor(options.duration);

  result.mean_latency_us = clients.latencies().MeanUs();
  result.p99_latency_us = ToUs(clients.latencies().Percentile(0.99));
  result.rps = static_cast<double>(clients.completed() - before) / ToSeconds(sim.now() - start);
  result.scale_ups = gateway.stats().scale_ups;
  result.scale_downs = gateway.stats().scale_downs;
  result.final_workers = gateway.active_workers();
  result.sim_events = sim.events_processed();
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// Figs. 15 / 17: multi-tenancy
// ---------------------------------------------------------------------------

MultiTenantResult RunMultiTenant(const CostModel& cost, const MultiTenantOptions& options) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();
  for (const FaultSpec& spec : options.faults) {
    cluster.env().faults().Install(spec);
  }
  for (const auto& [tenant, target] : options.slos) {
    cluster.env().slos().Register(tenant, target);
  }
  for (const auto& [tenant, policy] : options.retries) {
    cluster.env().slos().SetRetryPolicy(tenant, policy);
  }

  NadinoDataPlane::Options dp_options;
  dp_options.use_dwrr = options.use_dwrr;
  dp_options.extra_engine_cost = options.extra_engine_cost;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  std::vector<NetworkEngine*> engines;
  engines.push_back(dataplane.AddWorkerNode(cluster.worker(0)));
  engines.push_back(dataplane.AddWorkerNode(cluster.worker(1)));

  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  std::vector<std::unique_ptr<TenantEchoLoad>> loads;
  for (const TenantScenario& scenario : options.tenants) {
    cluster.CreateTenantPools(scenario.tenant, 4096, 8192);
    dataplane.AttachTenant(scenario.tenant, scenario.weight);
  }
  dataplane.Start();
  for (const TenantScenario& scenario : options.tenants) {
    const FunctionId client_fn = 100 + scenario.tenant;
    const FunctionId server_fn = 200 + scenario.tenant;
    auto client = std::make_unique<FunctionRuntime>(
        client_fn, scenario.tenant, "client", cluster.worker(0),
        cluster.worker(0)->AllocateCore(),
        cluster.worker(0)->tenants().PoolOfTenant(scenario.tenant));
    auto server = std::make_unique<FunctionRuntime>(
        server_fn, scenario.tenant, "server", cluster.worker(1),
        cluster.worker(1)->AllocateCore(),
        cluster.worker(1)->tenants().PoolOfTenant(scenario.tenant));
    dataplane.RegisterFunction(client.get());
    dataplane.RegisterFunction(server.get());
    TenantEchoLoad::Options load_options;
    load_options.payload_bytes = scenario.payload;
    load_options.window = scenario.window;
    auto load = std::make_unique<TenantEchoLoad>(cluster.env(), &dataplane, client.get(),
                                                 server.get(), load_options);
    load->ScheduleActive(scenario.start, scenario.stop);
    functions.push_back(std::move(client));
    functions.push_back(std::move(server));
    loads.push_back(std::move(load));
  }

  MultiTenantResult result;
  PeriodicSampler sampler(cluster.env(), options.sample_period);
  for (size_t i = 0; i < loads.size(); ++i) {
    sampler.AddRate(&loads[i]->rate());
  }
  sampler.AddHook([&](SimTime now) {
    for (const auto& load : loads) {
      const auto& samples = load->rate().series().samples();
      if (!samples.empty()) {
        result.tenant_rps[load->tenant()].Record(now, samples.back().value);
      }
    }
  });
  sampler.Start();

  sim.RunFor(options.duration);
  uint64_t total = 0;
  for (const auto& load : loads) {
    result.tenant_completed[load->tenant()] = load->completed();
    total += load->completed();
  }
  result.aggregate_rps = static_cast<double>(total) / ToSeconds(options.duration);
  // Fairness accounting comes from the registry, not scheduler spelunking:
  // engine_tenant_served{engine,node,tenant} callbacks sample each engine's
  // TX scheduler, and dataplane_drops is the shared drop counter.
  const MetricsRegistry& metrics = cluster.metrics();
  for (const TenantScenario& scenario : options.tenants) {
    uint64_t served = 0;
    for (NetworkEngine* engine : engines) {
      MetricLabels labels = MetricLabels::Node(engine->node()->id());
      labels.engine = static_cast<int64_t>(engine->engine_id());
      labels.tenant = static_cast<int64_t>(scenario.tenant);
      served += metrics.ValueOf("engine_tenant_served", labels);
    }
    result.tenant_served[scenario.tenant] = served;
  }
  result.drops = metrics.ValueOf("dataplane_drops");
  result.sim_events = sim.events_processed();
  result.metrics_text = metrics.SnapshotText();
  result.metrics_json = metrics.SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// Tenant churn: elastic control plane (DESIGN.md §3f)
// ---------------------------------------------------------------------------

TenantChurnResult RunTenantChurn(const CostModel& cost, const TenantChurnOptions& options) {
  constexpr TenantId kChurnTenantBase = 10;
  constexpr FunctionId kClientFnBase = 10000;
  constexpr FunctionId kServerFnBase = 20000;

  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();

  NadinoDataPlane::Options dp_options;
  dp_options.connect_policy = options.policy;
  dp_options.establish_batch = options.establish_batch;
  dp_options.prewarm_connections = options.prewarm_connections;
  dp_options.instrument_control_plane = true;
  // Small per-tenant pools: hundreds of tenants are resident at once, and the
  // churn traffic is a narrow closed-loop echo, not a bandwidth test.
  dp_options.initial_recv_buffers = 8;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  dataplane.AddWorkerNode(cluster.worker(0));
  dataplane.AddWorkerNode(cluster.worker(1));
  dataplane.Start();

  ColdStartManager::Options cold_options;
  cold_options.keep_warm_timeout = options.keep_warm_timeout;
  cold_options.sweep_period = options.sweep_period;
  ColdStartManager coldstart(cluster.env(), cold_options);

  struct ChurnTenant {
    std::unique_ptr<FunctionRuntime> client;
    std::unique_ptr<FunctionRuntime> server;
    std::unique_ptr<TenantEchoLoad> load;
  };
  std::vector<std::unique_ptr<ChurnTenant>> slots(static_cast<size_t>(options.tenants));
  std::map<FunctionId, TenantId> server_tenants;
  TenantChurnResult result;
  LatencyHistogram ttfb;

  // Instance retirement is the departure signal: once the sweeper retires a
  // tenant's (idle) server, the tenant's QPs on every node are destroyed and
  // their RNIC context reclaimed.
  coldstart.SetRetireHook([&](FunctionId fn) {
    const auto it = server_tenants.find(fn);
    if (it == server_tenants.end()) {
      return;
    }
    const TenantId tenant = it->second;
    server_tenants.erase(it);
    ++result.tenants_departed;
    dataplane.DetachTenant(tenant);
  });

  // Pre-generated Poisson schedule: equal seeds replay identical churn.
  Rng rng(options.seed);
  SimTime next_arrival = 0;
  for (int i = 0; i < options.tenants; ++i) {
    next_arrival += static_cast<SimTime>(
        rng.Exponential(static_cast<double>(options.mean_interarrival)));
    const SimDuration lifetime = std::max<SimDuration>(
        static_cast<SimDuration>(rng.Exponential(static_cast<double>(options.mean_lifetime))),
        5 * kMillisecond);
    const SimTime arrival = next_arrival;
    if (arrival >= options.duration) {
      break;
    }
    sim.Schedule(arrival, [&, i, arrival, lifetime]() {
      const TenantId tenant = kChurnTenantBase + static_cast<TenantId>(i);
      cluster.CreateTenantPools(tenant, 32, 2048);
      // Eager: all-pairs prewarm now; traffic is gated on the returned setup
      // latency. Lazy: returns 0, the first send pays the handshake inline.
      const SimDuration setup = dataplane.AttachTenant(tenant, 1);
      auto slot = std::make_unique<ChurnTenant>();
      slot->client = std::make_unique<FunctionRuntime>(
          kClientFnBase + static_cast<FunctionId>(i), tenant, "client", cluster.worker(0),
          cluster.worker(0)->AllocateCore(),
          cluster.worker(0)->tenants().PoolOfTenant(tenant));
      slot->server = std::make_unique<FunctionRuntime>(
          kServerFnBase + static_cast<FunctionId>(i), tenant, "server", cluster.worker(1),
          cluster.worker(1)->AllocateCore(),
          cluster.worker(1)->tenants().PoolOfTenant(tenant));
      dataplane.RegisterFunction(slot->client.get());
      dataplane.RegisterFunction(slot->server.get());
      TenantEchoLoad::Options load_options;
      load_options.payload_bytes = options.payload;
      load_options.window = options.window;
      slot->load = std::make_unique<TenantEchoLoad>(cluster.env(), &dataplane,
                                                    slot->client.get(), slot->server.get(),
                                                    load_options);
      // Wrap the server AFTER the echo load installed its handler, then
      // prewarm the instance: TTFB isolates the control plane, not the
      // container boot, and the keep-warm clock starts ticking.
      coldstart.Manage(slot->server.get());
      coldstart.Prewarm(slot->server->id());
      server_tenants[slot->server->id()] = tenant;
      slot->load->SetOnFirstResponse([&, arrival]() {
        ttfb.Record(sim.now() - arrival);
        ++result.tenants_first_byte;
      });
      slot->load->ScheduleActive(sim.now() + setup, arrival + lifetime);
      ++result.tenants_arrived;
      slots[static_cast<size_t>(i)] = std::move(slot);
    });
  }

  sim.RunFor(options.duration);

  for (const auto& slot : slots) {
    if (slot != nullptr && slot->load != nullptr) {
      result.completed += slot->load->completed();
    }
  }
  result.ttfb_mean_ms = ttfb.MeanUs() / 1000.0;
  result.ttfb_p99_ms = static_cast<double>(ttfb.Percentile(0.99)) / kMillisecond;
  for (int node = 0; node < 2; ++node) {
    if (const ConnectionService* service = cluster.worker(node)->connections_or_null()) {
      const ConnectionService::Stats stats = service->stats();
      result.setup_verbs += stats.create_verbs + stats.modify_verbs;
      result.destroy_verbs += stats.destroy_verbs;
      result.connects += stats.connects;
      result.establishes += stats.establishes;
      result.destroys += stats.destroys;
    }
  }
  if (result.completed > 0) {
    result.verbs_per_invocation =
        static_cast<double>(result.setup_verbs + result.destroy_verbs) /
        static_cast<double>(result.completed);
  }
  result.sim_events = sim.events_processed();
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 16 / Table 2: Online Boutique
// ---------------------------------------------------------------------------

std::string SystemName(SystemUnderTest system) {
  switch (system) {
    case SystemUnderTest::kNadinoDne:
      return "NADINO (DNE)";
    case SystemUnderTest::kNadinoCne:
      return "NADINO (CNE)";
    case SystemUnderTest::kFuyaoF:
      return "FUYAO-F";
    case SystemUnderTest::kFuyaoK:
      return "FUYAO-K";
    case SystemUnderTest::kJunction:
      return "Junction";
    case SystemUnderTest::kSpright:
      return "SPRIGHT";
    case SystemUnderTest::kNightcore:
      return "NightCore";
  }
  return "unknown";
}

BoutiqueResult RunBoutique(const CostModel& cost, const BoutiqueOptions& options) {
  const bool is_nadino = options.system == SystemUnderTest::kNadinoDne ||
                         options.system == SystemUnderTest::kNadinoCne;
  const bool single_node = options.system == SystemUnderTest::kNightcore;

  ClusterConfig config;
  config.worker_nodes = single_node ? 1 : 2;
  config.host_cores_per_node = single_node ? 14 : 16;
  config.with_ingress_node = true;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  const BoutiqueSpec spec = BuildBoutiqueSpec(kEchoTenant);
  cluster.CreateTenantPools(spec.tenant);
  Simulator& sim = cluster.sim();

  std::unique_ptr<NadinoDataPlane> nadino_dp;
  std::unique_ptr<BaselineDataPlane> baseline_dp;
  DataPlane* dataplane = nullptr;
  std::vector<NetworkEngine*> engines;

  if (is_nadino) {
    NadinoDataPlane::Options dp_options;
    dp_options.engine_kind = options.system == SystemUnderTest::kNadinoDne
                                 ? NetworkEngine::Kind::kDne
                                 : NetworkEngine::Kind::kCne;
    nadino_dp = std::make_unique<NadinoDataPlane>(cluster.env(), &cluster.routing(), dp_options);
    for (int i = 0; i < cluster.worker_count(); ++i) {
      engines.push_back(nadino_dp->AddWorkerNode(cluster.worker(i)));
    }
    nadino_dp->AttachTenant(spec.tenant, 1);
    nadino_dp->Start();
    dataplane = nadino_dp.get();
  } else {
    BaselineSystem system = BaselineSystem::kSpright;
    switch (options.system) {
      case SystemUnderTest::kSpright:
        system = BaselineSystem::kSpright;
        break;
      case SystemUnderTest::kNightcore:
        system = BaselineSystem::kNightcore;
        break;
      case SystemUnderTest::kFuyaoF:
      case SystemUnderTest::kFuyaoK:
        system = BaselineSystem::kFuyao;
        break;
      case SystemUnderTest::kJunction:
        system = BaselineSystem::kJunction;
        break;
      default:
        break;
    }
    baseline_dp = std::make_unique<BaselineDataPlane>(cluster.env(), &cluster.routing(), system,
                                                      spec.tenant);
    for (int i = 0; i < cluster.worker_count(); ++i) {
      baseline_dp->AddWorkerNode(cluster.worker(i));
    }
    baseline_dp->Start();
    dataplane = baseline_dp.get();
  }

  ChainExecutor executor(cluster.env(), dataplane);
  for (const ChainSpec& chain : spec.chains) {
    executor.RegisterChain(chain);
  }
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  for (const BoutiqueFunction& bf : spec.functions) {
    Node* node = cluster.worker(single_node ? 0 : bf.placement_group);
    auto fn = std::make_unique<FunctionRuntime>(bf.id, spec.tenant, bf.name, node,
                                                node->AllocateCore(),
                                                node->tenants().PoolOfTenant(spec.tenant));
    dataplane->RegisterFunction(fn.get());
    executor.AttachFunction(fn.get());
    functions.push_back(std::move(fn));
  }

  IngressGateway::Options gw_options;
  switch (options.system) {
    case SystemUnderTest::kNadinoDne:
    case SystemUnderTest::kNadinoCne:
      gw_options.mode = IngressMode::kNadino;
      break;
    case SystemUnderTest::kFuyaoK:
    case SystemUnderTest::kNightcore:
      gw_options.mode = IngressMode::kKIngress;
      break;
    default:
      gw_options.mode = IngressMode::kFIngress;
      break;
  }
  gw_options.tenant = spec.tenant;
  // One gateway worker core for every system, matching the one-core ingress
  // assignment of section 4.1.3.
  gw_options.initial_workers = 1;
  if (options.system == SystemUnderTest::kNightcore) {
    // NightCore ships its own kernel-based gateway; the worker-node side also
    // terminates with the kernel stack.
    gw_options.worker_stack = TcpStackKind::kKernel;
  }
  IngressGateway gateway(cluster.env(), cluster.ingress(), &cluster.routing(), dataplane,
                         &executor, gw_options);
  gateway.AddRoute("/home", kHomeQueryChain, kFrontend);
  gateway.AddRoute("/cart", kViewCartChain, kFrontend);
  gateway.AddRoute("/product", kProductQueryChain, kFrontend);
  gateway.AddRoute("/checkout", kCheckoutChain, kFrontend);
  if (gw_options.mode == IngressMode::kNadino) {
    gateway.ConnectWorkerEngines(engines);
  } else {
    std::vector<Node*> worker_nodes;
    for (int i = 0; i < cluster.worker_count(); ++i) {
      worker_nodes.push_back(cluster.worker(i));
    }
    gateway.ConnectWorkerPortals(worker_nodes);
  }

  std::string path = "/home";
  if (options.chain == kViewCartChain) {
    path = "/cart";
  } else if (options.chain == kProductQueryChain) {
    path = "/product";
  } else if (options.chain == kCheckoutChain) {
    path = "/checkout";
  }
  const ChainSpec* chain_spec = nullptr;
  for (const ChainSpec& c : spec.chains) {
    if (c.id == options.chain) {
      chain_spec = &c;
    }
  }
  assert(chain_spec != nullptr);

  ClosedLoopClients::Options client_options;
  client_options.num_clients = options.clients;
  client_options.path = path;
  client_options.payload_bytes = chain_spec->entry_request_payload;
  ClosedLoopClients clients(cluster.env(), &gateway, client_options);
  clients.Start();

  sim.RunFor(options.warmup);
  clients.mutable_latencies().Reset();
  for (int i = 0; i < cluster.worker_count(); ++i) {
    cluster.worker(i)->ResetUtilizationWindows();
  }
  const uint64_t before = clients.completed();
  const SimTime start = sim.now();
  sim.RunFor(options.duration);

  BoutiqueResult result;
  result.rps = static_cast<double>(clients.completed() - before) / ToSeconds(sim.now() - start);
  result.mean_latency_ms = clients.latencies().MeanUs() / 1000.0;
  result.p99_latency_ms = ToUs(clients.latencies().Percentile(0.99)) / 1000.0;
  result.errors = executor.errors() + dataplane->stats().drops;
  if (is_nadino) {
    double engine_cores = 0.0;
    double dpu_cores = 0.0;
    for (NetworkEngine* engine : engines) {
      if (engine->kind() == NetworkEngine::Kind::kDne) {
        dpu_cores += engine->worker_core()->WindowUtilization();
        dpu_cores += engine->node()->dpu()->core(1).WindowUtilization();
      } else {
        engine_cores += engine->worker_core()->WindowUtilization();
      }
    }
    result.dataplane_cpu_cores = engine_cores;
    result.dpu_cores = dpu_cores;
  } else {
    result.dataplane_cpu_cores =
        baseline_dp->EngineUtilizationCores() + gateway.PortalUtilizationCores();
    result.dpu_cores = 0.0;
  }
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// N-node scaling (DESIGN.md §3e)
// ---------------------------------------------------------------------------

namespace {

// Per-tenant pipeline: fn_i calls fn_{i+1}; the last stage is the leaf.
ChainSpec BuildPipelineChain(TenantId tenant, FunctionId base, int stages,
                             uint32_t payload) {
  ChainSpec spec;
  spec.id = static_cast<ChainId>(tenant);
  spec.tenant = tenant;
  spec.name = "pipeline_" + std::to_string(tenant);
  spec.entry = base;
  spec.entry_request_payload = payload;
  for (int s = 0; s < stages; ++s) {
    FunctionBehavior behavior;
    behavior.compute = 5 * kMicrosecond;
    behavior.response_payload = payload;
    if (s + 1 < stages) {
      behavior.calls.push_back(CallSpec{base + static_cast<FunctionId>(s) + 1, payload});
    }
    spec.behaviors[base + static_cast<FunctionId>(s)] = behavior;
  }
  return spec;
}

}  // namespace

NodeScaleResult RunNodeScale(const CostModel& cost, const NodeScaleOptions& options) {
  ClusterConfig config;
  config.worker_nodes = options.nodes;
  config.with_ingress_node = false;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();

  PlacementOptions placement;
  placement.spread = options.spread;
  placement.utilization_weights = options.utilization_weights;
  placement.rebalance = options.rebalance;
  placement.rebalancer.period = options.rebalance_period;
  cluster.EnablePlacement(placement);

  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), {});
  std::vector<NodeId> worker_ids;
  std::map<NodeId, Node*> node_by_id;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    Node* node = cluster.worker(i);
    dataplane.AddWorkerNode(node);
    worker_ids.push_back(node->id());
    node_by_id[node->id()] = node;
  }

  std::vector<ChainSpec> chains;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = static_cast<TenantId>(t + 1);
    cluster.CreateTenantPools(tenant, 4096, 8192);
    dataplane.AttachTenant(tenant, 1);
    chains.push_back(BuildPipelineChain(tenant, 1000 + static_cast<FunctionId>(t) * 100,
                                        options.stages, options.payload));
  }
  dataplane.Start();

  ChainExecutor executor(cluster.env(), &dataplane);
  NodeScaleResult result;
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  std::vector<std::unique_ptr<FunctionRuntime>> clients;
  const int replicas = std::max(1, std::min(options.replicas, options.nodes));
  for (const ChainSpec& spec : chains) {
    executor.RegisterChain(spec);
    // Locality-aware primaries via the ChainPlacer, then `replicas - 1`
    // additional placements per stage on the following nodes (dense wrap) so
    // the spreader has live alternatives everywhere.
    const std::map<FunctionId, NodeId> assignment =
        ChainPlacer::PlaceChain(spec, worker_ids, options.capacity_per_node);
    result.chain_crossing_score += ChainPlacer::ScoreAssignment(spec, assignment);
    for (const auto& [fn_id, primary] : assignment) {
      const size_t primary_pos = static_cast<size_t>(
          std::find(worker_ids.begin(), worker_ids.end(), primary) - worker_ids.begin());
      for (int r = 0; r < replicas; ++r) {
        Node* node = node_by_id[worker_ids[(primary_pos + static_cast<size_t>(r)) %
                                           worker_ids.size()]];
        functions.push_back(std::make_unique<FunctionRuntime>(
            fn_id, spec.tenant, spec.name + "_fn" + std::to_string(fn_id), node,
            node->AllocateCore(), node->tenants().PoolOfTenant(spec.tenant)));
        dataplane.RegisterFunction(functions.back().get());
        executor.AttachFunction(functions.back().get());
      }
    }
  }

  // One scheduled client per tenant, colocated with its entry's primary.
  LatencyHistogram latencies;
  std::vector<std::unique_ptr<RequestClient>> requesters;
  for (const ChainSpec& spec : chains) {
    Node* home = node_by_id[cluster.routing().NodeOf(spec.entry)];
    clients.push_back(std::make_unique<FunctionRuntime>(
        900 + static_cast<FunctionId>(spec.tenant), spec.tenant, "client", home,
        home->AllocateCore(), home->tenants().PoolOfTenant(spec.tenant)));
    dataplane.RegisterFunction(clients.back().get());
    requesters.push_back(std::make_unique<RequestClient>(
        cluster.env(), &dataplane, clients.back().get(),
        RequestClient::Route{spec.id, spec.entry, options.payload},
        [&](SimTime issued_at) {
          latencies.Record(cluster.env().now() - issued_at);
          ++result.completed;
        },
        [&executor]() { return executor.NextRequestId(); }));
  }
  for (size_t c = 0; c < requesters.size(); ++c) {
    RequestClient* requester = requesters[c].get();
    for (int i = 0; i < options.requests_per_tenant; ++i) {
      // Tenants stagger by a fraction of the spacing so sends interleave
      // deterministically instead of colliding on the same tick.
      const SimTime at = static_cast<SimTime>(i) * options.spacing +
                         static_cast<SimTime>(c) * (options.spacing / 7 + 1);
      sim.ScheduleAt(at, [&result, requester]() {
        if (!requester->Issue()) {
          ++result.errors;
        }
      });
    }
  }

  sim.RunFor(options.duration);

  result.errors += executor.errors();
  result.migrations = cluster.placement()->migrations();
  result.rps = static_cast<double>(result.completed) / ToSeconds(options.duration);
  result.mean_latency_us = latencies.MeanUs();
  result.p99_latency_us = ToUs(latencies.Percentile(0.99));
  for (const ChainSpec& spec : chains) {
    for (const NodeId node : worker_ids) {
      const uint64_t count = cluster.routing().ResolvedCount(spec.entry, node);
      if (count > 0) {
        result.entry_resolved[node] += count;
      }
    }
    // Worst per-function imbalance over every multi-replica stage that saw
    // meaningful traffic.
    for (const auto& [fn_id, behavior] : spec.behaviors) {
      (void)behavior;
      const std::vector<NodeId>* placements = cluster.routing().PlacementsOf(fn_id);
      if (placements == nullptr || placements->size() < 2) {
        continue;
      }
      uint64_t lo = UINT64_MAX, hi = 0, total = 0;
      for (const NodeId node : *placements) {
        const uint64_t count = cluster.routing().ResolvedCount(fn_id, node);
        lo = std::min(lo, count);
        hi = std::max(hi, count);
        total += count;
      }
      if (total >= 100) {
        const double ratio = static_cast<double>(hi) / static_cast<double>(std::max<uint64_t>(lo, 1));
        result.replica_skew = std::max(result.replica_skew, ratio);
      }
    }
  }
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// NIC-offloaded chain dispatch (DESIGN.md §3i)
// ---------------------------------------------------------------------------

ChainOffloadResult RunChainOffload(const CostModel& cost, const ChainOffloadOptions& options) {
  ClusterConfig config;
  config.worker_nodes = options.nodes;
  config.with_ingress_node = false;
  config.seed = options.seed;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();
  for (const FaultSpec& spec : options.faults) {
    cluster.env().faults().Install(spec);
  }

  NadinoDataPlane::Options dp_options;
  dp_options.comch_variant = options.comch_variant;
  dp_options.offload_chains = options.offload;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  for (int i = 0; i < options.nodes; ++i) {
    dataplane.AddWorkerNode(cluster.worker(i));
  }

  std::vector<ChainSpec> chains;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = static_cast<TenantId>(t + 1);
    cluster.CreateTenantPools(tenant, 4096, 8192);
    dataplane.AttachTenant(tenant, 1);
    cluster.env().slos().Register(tenant, SloTarget{});
    chains.push_back(BuildPipelineChain(tenant, 1000 + static_cast<FunctionId>(t) * 100,
                                        options.stages, options.payload));
  }
  dataplane.Start();

  ChainExecutor executor(cluster.env(), &dataplane);
  ChainOffloadResult result;
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  std::vector<std::unique_ptr<FunctionRuntime>> clients;
  for (int t = 0; t < options.tenants; ++t) {
    const ChainSpec& spec = chains[static_cast<size_t>(t)];
    executor.RegisterChain(spec);
    // Stripe stage i of tenant t onto node (t + i) % nodes: every hop and the
    // final response cross the wire, which is the regime NIC offload targets
    // (an intra-node hop is an IPC delivery with nothing to offload).
    int stage = 0;
    for (const auto& [fn_id, behavior] : spec.behaviors) {
      (void)behavior;
      Node* node = cluster.worker((t + stage) % options.nodes);
      functions.push_back(std::make_unique<FunctionRuntime>(
          fn_id, spec.tenant, spec.name + "_fn" + std::to_string(fn_id), node,
          node->AllocateCore(), node->tenants().PoolOfTenant(spec.tenant)));
      dataplane.RegisterFunction(functions.back().get());
      executor.AttachFunction(functions.back().get());
      ++stage;
    }
  }
  if (options.offload) {
    for (const ChainSpec& spec : chains) {
      result.hops_installed += executor.OffloadChain(spec.id);
    }
  }

  LatencyHistogram latencies;
  std::vector<std::unique_ptr<RequestClient>> requesters;
  for (const ChainSpec& spec : chains) {
    Node* home = nullptr;
    for (int i = 0; i < options.nodes; ++i) {
      if (cluster.worker(i)->id() == cluster.routing().NodeOf(spec.entry)) {
        home = cluster.worker(i);
        break;
      }
    }
    clients.push_back(std::make_unique<FunctionRuntime>(
        900 + static_cast<FunctionId>(spec.tenant), spec.tenant, "client", home,
        home->AllocateCore(), home->tenants().PoolOfTenant(spec.tenant)));
    dataplane.RegisterFunction(clients.back().get());
    const TenantId tenant = spec.tenant;
    requesters.push_back(std::make_unique<RequestClient>(
        cluster.env(), &dataplane, clients.back().get(),
        RequestClient::Route{spec.id, spec.entry, options.payload},
        [&, tenant](SimTime issued_at) {
          latencies.Record(cluster.env().now() - issued_at);
          ++result.completed;
          ++result.tenant_completed[tenant];
        },
        [&executor]() { return executor.NextRequestId(); }));
  }
  for (size_t c = 0; c < requesters.size(); ++c) {
    RequestClient* requester = requesters[c].get();
    for (int i = 0; i < options.requests_per_tenant; ++i) {
      const SimTime at = static_cast<SimTime>(i) * options.spacing +
                         static_cast<SimTime>(c) * (options.spacing / 7 + 1);
      sim.ScheduleAt(at, [&result, requester]() {
        if (!requester->Issue()) {
          ++result.errors;
        }
      });
    }
  }

  sim.RunFor(options.duration);

  result.errors += executor.errors();
  result.software_requests = executor.requests_handled();
  for (const auto& requester : requesters) {
    result.unmatched_responses += requester->unmatched_responses();
  }
  for (int i = 0; i < options.nodes; ++i) {
    const NodeId node = cluster.worker(i)->id();
    if (WrProgramEngine* programs = dataplane.wr_programs(node)) {
      const WrProgramEngine::Stats stats = programs->stats();
      result.offloaded_hops += stats.offloaded_hops;
      result.offloaded_responses += stats.responses;
      result.fallbacks += stats.fallbacks;
      result.wrprog_send_errors += stats.send_errors;
    }
    for (int t = 0; t < options.tenants; ++t) {
      const auto tenant = static_cast<TenantId>(t + 1);
      BufferPool* pool = cluster.worker(i)->tenants().PoolOfTenant(tenant);
      if (pool != nullptr) {
        result.buffers_in_use_at_end += pool->in_use();
      }
      // The standing posted-RECV credits are RNIC-owned at quiesce by design;
      // only what is out BEYOND them is a leak.
      const size_t posted = cluster.worker(i)->rnic().SrqOfTenant(tenant).depth();
      result.buffers_in_use_at_end -= std::min<uint64_t>(result.buffers_in_use_at_end, posted);
    }
  }
  result.rps = static_cast<double>(result.completed) / ToSeconds(options.duration);
  result.mean_latency_us = latencies.MeanUs();
  result.p99_latency_us = ToUs(latencies.Percentile(0.99));
  result.per_hop_latency_us =
      result.mean_latency_us / static_cast<double>(options.stages + 1);
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

// ---------------------------------------------------------------------------
// Open-loop scale (DESIGN.md §3g)
// ---------------------------------------------------------------------------

OpenLoopScaleResult RunOpenLoopScale(const CostModel& cost, const OpenLoopScaleOptions& options) {
  constexpr TenantId kTenantBase = 1;

  ClusterConfig config;
  config.worker_nodes = options.nodes;
  config.with_ingress_node = false;
  config.seed = options.seed;
  config.event_shards = options.event_shards;
  Cluster cluster(&cost, config);
  Simulator& sim = cluster.sim();
  for (const FaultSpec& spec : options.faults) {
    cluster.env().faults().Install(spec);
  }

  NadinoDataPlane::Options dp_options;
  dp_options.extra_engine_cost = options.extra_engine_cost;
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(), dp_options);
  for (int i = 0; i < options.nodes; ++i) {
    dataplane.AddWorkerNode(cluster.worker(i));
  }

  // Buffer pools are sized to the in-flight cap, not to the user count: the
  // open loop sheds what it cannot hold, so a 100x offered-load increase
  // leaves memory flat. Each node's engine pre-posts its RECV ring from the
  // same pool, so that depth is headroom on top of the cap — without it a
  // small cap leaves zero send buffers and every arrival sheds.
  const size_t pool_buffers = static_cast<size_t>(options.max_in_flight_per_tenant) +
                              static_cast<size_t>(dp_options.initial_recv_buffers) + 64;
  const size_t pool_buffer_size = std::max<size_t>(1024, options.payload + 256u);
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = kTenantBase + static_cast<TenantId>(t);
    cluster.CreateTenantPools(tenant, pool_buffers, pool_buffer_size);
    dataplane.AttachTenant(tenant, 1);
  }
  dataplane.Start();

  // Aggregate the users into per-tenant rate curves: one compressed diurnal
  // cycle over the horizon (mean multiplier 1.0, trough 0.5, peak 1.5) and an
  // optional flash crowd at mid-run.
  const double total_rps = static_cast<double>(options.users) * options.rps_per_user;
  const double tenant_rps = total_rps / static_cast<double>(std::max(options.tenants, 1));

  OpenLoopSource::Options source_options;
  source_options.tick = options.tick;
  source_options.horizon = options.horizon;
  OpenLoopSource source(cluster.env(), source_options);

  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  std::vector<std::unique_ptr<RequestClient>> requesters;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = kTenantBase + static_cast<TenantId>(t);
    const int client_node = t % options.nodes;
    const int server_node = (t + 1) % options.nodes;
    const FunctionId client_fn = 100 + static_cast<FunctionId>(t);
    const FunctionId server_fn = 200 + static_cast<FunctionId>(t);
    auto client = std::make_unique<FunctionRuntime>(
        client_fn, tenant, "ol-client", cluster.worker(client_node),
        cluster.worker(client_node)->AllocateCore(),
        cluster.worker(client_node)->tenants().PoolOfTenant(tenant));
    auto server = std::make_unique<FunctionRuntime>(
        server_fn, tenant, "ol-server", cluster.worker(server_node),
        cluster.worker(server_node)->AllocateCore(),
        cluster.worker(server_node)->tenants().PoolOfTenant(tenant));
    dataplane.RegisterFunction(client.get());
    dataplane.RegisterFunction(server.get());

    OpenLoopSource::TenantOptions tenant_options;
    if (options.diurnal) {
      tenant_options.schedule =
          MakeDiurnalSchedule(tenant_rps, options.horizon, /*steps=*/24,
                              /*trough_multiplier=*/0.5, /*peak_multiplier=*/1.5);
    } else {
      tenant_options.schedule.base_rps = tenant_rps;
    }
    if (options.flash_crowd_fraction > 0.0) {
      FlashBurst burst;
      burst.start = options.horizon / 2;
      burst.duration = options.horizon / 10;
      burst.add_rps = options.flash_crowd_fraction * tenant_rps;
      tenant_options.schedule.bursts.push_back(burst);
    }
    // Per-node admission: the tenant's arrivals live on its client node's
    // event-queue shard.
    tenant_options.shard = static_cast<uint32_t>(client_node);
    tenant_options.max_in_flight = options.max_in_flight_per_tenant;
    const uint32_t index = source.AddTenant(tenant_options);  // == t by construction.

    requesters.push_back(std::make_unique<RequestClient>(
        cluster.env(), &dataplane, client.get(),
        RequestClient::Route{/*chain=*/0, server_fn, options.payload},
        [&source, index](SimTime issued_at) { source.OnComplete(index, issued_at); }));
    ServeEcho(&dataplane, server.get());
    functions.push_back(std::move(client));
    functions.push_back(std::move(server));
  }
  // A refused issue is shed: the source counts it, nothing stays pending.
  source.SetDispatch([&requesters](uint32_t tenant, SimTime /*issued_at*/) {
    return requesters[tenant]->Issue();
  });

  PeriodicSampler sampler(cluster.env(), options.sample_period);
  sampler.AddRate(&source.rate());
  sampler.Start();
  source.Start();
  sim.RunUntil(options.horizon + options.drain);
  sampler.Stop();

  OpenLoopScaleResult result;
  result.offered = source.offered();
  result.dispatched = source.dispatched();
  result.completed = source.completed();
  result.shed = source.shed();
  result.in_flight_peak = source.in_flight_peak();
  const double horizon_seconds = ToSeconds(options.horizon);
  result.offered_rps =
      horizon_seconds > 0 ? static_cast<double>(result.offered) / horizon_seconds : 0.0;
  result.goodput_rps =
      horizon_seconds > 0 ? static_cast<double>(result.completed) / horizon_seconds : 0.0;
  result.mean_latency_us = source.latencies().MeanUs();
  result.p99_latency_us = ToUs(source.latencies().Percentile(0.99));
  for (const auto& requester : requesters) {
    result.unmatched_responses += requester->unmatched_responses();
    result.pending_at_end += requester->pending();
  }
  result.slab_slots = sim.slab_slots();
  result.sim_events = sim.events_processed();
  result.metrics_text = cluster.metrics().SnapshotText();
  result.metrics_json = cluster.metrics().SnapshotJson();
  return result;
}

}  // namespace nadino
