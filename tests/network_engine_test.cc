// Tests for the DNE/CNE network engine: tenant attach via the mmap handshake,
// engine-endpoint transfers, receive-buffer replenishment, on-path staging,
// and ownership discipline along the RX/TX paths.

#include "src/dne/network_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"

namespace nadino {
namespace {

class NetworkEngineTest : public ::testing::Test {
 protected:
  NetworkEngineTest() {
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(1, 512, 8192);
  }

  NetworkEngine* MakeEngine(int node, NetworkEngine::Config config = {}) {
    config.engine_id = 1000 + static_cast<uint32_t>(node);
    engines_.push_back(std::make_unique<NetworkEngine>(cluster_->env(), cluster_->worker(node),
                                                       &cluster_->routing(), config));
    return engines_.back().get();
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<NetworkEngine>> engines_;
};

TEST_F(NetworkEngineTest, AttachTenantRegistersPoolViaMmapHandshake) {
  NetworkEngine* engine = MakeEngine(0);
  EXPECT_TRUE(engine->AttachTenant(1, 4));
  // The pool ended up registered with the node's RNIC (local access only —
  // NADINO pools are never remote-writable).
  BufferPool* pool = cluster_->worker(0)->tenants().PoolOfTenant(1);
  EXPECT_TRUE(cluster_->worker(0)->rnic().mr_table().IsRegistered(pool->id()));
  EXPECT_EQ(cluster_->worker(0)->rnic().mr_table().CheckAccess(pool->id(), kMrRemoteWrite),
            nullptr);
}

TEST_F(NetworkEngineTest, AttachUnknownTenantFails) {
  NetworkEngine* engine = MakeEngine(0);
  EXPECT_FALSE(engine->AttachTenant(77, 1));
}

TEST_F(NetworkEngineTest, AttachPostsInitialReceiveBuffers) {
  NetworkEngine::Config config;
  config.initial_recv_buffers = 16;
  NetworkEngine* engine = MakeEngine(0, config);
  ASSERT_TRUE(engine->AttachTenant(1, 1));
  EXPECT_EQ(cluster_->worker(0)->rnic().SrqOfTenant(1).depth(), 16u);
  EXPECT_EQ(engine->rbr().outstanding(), 16u);
  // Those buffers are owned by the RNIC now.
  BufferPool* pool = cluster_->worker(0)->tenants().PoolOfTenant(1);
  EXPECT_EQ(pool->in_use(), 16u);
}

TEST_F(NetworkEngineTest, EngineEndpointEchoAcrossNodes) {
  NetworkEngine* a = MakeEngine(0);
  NetworkEngine* b = MakeEngine(1);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->PrewarmPeer(a, 1, 2);
  a->Start();
  b->Start();
  cluster_->routing().Place(11, cluster_->worker(0)->id());
  cluster_->routing().Place(12, cluster_->worker(1)->id());

  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  uint64_t echo_checksum = 0;
  bool round_trip_done = false;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    MessageHeader reply = *header;
    reply.src = 12;
    reply.dst = 11;
    reply.flags = MessageHeader::kFlagResponse;
    RewriteHeader(buffer, reply);
    b->SendFromEngine(1, buffer);
  });
  a->SetEngineEndpoint(11, [&](Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    // The message digest covers the (rewritten) header too, so compare the
    // payload bytes themselves across the round trip.
    echo_checksum = Checksum(buffer->payload().subspan(MessageHeader::kWireSize));
    round_trip_done = true;
    pool_a->Put(buffer, a->owner_id());
  });

  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 2048;
  header.request_id = 99;
  ASSERT_TRUE(WriteMessage(out, header));
  const uint64_t sent_checksum = Checksum(out->payload().subspan(MessageHeader::kWireSize));
  ASSERT_TRUE(a->SendFromEngine(1, out));
  cluster_->sim().RunFor(10 * kMillisecond);

  EXPECT_TRUE(round_trip_done);
  EXPECT_EQ(echo_checksum, sent_checksum);  // Payload intact end to end.
  EXPECT_EQ(a->stats().tx_messages, 1u);
  EXPECT_EQ(a->stats().rx_messages, 1u);
  EXPECT_EQ(b->stats().rx_messages, 1u);
  EXPECT_EQ(a->stats().unroutable, 0u);
}

TEST_F(NetworkEngineTest, ReplenisherKeepsSrqFedUnderTraffic) {
  NetworkEngine::Config config;
  config.initial_recv_buffers = 8;
  NetworkEngine* a = MakeEngine(0, config);
  NetworkEngine* b = MakeEngine(1, config);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->PrewarmPeer(a, 1, 2);
  a->Start();
  b->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool_b = cluster_->worker(1)->tenants().PoolOfTenant(1);
  int received = 0;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    ++received;
    pool_b->Put(buffer, b->owner_id());
  });
  // Send 3x the initial posting; without replenishment this would RNR-fail.
  for (int i = 0; i < 24; ++i) {
    Buffer* out = pool_a->Get(a->owner_id());
    ASSERT_NE(out, nullptr);
    MessageHeader header;
    header.src = 11;
    header.dst = 12;
    header.payload_length = 64;
    header.request_id = static_cast<uint64_t>(i);
    WriteMessage(out, header);
    cluster_->sim().Schedule(i * 50 * kMicrosecond, [a, out]() { a->SendFromEngine(1, out); });
  }
  cluster_->sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(received, 24);
  EXPECT_EQ(cluster_->worker(1)->rnic().stats().rnr_failures, 0u);
  // All of A's send buffers were recycled after completion.
  EXPECT_EQ(pool_a->in_use(), static_cast<size_t>(config.initial_recv_buffers));
}

TEST_F(NetworkEngineTest, OnPathModeStagesThroughSocDma) {
  NetworkEngine::Config on_path_config;
  on_path_config.on_path = true;
  NetworkEngine* a = MakeEngine(0, on_path_config);
  NetworkEngine* b = MakeEngine(1, on_path_config);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->Start();
  a->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool_b = cluster_->worker(1)->tenants().PoolOfTenant(1);
  bool delivered = false;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    delivered = true;
    pool_b->Put(buffer, b->owner_id());
  });
  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 1024;
  WriteMessage(out, header);
  a->SendFromEngine(1, out);
  cluster_->sim().RunFor(5 * kMillisecond);
  EXPECT_TRUE(delivered);
  // TX staged on the sender's SoC DMA, RX on the receiver's.
  EXPECT_EQ(cluster_->worker(0)->dpu()->soc_dma_transfers(), 1u);
  EXPECT_EQ(cluster_->worker(1)->dpu()->soc_dma_transfers(), 1u);
}

TEST_F(NetworkEngineTest, UnroutableDestinationRecyclesBuffer) {
  NetworkEngine* a = MakeEngine(0);
  a->AttachTenant(1, 1);
  a->Start();
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  const size_t in_use_before = pool_a->in_use();
  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 999;  // Never placed.
  header.payload_length = 64;
  WriteMessage(out, header);
  a->SendFromEngine(1, out);
  cluster_->sim().RunFor(kMillisecond);
  EXPECT_GE(a->stats().unroutable, 1u);
  EXPECT_EQ(pool_a->in_use(), in_use_before);  // Recycled, not leaked.
}

TEST_F(NetworkEngineTest, CneRunsOnHostCoreWithoutDpu) {
  NetworkEngine::Config config;
  config.kind = NetworkEngine::Kind::kCne;
  NetworkEngine* engine = MakeEngine(0, config);
  EXPECT_TRUE(engine->AttachTenant(1, 1));
  EXPECT_EQ(engine->comch(), nullptr);
  EXPECT_TRUE(engine->worker_core()->pinned());
  // The worker core is one of the node's host cores.
  bool is_host_core = false;
  for (int i = 0; i < cluster_->worker(0)->host_core_count(); ++i) {
    is_host_core |= engine->worker_core() == &cluster_->worker(0)->host_core(i);
  }
  EXPECT_TRUE(is_host_core);
}

TEST_F(NetworkEngineTest, DwrrSchedulerSharesEngineBandwidthByWeight) {
  // Two tenants, weights 3:1, both backlogged at one engine: served counts
  // follow the weights.
  cluster_->CreateTenantPools(2, 512, 8192);
  NetworkEngine* a = MakeEngine(0);
  NetworkEngine* b = MakeEngine(1);
  for (const TenantId tenant : {1u, 2u}) {
    a->AttachTenant(tenant, tenant == 1 ? 3 : 1);
    b->AttachTenant(tenant, tenant == 1 ? 3 : 1);
    a->PrewarmPeer(b, tenant, 2);
  }
  a->Start();
  b->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool1 = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool2 = cluster_->worker(0)->tenants().PoolOfTenant(2);
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    cluster_->worker(1)->tenants().PoolById(buffer->pool)->Put(buffer, b->owner_id());
  });
  // Enqueue 200 messages per tenant back to back (backlog at the scheduler).
  for (int i = 0; i < 200; ++i) {
    for (BufferPool* pool : {pool1, pool2}) {
      Buffer* out = pool->Get(a->owner_id());
      ASSERT_NE(out, nullptr);
      MessageHeader header;
      header.src = 11;
      header.dst = 12;
      header.payload_length = 1024;
      WriteMessage(out, header);
      a->SendFromEngine(pool->tenant(), out);
    }
  }
  // Run briefly — long enough to serve many while both queues stay backlogged.
  cluster_->sim().RunFor(150 * kMicrosecond);
  ASSERT_GT(a->scheduler().pending(), 0u) << "queues drained; shorten the window";
  const uint64_t served1 = a->TenantServed(1);
  const uint64_t served2 = a->TenantServed(2);
  ASSERT_GT(served2, 2u);
  const double ratio = static_cast<double>(served1) / static_cast<double>(served2);
  EXPECT_NEAR(ratio, 3.0, 0.8);
}

// The replenisher visits only tenants with consumed CQEs or carried debt,
// yet posts exactly what a sweep over every tenant would: 64 tenants are
// attached, three carry traffic, and one of those runs its pool dry.
TEST_F(NetworkEngineTest, ReplenishRepostsConsumedCountsAndCarriesDebt) {
  constexpr TenantId kTenants = 64;
  constexpr TenantId kStarved = 50;  // Its receive-side pool has 6 buffers.
  const std::vector<std::pair<TenantId, int>> traffic = {{7, 3}, {21, 2}, {kStarved, 3}};
  for (TenantId t = 2; t <= kTenants; ++t) {
    const size_t receive_buffers = t == kStarved ? 6 : 16;
    cluster_->worker(0)->tenants().CreatePool(t, "tx_" + std::to_string(t), {16, 1024});
    cluster_->worker(1)->tenants().CreatePool(t, "rx_" + std::to_string(t),
                                              {receive_buffers, 1024});
  }
  NetworkEngine::Config config;
  config.initial_recv_buffers = 4;
  NetworkEngine* a = MakeEngine(0, config);
  NetworkEngine* b = MakeEngine(1, config);
  for (TenantId t = 1; t <= kTenants; ++t) {
    ASSERT_TRUE(a->AttachTenant(t, 1));
    ASSERT_TRUE(b->AttachTenant(t, 1));
  }
  Simulator& sim = cluster_->sim();
  ASSERT_EQ(sim.now(), 0);
  a->Start();
  b->Start();  // Ticks at 20, 40, 60, ... us.

  // The starved tenant's endpoint holds its buffers until released.
  std::vector<Buffer*> held;
  BufferPool* starved_pool = cluster_->worker(1)->tenants().PoolOfTenant(kStarved);
  for (const auto& [tenant, messages] : traffic) {
    const FunctionId fn = 100 + tenant;
    cluster_->routing().Place(fn, cluster_->worker(1)->id());
    a->PrewarmPeer(b, tenant, 1);
    BufferPool* rx_pool = cluster_->worker(1)->tenants().PoolOfTenant(tenant);
    b->SetEngineEndpoint(fn, [&held, b, rx_pool, starved = tenant == kStarved](Buffer* buffer) {
      if (starved) {
        held.push_back(buffer);
      } else {
        rx_pool->Put(buffer, b->owner_id());
      }
    });
    BufferPool* tx_pool = cluster_->worker(0)->tenants().PoolOfTenant(tenant);
    for (int i = 0; i < messages; ++i) {
      Buffer* out = tx_pool->Get(a->owner_id());
      ASSERT_NE(out, nullptr);
      MessageHeader header;
      header.src = 1;
      header.dst = fn;
      header.payload_length = 64;
      header.request_id = static_cast<uint64_t>(i);
      ASSERT_TRUE(WriteMessage(out, header));
      sim.ScheduleAt(22 * kMicrosecond, [a, tenant, out]() { a->SendFromEngine(tenant, out); });
    }
  }
  sim.ScheduleAt(70 * kMicrosecond, [&held, b, starved_pool]() {
    for (Buffer* buffer : held) {
      starved_pool->Put(buffer, b->owner_id());
    }
    held.clear();
  });

  RdmaEngine& rnic = cluster_->worker(1)->rnic();
  FifoResource& core_thread = cluster_->worker(1)->dpu()->core(config.core_thread_index);
  auto depths = [&rnic]() {
    std::vector<size_t> d;
    for (TenantId t = 1; t <= kTenants; ++t) {
      d.push_back(rnic.SrqOfTenant(t).depth());
    }
    return d;
  };
  auto charge = [this](SimDuration posted) {
    return static_cast<SimDuration>(static_cast<double>(300 + 150 * posted) *
                                        cost_.dpu_speed_factor +
                                    0.5);
  };
  // Expected SRQ depths after each tick: every tenant starts with 4.
  std::vector<size_t> expected(kTenants, 4);
  auto at = [&expected](TenantId t) -> size_t& { return expected[t - 1]; };

  sim.RunUntil(21 * kMicrosecond);  // Tick 20 us: nothing consumed yet.
  EXPECT_EQ(depths(), expected);
  EXPECT_EQ(core_thread.busy_time(), charge(0));
  SimDuration busy = core_thread.busy_time();

  sim.RunUntil(39 * kMicrosecond);  // All 8 messages consumed before tick 40.
  ASSERT_EQ(b->stats().rx_messages, 8u);
  ASSERT_EQ(held.size(), 3u);
  EXPECT_EQ(b->stats().replenish_failures, 0u);

  sim.RunUntil(50 * kMicrosecond);  // Tick 40 us: 3 + 2 + 2 of 3 (pool dry).
  at(kStarved) = 3;
  EXPECT_EQ(depths(), expected);
  EXPECT_EQ(core_thread.busy_time() - busy, charge(3 + 2 + 2));
  EXPECT_EQ(b->stats().replenish_failures, 1u);
  busy = core_thread.busy_time();

  sim.RunUntil(65 * kMicrosecond);  // Tick 60 us: the debt of 1 finds no buffer.
  EXPECT_EQ(depths(), expected);
  EXPECT_EQ(core_thread.busy_time() - busy, charge(0));
  EXPECT_EQ(b->stats().replenish_failures, 2u);
  busy = core_thread.busy_time();

  sim.RunUntil(90 * kMicrosecond);  // Buffers back at 70 us; tick 80 us pays the debt.
  at(kStarved) = 4;
  EXPECT_EQ(depths(), expected);
  EXPECT_EQ(core_thread.busy_time() - busy, charge(1));
  EXPECT_EQ(b->stats().replenish_failures, 2u);
  busy = core_thread.busy_time();

  sim.RunUntil(110 * kMicrosecond);  // Tick 100 us: nothing due, debt settled.
  EXPECT_EQ(depths(), expected);
  EXPECT_EQ(core_thread.busy_time() - busy, charge(0));
  EXPECT_EQ(b->rbr().outstanding(), static_cast<size_t>(4 * kTenants));
}

}  // namespace
}  // namespace nadino
