// Tests for the simulated RDMA stack: two-sided send/recv, one-sided
// write/read, RNR handling, MR protection, QP cache, and fabric timing.

#include "src/rdma/rdma_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/mem/tenant_registry.h"

namespace nadino {
namespace {

class RdmaEngineTest : public ::testing::Test {
 protected:
  RdmaEngineTest()
      : network_(env_),
        a_(env_, 1, &network_),
        b_(env_, 2, &network_) {
    pool_a_ = registry_a_.CreatePool(kTenant, "a", {32, 8192});
    pool_b_ = registry_b_.CreatePool(kTenant, "b", {32, 8192});
    a_.mr_table().Register(pool_a_, kMrLocal);
    b_.mr_table().Register(pool_b_, kMrLocal);
    std::tie(qp_a_, qp_b_) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant);
  }

  // Posts `n` receive buffers on engine B for the tenant.
  void PostRecvs(int n) {
    for (int i = 0; i < n; ++i) {
      Buffer* buffer = pool_b_->Get(OwnerId::External(2));
      ASSERT_NE(buffer, nullptr);
      ASSERT_TRUE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(2), next_recv_wr_++));
    }
  }

  static constexpr TenantId kTenant = 5;
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
  TenantRegistry registry_a_;
  TenantRegistry registry_b_;
  BufferPool* pool_a_ = nullptr;
  BufferPool* pool_b_ = nullptr;
  QpNum qp_a_ = 0;
  QpNum qp_b_ = 0;
  uint64_t next_recv_wr_ = 100;
};

TEST_F(RdmaEngineTest, TwoSidedSendDeliversPayloadIntoPostedBuffer) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::External(1));
  src->FillPattern(77, 2048);
  const uint64_t src_sum = Checksum(src->payload());

  Completion recv_cqe;
  bool got_recv = false;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      recv_cqe = cqe;
      got_recv = true;
    }
  });
  pool_a_->Transfer(src, OwnerId::External(1), OwnerId::Rnic(1));
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42, /*imm=*/321));
  sim_.Run();

  ASSERT_TRUE(got_recv);
  EXPECT_EQ(recv_cqe.wr_id, 100u);  // The receiver's posted WR id.
  EXPECT_EQ(recv_cqe.byte_len, 2048u);
  EXPECT_EQ(recv_cqe.imm, 321u);
  EXPECT_EQ(recv_cqe.tenant, kTenant);
  EXPECT_EQ(recv_cqe.src_node, 1u);
  ASSERT_NE(recv_cqe.buffer, nullptr);
  EXPECT_EQ(Checksum(recv_cqe.buffer->payload()), src_sum);
}

TEST_F(RdmaEngineTest, SenderGetsSendCompletionAfterAck) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  bool send_done = false;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      EXPECT_EQ(cqe.wr_id, 42u);
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      send_done = true;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  EXPECT_EQ(a_.Outstanding(qp_a_), 1u);
  sim_.Run();
  EXPECT_TRUE(send_done);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
}

TEST_F(RdmaEngineTest, RnrBackoffRetriesUntilBufferPosted) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  bool got_recv = false;
  b_.cq().SetHandler([&](const Completion& cqe) {
    got_recv |= cqe.opcode == RdmaOpcode::kRecv;
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));
  // Post the receive buffer only after two backoff periods.
  sim_.Schedule(2 * cost_.rnic_rnr_backoff + 10 * kMicrosecond, [&]() { PostRecvs(1); });
  sim_.Run();
  EXPECT_TRUE(got_recv);
  EXPECT_GE(b_.stats().rnr_events, 2u);
  EXPECT_EQ(b_.stats().rnr_failures, 0u);
}

TEST_F(RdmaEngineTest, RnrRetryExhaustionFailsTheSend) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      status = cqe.status;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));
  sim_.Run();  // No receive buffer ever posted.
  EXPECT_EQ(status, WrStatus::kRnrRetryExceeded);
  EXPECT_GE(b_.stats().rnr_failures, 1u);
}

TEST_F(RdmaEngineTest, OneSidedWriteRequiresRemoteWriteAccess) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 128);
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      status = cqe.status;
    }
  });
  // pool_b_ was registered kMrLocal only: remote writes must be rejected.
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 0, 7));
  sim_.Run();
  EXPECT_EQ(status, WrStatus::kRemoteAccessError);
  EXPECT_EQ(b_.mr_table().access_violations(), 1u);
}

TEST_F(RdmaEngineTest, OneSidedWriteLandsWhenPermitted) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(9, 512);
  const uint64_t sum = Checksum(src->payload());
  WrStatus status = WrStatus::kQpError;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      status = cqe.status;
    }
  });
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 3, 7));
  sim_.Run();
  EXPECT_EQ(status, WrStatus::kSuccess);
  Buffer* target = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 3, 0, 0});
  EXPECT_EQ(target->length, 512u);
  EXPECT_EQ(Checksum(target->payload()), sum);
}

TEST_F(RdmaEngineTest, ObliviousOverwriteOfFunctionOwnedBufferCounted) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  // A local function owns buffer 0 — the data-race scenario of section 2.1.
  Buffer* owned = pool_b_->Get(OwnerId::Function(88));
  ASSERT_EQ(owned->index, 31u);  // LIFO free list: last buffer first.
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), owned->index, 7));
  sim_.Run();
  EXPECT_EQ(b_.stats().oblivious_overwrites, 1u);
  // The write went through anyway — one-sided RDMA cannot know better.
  EXPECT_EQ(owned->length, 64u);
}

TEST_F(RdmaEngineTest, OneSidedReadFetchesRemoteBytes) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite | kMrRemoteRead);
  Buffer* remote = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 4, 0, 0});
  remote->FillPattern(5, 1024);
  const uint64_t sum = Checksum(remote->payload());
  Buffer* dst = pool_a_->Get(OwnerId::External(1));
  bool done = false;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRead) {
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      EXPECT_EQ(cqe.byte_len, 1024u);
      done = true;
    }
  });
  ASSERT_TRUE(a_.PostRead(qp_a_, dst, pool_b_->id(), 4, 1024, 9));
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(Checksum(dst->payload()), sum);
}

TEST_F(RdmaEngineTest, ReadWithoutPermissionFails) {
  Buffer* dst = pool_a_->Get(OwnerId::External(1));
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRead) {
      status = cqe.status;
    }
  });
  ASSERT_TRUE(a_.PostRead(qp_a_, dst, pool_b_->id(), 4, 64, 9));
  sim_.Run();
  EXPECT_EQ(status, WrStatus::kRemoteAccessError);
}

TEST_F(RdmaEngineTest, SendOnUnconnectedQpRejected) {
  const QpNum lonely = a_.CreateQp(kTenant);
  Buffer* src = pool_a_->Get(OwnerId::External(1));
  EXPECT_FALSE(a_.PostSend(lonely, *src, 1));
}

TEST_F(RdmaEngineTest, PostRecvValidatesOwnershipAndTenant) {
  Buffer* buffer = pool_b_->Get(OwnerId::External(2));
  // Wrong claimed owner: rejected, ownership unchanged.
  EXPECT_FALSE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(3), 1));
  EXPECT_EQ(buffer->owner, OwnerId::External(2));
  EXPECT_TRUE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(2), 1));
  EXPECT_EQ(buffer->owner, OwnerId::Rnic(2));
}

TEST_F(RdmaEngineTest, PerTenantTxBytesAccumulate) {
  PostRecvs(2);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 1000);
  a_.PostSend(qp_a_, *src, 1);
  a_.PostSend(qp_a_, *src, 2);
  sim_.Run();
  EXPECT_GE(a_.TenantBytesTx(kTenant), 2 * 1000u);
  EXPECT_EQ(a_.TenantBytesTx(kTenant + 1), 0u);
}

TEST_F(RdmaEngineTest, TwoSided64ByteEchoPathLatencyIsMicroseconds) {
  // One-way small-message latency through the NIC pipelines and fabric lands
  // in the low single-digit microseconds (sanity anchor for Fig. 12).
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  SimTime arrival = 0;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      arrival = sim_.now();
    }
  });
  a_.PostSend(qp_a_, *src, 1);
  sim_.Run();
  EXPECT_GT(arrival, 1 * kMicrosecond);
  EXPECT_LT(arrival, 6 * kMicrosecond);
}

// --- ACK deadlines -----------------------------------------------------------

// Drops every packet node 1 (engine A) puts on the fabric, up to `count`.
void DropFromNodeOne(Env& env, uint64_t count) {
  FaultSpec drop;
  drop.site = FaultSite::kFabric;
  drop.action = FaultAction::kDrop;
  drop.node = 1;
  drop.max_injections = count;
  ASSERT_GE(env.faults().Install(drop), 0);
}

uint64_t AckTimeouts(Env& env, TenantId tenant) {
  MetricLabels labels = MetricLabels::Node(1);
  labels.tenant = static_cast<int64_t>(tenant);
  return env.metrics().ValueOf("rnic_ack_timeouts", labels);
}

TEST_F(RdmaEngineTest, LostSendTimesOutExactlyAtItsAckDeadline) {
  DropFromNodeOne(env_, 1);
  PostRecvs(1);
  sim_.RunFor(3 * kMicrosecond);
  const SimTime deadline = sim_.now() + cost_.rnic_ack_timeout;
  std::vector<std::string> order;
  Completion done;
  SimTime done_at = -1;
  a_.cq().SetHandler([&](const Completion& cqe) {
    done = cqe;
    done_at = sim_.now();
    order.push_back("timeout");
  });
  // Same-instant ties scheduled just before and just after the post: the
  // timeout runs between them, exactly where its own event would have.
  sim_.ScheduleAt(deadline, [&] { order.push_back("before"); });
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  sim_.ScheduleAt(deadline, [&] { order.push_back("after"); });
  sim_.Run();
  EXPECT_EQ(done_at, deadline);
  EXPECT_EQ(done.wr_id, 42u);
  EXPECT_EQ(done.opcode, RdmaOpcode::kSend);
  EXPECT_EQ(done.status, WrStatus::kTransportError);
  EXPECT_EQ(order, (std::vector<std::string>{"before", "timeout", "after"}));
  EXPECT_EQ(AckTimeouts(env_, kTenant), 1u);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
}

TEST_F(RdmaEngineTest, TimeoutHookMayPostTheNextWr) {
  DropFromNodeOne(env_, 3);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  struct Done {
    uint64_t wr_id;
    SimTime at;
    WrStatus status;
  };
  std::vector<Done> done;
  auto record = [&](const Completion& cqe) {
    done.push_back(Done{cqe.wr_id, sim_.now(), cqe.status});
  };
  WorkRequest wr;
  wr.src = src;
  wr.wr_id = 1;
  const SimTime t0 = sim_.now();
  // WR 1's timeout hook posts WR 3 while WR 2's deadline is still pending.
  ASSERT_TRUE(a_.PostWr(qp_a_, wr, [&](const Completion& cqe) {
    record(cqe);
    WorkRequest next;
    next.src = src;
    next.wr_id = 3;
    ASSERT_TRUE(a_.PostWr(qp_a_, next, record));
  }));
  sim_.RunFor(kMicrosecond);
  const SimDuration timeout = cost_.rnic_ack_timeout;
  wr.wr_id = 2;
  ASSERT_TRUE(a_.PostWr(qp_a_, wr, record));
  // WR 2's timer is set only when WR 1's fires, yet it keeps the seq of
  // WR 2's post: it still precedes this same-instant marker (wr_id 0).
  sim_.ScheduleAt(sim_.now() + timeout,
                  [&] { done.push_back(Done{0, sim_.now(), WrStatus::kSuccess}); });
  sim_.Run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0].wr_id, 1u);
  EXPECT_EQ(done[0].at, t0 + timeout);
  EXPECT_EQ(done[1].wr_id, 2u);
  EXPECT_EQ(done[1].at, t0 + kMicrosecond + timeout);
  EXPECT_EQ(done[2].wr_id, 0u);
  EXPECT_EQ(done[2].at, done[1].at);
  EXPECT_EQ(done[3].wr_id, 3u);
  EXPECT_EQ(done[3].at, t0 + 2 * timeout);
  for (const size_t i : {0, 1, 3}) {
    EXPECT_EQ(done[i].status, WrStatus::kTransportError);
  }
  EXPECT_EQ(AckTimeouts(env_, kTenant), 3u);
}

TEST_F(RdmaEngineTest, AckedWrsLeaveAtMostOneTimerPending) {
  constexpr int kWrs = 16;
  PostRecvs(kWrs);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  int ok = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    ok += cqe.opcode == RdmaOpcode::kSend && cqe.status == WrStatus::kSuccess ? 1 : 0;
  });
  for (int i = 0; i < kWrs; ++i) {
    ASSERT_TRUE(a_.PostSend(qp_a_, *src, static_cast<uint64_t>(i + 1)));
  }
  sim_.RunFor(cost_.rnic_ack_timeout / 5);
  EXPECT_EQ(ok, kWrs);
  // Every WR was ACKed: what is left is the engine's one ACK timer.
  EXPECT_LE(sim_.pending_events(), 1u);
  const uint64_t events = sim_.events_processed();
  sim_.Run();
  EXPECT_LE(sim_.events_processed() - events, 1u);
  EXPECT_EQ(AckTimeouts(env_, kTenant), 0u);
}

TEST_F(RdmaEngineTest, RearmedKeyTimesOutAtItsOwnDeadline) {
  // Reusing a pending (qp, wr_id) replaces the earlier arming; the earlier
  // deadline must not time out the re-armed WR.
  DropFromNodeOne(env_, 2);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  std::vector<SimTime> done_at;
  a_.cq().SetHandler([&](const Completion&) { done_at.push_back(sim_.now()); });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 7));
  sim_.RunFor(kMillisecond);
  const SimTime rearmed_at = sim_.now();
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 7));
  sim_.Run();
  EXPECT_EQ(done_at, (std::vector<SimTime>{rearmed_at + cost_.rnic_ack_timeout}));
  EXPECT_EQ(AckTimeouts(env_, kTenant), 1u);
}

TEST(QpCacheTest, LruEvictionAndHitTracking) {
  QpCache cache(2);
  EXPECT_FALSE(cache.Touch(1));  // Miss, insert.
  EXPECT_FALSE(cache.Touch(2));
  EXPECT_TRUE(cache.Touch(1));  // Hit.
  EXPECT_FALSE(cache.Touch(3));  // Evicts 2 (LRU).
  EXPECT_FALSE(cache.Touch(2));  // Miss again.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.resident(), 2u);
}

TEST(QpCacheTest, ExplicitEvictFreesSlot) {
  QpCache cache(2);
  cache.Touch(1);
  cache.Touch(2);
  cache.Evict(1);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_FALSE(cache.Touch(3));
  EXPECT_TRUE(cache.Touch(2));  // 2 survived because 1 was evicted explicitly.
}

TEST_F(RdmaEngineTest, QpCacheThrashingUnderManyActiveQps) {
  // More QPs than cache entries: misses dominate — the thrashing the DNE's
  // bounded-active-QP policy avoids (section 3.3).
  PostRecvs(0);
  const int qp_count = cost_.rnic_qp_cache_entries * 2;
  std::vector<QpNum> qps;
  for (int i = 0; i < qp_count; ++i) {
    qps.push_back(RdmaEngine::CreateConnectedPair(a_, b_, kTenant).first);
  }
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 0);
  const uint64_t misses_before = a_.qp_cache().misses();
  for (int round = 0; round < 3; ++round) {
    for (const QpNum qp : qps) {
      a_.PostSend(qp, *src, 1);
    }
  }
  const uint64_t misses = a_.qp_cache().misses() - misses_before;
  // Round-robin over 2x the cache capacity: every touch misses.
  EXPECT_GE(misses, static_cast<uint64_t>(qp_count) * 3);
}

}  // namespace
}  // namespace nadino
