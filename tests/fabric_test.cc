// Tests for the RDMA fabric: port contention, bandwidth sharing, the
// congestion signals the DNE's connection selection relies on, and copy-free
// hops.

#include "src/rdma/fabric.h"

#include <gtest/gtest.h>

#include "src/core/fault.h"

namespace nadino {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(env_) {
    fabric_.AttachNode(1);
    fabric_.AttachNode(2);
    fabric_.AttachNode(3);
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  Fabric fabric_;
};

TEST_F(FabricTest, DeliversWithSerializationAndPropagation) {
  SimTime delivered_at = 0;
  fabric_.Send(1, 2, 1000, [&]() { delivered_at = sim_.now(); });
  sim_.Run();
  // Two link traversals (serialize + propagate each) plus the switch hop.
  const SimDuration wire = (1000 + kWireHeaderBytes) * 8 / 200;  // ns at 200 Gbps.
  const SimDuration expected =
      2 * (wire + cost_.link_propagation) + cost_.switch_latency;
  EXPECT_NEAR(static_cast<double>(delivered_at), static_cast<double>(expected),
              static_cast<double>(expected) * 0.05 + 10);
  EXPECT_EQ(fabric_.messages_delivered(), 1u);
}

TEST_F(FabricTest, SharedUplinkSerializesSenders) {
  // Two large messages from node 1 serialize on its uplink even when headed
  // to different destinations.
  SimTime first = 0;
  SimTime second = 0;
  fabric_.Send(1, 2, 1000000, [&]() { first = sim_.now(); });
  fabric_.Send(1, 3, 1000000, [&]() { second = sim_.now(); });
  sim_.Run();
  const SimDuration wire = 1000060LL * 8 / 200;
  EXPECT_GT(second, first + wire / 2);
}

TEST_F(FabricTest, DistinctUplinksRunInParallel) {
  SimTime to_two = 0;
  SimTime to_three = 0;
  fabric_.Send(1, 2, 1000000, [&]() { to_two = sim_.now(); });
  fabric_.Send(3, 2, 1000000, [&]() { to_three = sim_.now(); });
  sim_.Run();
  // Different sources: only node 2's downlink is shared; arrivals are within
  // one serialization of each other, not two.
  const SimDuration wire = 1000060LL * 8 / 200;
  EXPECT_LT(std::max(to_two, to_three), std::min(to_two, to_three) + 2 * wire);
}

TEST_F(FabricTest, UplinkQueueDepthSignalsCongestion) {
  for (int i = 0; i < 10; ++i) {
    fabric_.Send(1, 2, 500000, nullptr);
  }
  EXPECT_GE(fabric_.UplinkQueueDepth(1), 9u);
  EXPECT_EQ(fabric_.UplinkQueueDepth(2), 0u);
  sim_.Run();
  EXPECT_EQ(fabric_.UplinkQueueDepth(1), 0u);
}

TEST_F(FabricTest, AttachIsIdempotent) {
  fabric_.AttachNode(1);
  SimTime delivered = 0;
  fabric_.Send(1, 2, 64, [&]() { delivered = sim_.now(); });
  sim_.Run();
  EXPECT_GT(delivered, 0);
}

// A delivery functor that counts its copies (moves are free). Every copy
// shares the two counters.
struct CopyCountingDelivery {
  int* copies;
  int* calls;
  CopyCountingDelivery(int* copies_out, int* calls_out) : copies(copies_out), calls(calls_out) {}
  CopyCountingDelivery(const CopyCountingDelivery& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCountingDelivery(CopyCountingDelivery&&) noexcept = default;
  CopyCountingDelivery& operator=(const CopyCountingDelivery&) = delete;
  CopyCountingDelivery& operator=(CopyCountingDelivery&&) = delete;
  void operator()() const { ++*calls; }
};

struct HopCounts {
  int copies = 0;
  int calls = 0;
};

HopCounts SendOnce(Fabric& fabric, Simulator& sim, TenantId tenant = kInvalidTenant) {
  HopCounts counts;
  fabric.Send(1, 2, 4096, CopyCountingDelivery(&counts.copies, &counts.calls), tenant);
  sim.Run();
  return counts;
}

TEST_F(FabricTest, FaultFreeHopsNeverCopyTheDelivery) {
  const HopCounts counts = SendOnce(fabric_, sim_);
  EXPECT_EQ(counts.copies, 0);
  EXPECT_EQ(counts.calls, 1);
}

TEST_F(FabricTest, DelayedHopsNeverCopyTheDelivery) {
  for (const FaultSite site : {FaultSite::kFabric, FaultSite::kLink}) {
    env_.faults().Clear();
    FaultSpec delay;
    delay.site = site;
    delay.action = FaultAction::kDelay;
    delay.delay = 5 * kMicrosecond;
    ASSERT_GE(env_.faults().Install(delay), 0);
    const HopCounts counts = SendOnce(fabric_, sim_);
    EXPECT_EQ(counts.copies, 0);
    EXPECT_EQ(counts.calls, 1);
  }
}

TEST_F(FabricTest, FabricDuplicateCopiesTheDeliveryOnce) {
  FaultSpec dup;
  dup.site = FaultSite::kFabric;
  dup.action = FaultAction::kDuplicate;
  dup.max_injections = 1;
  ASSERT_GE(env_.faults().Install(dup), 0);
  const HopCounts counts = SendOnce(fabric_, sim_);
  EXPECT_EQ(counts.copies, 1);
  EXPECT_EQ(counts.calls, 2);
}

TEST_F(FabricTest, LinkDuplicatesCopyTheDeliveryOncePerInjection) {
  // Unlimited kLink duplicates: the uplink duplicates once, then each of the
  // two copies is duplicated again on the downlink — three injections.
  FaultSpec dup;
  dup.site = FaultSite::kLink;
  dup.action = FaultAction::kDuplicate;
  ASSERT_GE(env_.faults().Install(dup), 0);
  const HopCounts counts = SendOnce(fabric_, sim_, /*tenant=*/4);
  MetricLabels up;
  up.tenant = 4;
  up.node = 1;
  MetricLabels down = up;
  down.node = 2;
  const uint64_t injected = env_.metrics().ValueOf("fault_injected_link_duplicate", up) +
                            env_.metrics().ValueOf("fault_injected_link_duplicate", down);
  EXPECT_EQ(injected, 3u);
  EXPECT_EQ(counts.copies, 3);
  EXPECT_EQ(counts.calls, 4);
}

}  // namespace
}  // namespace nadino
