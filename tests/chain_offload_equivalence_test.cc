// The offload equivalence property (DESIGN.md §3i): because every program
// forward preserves the incoming (src, request_id) and every runtime decline
// falls back to the software executor *before* consuming the message, an
// offloaded deployment must serve exactly the same per-tenant request
// population as the pure-software one — under clean runs, under injected
// wrprog_* faults, and with every pool buffer conserved. Timing differs
// (that is the point of the offload); completion accounting must not.

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/core/fault.h"

namespace nadino {
namespace {

ChainOffloadOptions BaseOptions(bool offload) {
  ChainOffloadOptions options;
  options.nodes = 3;
  options.stages = 3;
  options.tenants = 2;
  options.requests_per_tenant = 120;
  options.spacing = 150 * kMicrosecond;
  options.offload = offload;
  options.duration = 2 * kSecond;
  return options;
}

TEST(ChainOffloadEquivalence, ServedCountsMatchSoftwareUnderEqualSeeds) {
  const CostModel cost = CostModel::Default();
  const ChainOffloadResult software = RunChainOffload(cost, BaseOptions(false));
  const ChainOffloadResult offloaded = RunChainOffload(cost, BaseOptions(true));

  // Same request population served, per tenant, with identical error counts.
  EXPECT_EQ(software.completed, offloaded.completed);
  EXPECT_EQ(software.errors, offloaded.errors);
  EXPECT_EQ(software.tenant_completed, offloaded.tenant_completed);
  ASSERT_EQ(offloaded.tenant_completed.size(), 2u);
  for (const auto& [tenant, completed] : offloaded.tenant_completed) {
    EXPECT_EQ(completed, 120u) << "tenant " << tenant;
  }

  // The work actually moved: every hop of every request ran on-NIC, none in
  // the software executor, and no buffer leaked on either side.
  EXPECT_EQ(offloaded.hops_installed, 6u);  // 2 tenants x 3 hops.
  EXPECT_EQ(offloaded.offloaded_hops, offloaded.completed * 3);
  EXPECT_EQ(offloaded.software_requests, 0u);
  EXPECT_EQ(software.offloaded_hops, 0u);
  EXPECT_EQ(software.buffers_in_use_at_end, 0u);
  EXPECT_EQ(offloaded.buffers_in_use_at_end, 0u);

  // And it moved for a reason: on-NIC dispatch is strictly faster per hop.
  EXPECT_LT(offloaded.per_hop_latency_us, software.per_hop_latency_us);
}

TEST(ChainOffloadEquivalence, WrprogFaultsDegradeToSoftwareWithoutLosingRequests) {
  const CostModel cost = CostModel::Default();

  ChainOffloadOptions faulty = BaseOptions(true);
  FaultSpec trigger_drop;
  trigger_drop.site = FaultSite::kWrProgTrigger;
  trigger_drop.action = FaultAction::kDrop;
  trigger_drop.probability = 0.2;
  faulty.faults.push_back(trigger_drop);
  FaultSpec cond_drop;
  cond_drop.site = FaultSite::kWrProgCond;
  cond_drop.action = FaultAction::kDrop;
  cond_drop.probability = 0.1;
  faulty.faults.push_back(cond_drop);

  const ChainOffloadResult software = RunChainOffload(cost, BaseOptions(false));
  const ChainOffloadResult degraded = RunChainOffload(cost, faulty);

  // Every declined hop fell back to the executor before consuming the
  // message: the served population is untouched by the fault plane.
  EXPECT_EQ(degraded.completed, software.completed);
  EXPECT_EQ(degraded.errors, software.errors);
  EXPECT_EQ(degraded.tenant_completed, software.tenant_completed);
  EXPECT_GT(degraded.fallbacks, 0u);
  EXPECT_GT(degraded.software_requests, 0u);
  // A declined message surfaces at least one fallback per software-executed
  // hop (a wire arrival declines at the CQ steering hook and again at the
  // Launch doorbell; a steering decline the doorbell later re-admits adds a
  // fallback with no software hop — hence >=, not ==).
  EXPECT_GE(degraded.fallbacks, degraded.software_requests);
  // Conservation across the mixed software/offload execution: every hop of
  // every request ran exactly once, on the NIC or in the executor.
  EXPECT_EQ(degraded.offloaded_hops + degraded.software_requests,
            degraded.completed * 3);
  EXPECT_EQ(degraded.buffers_in_use_at_end, 0u);
  EXPECT_EQ(degraded.wrprog_send_errors, 0u);
}

TEST(ChainOffloadEquivalence, EqualSeedsAreByteIdenticalIncludingFaults) {
  const CostModel cost = CostModel::Default();
  ChainOffloadOptions options = BaseOptions(true);
  FaultSpec trigger_drop;
  trigger_drop.site = FaultSite::kWrProgTrigger;
  trigger_drop.action = FaultAction::kDrop;
  trigger_drop.probability = 0.3;
  options.faults.push_back(trigger_drop);

  const ChainOffloadResult first = RunChainOffload(cost, options);
  const ChainOffloadResult second = RunChainOffload(cost, options);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.fallbacks, second.fallbacks);
  EXPECT_EQ(first.p99_latency_us, second.p99_latency_us);

  // A different seed still serves everything (open-loop with headroom) but
  // draws a different fault schedule.
  ChainOffloadOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  const ChainOffloadResult other = RunChainOffload(cost, reseeded);
  EXPECT_EQ(other.completed, first.completed);
  EXPECT_NE(other.metrics_json, first.metrics_json);
}

TEST(ChainOffloadEquivalence, DuplicatedResponsesNeverCountAsCompletions) {
  // A duplicating wire delivers some final responses twice. Only the first
  // closes its request; the copy lands in unmatched_responses, so completions
  // never exceed what was issued, per tenant or in total.
  const CostModel cost = CostModel::Default();
  for (const FaultSite site :
       {FaultSite::kFabric, FaultSite::kLink, FaultSite::kRnicRx, FaultSite::kRnicTx}) {
    ChainOffloadOptions options;
    options.offload = true;
    FaultSpec duplicate;
    duplicate.site = site;
    duplicate.action = FaultAction::kDuplicate;
    duplicate.probability = 0.05;
    options.faults.push_back(duplicate);

    const ChainOffloadResult result = RunChainOffload(cost, options);
    const auto issued = static_cast<uint64_t>(options.tenants * options.requests_per_tenant);
    EXPECT_LE(result.completed, issued) << FaultSiteName(site);
    for (const auto& [tenant, completed] : result.tenant_completed) {
      EXPECT_LE(completed, static_cast<uint64_t>(options.requests_per_tenant))
          << FaultSiteName(site) << " tenant " << tenant;
    }
    EXPECT_GT(result.unmatched_responses, 0u) << FaultSiteName(site);
  }
}

}  // namespace
}  // namespace nadino
