// The shard merge (src/sim/simulator.cc) must be invisible: for any shard
// count, a randomized schedule executes the exact same sequence as on the
// single heap. Cancels, cross-shard respawns and inherited-shard respawns
// from event context probe the cached head keys under arbitrary-shard
// pushes and lazy discards; k = 64 covers the largest linear scan.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "src/sim/simulator.h"

namespace nadino {
namespace {

struct Executed {
  SimTime when;
  uint64_t tag;
  bool operator==(const Executed& other) const {
    return when == other.when && tag == other.tag;
  }
};

// Drives one randomized run: `events` roots scattered over shards and time,
// a sixth of them cancelled, half of the survivors spawning a child either
// on another shard or on their own (inherited) shard. Shard picks are drawn
// from [0, kMaxShards) and reduced modulo the shard count by the simulator,
// so the random stream — and hence the schedule — is the same for every k.
std::vector<Executed> RunMerge(uint32_t shards, uint64_t seed, int events) {
  Simulator sim;
  sim.SetShardCount(shards);
  std::mt19937_64 rng(seed);
  std::vector<Executed> trace;
  std::vector<EventId> cancellable;

  std::uniform_int_distribution<SimTime> when_dist(1, 5000);
  std::uniform_int_distribution<uint32_t> shard_dist(0, Simulator::kMaxShards - 1);
  for (int i = 0; i < events; ++i) {
    const SimTime when = when_dist(rng);
    const uint32_t shard = shard_dist(rng);
    const uint64_t tag = static_cast<uint64_t>(i);
    const uint64_t spawn = rng() % 4;  // 0/1: none, 2: cross-shard, 3: inherited.
    const uint32_t child_shard = shard_dist(rng);
    const SimTime child_delay = when_dist(rng);
    const EventId id = sim.ScheduleAtOn(
        shard, when, [&sim, &trace, tag, spawn, child_shard, child_delay] {
          trace.push_back({sim.now(), tag});
          const uint64_t child_tag = tag | (1ull << 32);
          auto child = [&sim, &trace, child_tag] { trace.push_back({sim.now(), child_tag}); };
          if (spawn == 2) {
            sim.ScheduleAtOn(child_shard, sim.now() + child_delay, child);
          } else if (spawn == 3) {
            sim.Schedule(child_delay, child);
          }
        });
    if (i % 3 == 0) {
      cancellable.push_back(id);
    }
  }
  for (size_t i = 0; i < cancellable.size(); i += 2) {
    EXPECT_TRUE(sim.Cancel(cancellable[i]));
  }
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  return trace;
}

TEST(ShardMergeTest, AnyShardCountExecutesTheSingleHeapSequence) {
  for (uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
    const std::vector<Executed> single = RunMerge(1, seed, 400);
    ASSERT_FALSE(single.empty());
    for (uint32_t shards : {2u, 9u, 16u, 64u}) {
      EXPECT_EQ(RunMerge(shards, seed, 400), single) << "shards=" << shards << " seed=" << seed;
    }
  }
}

TEST(ShardMergeTest, ReshardingWithPendingEventsKeepsTheOrder) {
  // SetShardCount consolidates pending events onto shard 0 of the new
  // layout; growing and shrinking mid-stream must not reorder anything.
  Simulator sim;
  sim.SetShardCount(12);
  std::vector<uint32_t> order;
  for (uint32_t s = 0; s < 12; ++s) {
    sim.ScheduleAtOn(s, 200 - s, [&order, s] { order.push_back(s); });
  }
  sim.SetShardCount(64);
  sim.SetShardCount(3);
  sim.Run();
  ASSERT_EQ(order.size(), 12u);
  for (uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(order[i], 11 - i);
  }
}

}  // namespace
}  // namespace nadino
