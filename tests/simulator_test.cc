// Unit tests for the discrete-event simulation core.

#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace nadino {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&]() { order.push_back(3); });
  sim.Schedule(100, [&]() { order.push_back(1); });
  sim.Schedule(200, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulatorTest, SameInstantEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&]() {
    sim.Schedule(-50, [&]() { EXPECT_EQ(sim.now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) {
      sim.Schedule(10, recurse);
    }
  };
  sim.Schedule(10, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.Schedule(100, [&]() { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.Schedule(100, []() {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  const EventId id = sim.Schedule(100, []() {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(12345));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() { ++fired; });
  sim.Schedule(200, [&]() { ++fired; });
  sim.Schedule(300, [&]() { ++fired; });
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 250);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.RunUntil(5000);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunUntil(1000);
  sim.RunFor(500);
  EXPECT_EQ(sim.now(), 1500);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(200, [&]() { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { ++fired; });
  sim.Schedule(20, [&]() { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PendingEventsTracksLiveEvents) {
  Simulator sim;
  const EventId a = sim.Schedule(10, []() {});
  sim.Schedule(20, []() {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DeterministicEventCount) {
  auto run = []() {
    Simulator sim;
    uint64_t count = 0;
    std::function<void(int)> spawn = [&](int depth) {
      ++count;
      if (depth < 12) {
        sim.Schedule(7, [&spawn, depth]() { spawn(depth + 1); });
        sim.Schedule(13, [&spawn, depth]() { spawn(depth + 1); });
      }
    };
    sim.Schedule(0, [&]() { spawn(0); });
    sim.Run();
    return std::pair(count, sim.now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(SimulatorTest, SmallCapturesNeverSpillToTheHeap) {
  Simulator sim;
  sim.SetShardCount(4);
  int fired = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    sim.ScheduleAtOn(s, 100, [&sim, &fired, s] {
      ++fired;
      // Same-shard (inherited) and cross-shard schedules from event context.
      sim.Schedule(10, [&fired] { ++fired; });
      sim.ScheduleAtOn((s + 1) % 4, sim.now() + 20, [&fired] { ++fired; });
    });
  }
  sim.ScheduleBatch(2, {300, 301, 302}, [&fired](size_t) { return [&fired] { ++fired; }; });
  sim.Run();
  EXPECT_EQ(fired, 4 * 3 + 3);
  EXPECT_EQ(sim.callback_heap_spills(), 0u);
}

TEST(SimulatorTest, EachOversizedCaptureSpillsExactlyOnce) {
  Simulator sim;
  sim.SetShardCount(2);
  std::array<unsigned char, 128> big{};
  sim.ScheduleAtOn(0, 10, [big] { (void)big; });
  EXPECT_EQ(sim.callback_heap_spills(), 1u);
  sim.ScheduleAtOn(0, 20, [&sim, big] {
    (void)big;
    // A cross-shard schedule from event context spills once more.
    sim.ScheduleAtOn(1, sim.now() + 5, [big] { (void)big; });
  });
  EXPECT_EQ(sim.callback_heap_spills(), 2u);
  sim.ScheduleBatch(1, {30, 31}, [big](size_t) { return [big] { (void)big; }; });
  EXPECT_EQ(sim.callback_heap_spills(), 4u);
  sim.Run();
  EXPECT_EQ(sim.callback_heap_spills(), 5u);
  EXPECT_EQ(sim.events_processed(), 5u);
}

// Runs same-instant events A, B, C at t=100 (A schedules a fourth tie, D,
// at its own instant) after a t=50 event. B is scheduled up front (mode 0),
// or its seq is reserved up front and B is queued later through
// ScheduleReserved: from the t=50 event (mode 1), or from A, at B's own
// instant (mode 2). The executed order must not depend on which.
std::vector<int> ReservedTieOrder(int mode) {
  Simulator sim;
  std::vector<int> order;
  uint64_t seq = 0;
  auto b = [&order] { order.push_back(2); };
  sim.ScheduleAt(100, [&sim, &order, &seq, mode, b] {
    order.push_back(1);
    sim.Schedule(0, [&order] { order.push_back(4); });
    if (mode == 2) {
      sim.ScheduleReserved(100, seq, b);
    }
  });
  if (mode == 0) {
    sim.ScheduleAt(100, b);
  } else {
    seq = sim.ReserveSeq();
  }
  sim.ScheduleAt(100, [&order] { order.push_back(3); });
  sim.ScheduleAt(50, [&sim, &order, &seq, mode, b] {
    order.push_back(0);
    if (mode == 1) {
      sim.ScheduleReserved(100, seq, b);
    }
  });
  sim.Run();
  return order;
}

TEST(SimulatorTest, ReservedSeqRunsWhereItWasReserved) {
  const std::vector<int> direct = ReservedTieOrder(0);
  EXPECT_EQ(direct, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ReservedTieOrder(1), direct);
  EXPECT_EQ(ReservedTieOrder(2), direct);
}

TEST(SimulatorTest, ReservedEventIsCancellable) {
  Simulator sim;
  int fired = 0;
  const uint64_t seq = sim.ReserveSeq();
  sim.Schedule(10, [&fired] { ++fired; });
  const EventId id = sim.ScheduleReserved(20, seq, [&fired] { fired += 100; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_processed(), 1u);
}

}  // namespace
}  // namespace nadino
