#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace muxwise::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.Now(), kTimeZero);
  EXPECT_TRUE(simulator.Empty());
}

TEST(SimulatorTest, ExecutesEventAtScheduledTime) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.ScheduleAt(Milliseconds(5),
                       [&] { fired_at = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(fired_at, Milliseconds(5));
  EXPECT_EQ(simulator.Now(), Milliseconds(5));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.ScheduleAt(Milliseconds(10), [&] {
    simulator.ScheduleAfter(Milliseconds(3),
                            [&] { fired_at = simulator.Now(); });
  });
  simulator.Run();
  EXPECT_EQ(fired_at, Milliseconds(13));
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  simulator.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  simulator.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsRunInInsertionOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    simulator.ScheduleAt(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SimulatorTest, SameTickStormKeepsFifoUnderCancellationChurn) {
  // A same-tick storm with interleaved cancellations: FIFO-within-tick
  // (ascending schedule order) must survive heap sifts, arena slot
  // recycling and lazy tombstone discards.
  Simulator simulator;
  std::vector<int> order;
  std::vector<int> expected;
  for (int round = 0; round < 40; ++round) {
    const Time tick = Milliseconds(round + 1);
    std::vector<EventHandle> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(simulator.ScheduleAt(
          tick, [&order, round, i] { order.push_back(round * 64 + i); }));
    }
    // Cancel every third event; their recycled slots are immediately
    // reused by a second wave scheduled on the same tick.
    for (int i = 0; i < 64; i += 3) {
      ASSERT_TRUE(simulator.Cancel(ids[i]));
    }
    for (int i = 0; i < 64; ++i) {
      if (i % 3 != 0) expected.push_back(round * 64 + i);
    }
    for (int i = 0; i < 8; ++i) {
      simulator.ScheduleAt(tick, [&order, round, i] {
        order.push_back(round * 64 + 64 + i);
      });
      expected.push_back(round * 64 + 64 + i);
    }
  }
  simulator.Run();
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, SameTickStormDigestIsFrozen) {
  // The storm schedule is integer-only, so its digest is identical on
  // every platform; freezing it pins the (when, id) execution-order
  // contract — FIFO tie-breaks and id assignment — across refactors.
  auto run = [] {
    Simulator simulator;
    std::vector<EventHandle> ids;
    for (int round = 0; round < 16; ++round) {
      const Time tick = Microseconds(10 * (round + 1));
      ids.clear();
      for (int i = 0; i < 32; ++i) {
        ids.push_back(simulator.ScheduleAt(tick, [] {}));
      }
      for (int i = 1; i < 32; i += 4) simulator.Cancel(ids[i]);
      for (int i = 0; i < 4; ++i) simulator.ScheduleAt(tick, [] {});
    }
    simulator.Run();
    return simulator.EventDigest();
  };
  const std::uint64_t digest = run();
  EXPECT_EQ(digest, run());
  EXPECT_EQ(digest, 0x3a2d5d1435052199ULL)
      << "digest drifted to " << std::hex << digest;
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventHandle id =
      simulator.ScheduleAt(Milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.ExecutedEvents(), 0u);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator simulator;
  const EventHandle id = simulator.ScheduleAt(Milliseconds(1), [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  // The freed slot goes to a newer event with a larger serial: the stale
  // handle must not cancel it.
  bool newer_fired = false;
  const EventHandle newer =
      simulator.ScheduleAt(Milliseconds(2), [&] { newer_fired = true; });
  ASSERT_EQ(newer.slot, id.slot);
  EXPECT_FALSE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_TRUE(newer_fired);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator simulator;
  const EventHandle id = simulator.ScheduleAt(Milliseconds(1), [] {});
  simulator.Run();
  EXPECT_FALSE(simulator.Cancel(id));
  // Same for a fired event whose slot a newer event reused.
  bool newer_fired = false;
  const EventHandle newer =
      simulator.ScheduleAt(Milliseconds(2), [&] { newer_fired = true; });
  ASSERT_EQ(newer.slot, id.slot);
  EXPECT_FALSE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_TRUE(newer_fired);
}

TEST(SimulatorTest, CancelUnknownIdReturnsFalse) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Cancel(EventHandle{}));
  simulator.ScheduleAt(Milliseconds(1), [] {});
  EXPECT_FALSE(simulator.Cancel(EventHandle{1, 12345}));  // Slot out of range.
  simulator.Run();
  // Slot 0 is free now; a default handle must not mistake it for an event.
  EXPECT_FALSE(simulator.Cancel(EventHandle{}));
  simulator.ScheduleAt(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.PendingEvents(), 1u);
  EXPECT_EQ(simulator.Run(), 1u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator simulator;
  simulator.ScheduleAt(Milliseconds(1), [] {});
  const EventHandle id = simulator.ScheduleAt(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.PendingEvents(), 2u);
  simulator.Cancel(id);
  EXPECT_EQ(simulator.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator simulator;
  std::vector<Time> fired;
  simulator.ScheduleAt(Milliseconds(5), [&] { fired.push_back(5); });
  simulator.ScheduleAt(Milliseconds(15), [&] { fired.push_back(15); });
  simulator.RunUntil(Milliseconds(10));
  EXPECT_EQ(fired, (std::vector<Time>{5}));
  EXPECT_EQ(simulator.Now(), Milliseconds(10));
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<Time>{5, 15}));
}

TEST(SimulatorTest, RunUntilBoundaryIsInclusive) {
  Simulator simulator;
  bool fired = false;
  simulator.ScheduleAt(Milliseconds(10), [&] { fired = true; });
  simulator.RunUntil(Milliseconds(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunBudgetStopsAtLastExecutedEvent) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    simulator.ScheduleAt(Milliseconds(i), [&] { ++count; });
  }
  EXPECT_EQ(simulator.Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.Now(), Milliseconds(3));
  EXPECT_EQ(simulator.PendingEvents(), 2u);
  EXPECT_EQ(simulator.Run(), 2u);
  EXPECT_EQ(simulator.Now(), Milliseconds(5));
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator simulator;
  int count = 0;
  simulator.ScheduleAt(Milliseconds(1), [&] { ++count; });
  simulator.ScheduleAt(Milliseconds(2), [&] { ++count; });
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) simulator.ScheduleAfter(Microseconds(1), recurse);
  };
  simulator.ScheduleAt(0, recurse);
  simulator.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(simulator.ExecutedEvents(), 100u);
}

TEST(SimulatorTest, CancellingFromWithinEventWorks) {
  Simulator simulator;
  bool second_fired = false;
  EventHandle second;
  simulator.ScheduleAt(Milliseconds(1),
                       [&] { EXPECT_TRUE(simulator.Cancel(second)); });
  second = simulator.ScheduleAt(Milliseconds(2), [&] { second_fired = true; });
  simulator.Run();
  EXPECT_FALSE(second_fired);
}

/**
 * Property test: a random schedule/cancel workload matches a reference
 * model executed with stable sorting.
 */
TEST(SimulatorPropertyTest, MatchesReferenceModelUnderRandomWorkload) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Simulator simulator;
    struct Ref {
      Time when;
      int tag;
      bool cancelled = false;
    };
    std::vector<Ref> reference;
    std::vector<EventHandle> ids;
    std::vector<int> executed;

    for (int i = 0; i < 200; ++i) {
      const Time when = Milliseconds(rng.UniformInt(0, 50));
      reference.push_back(Ref{when, i});
      ids.push_back(
          simulator.ScheduleAt(when, [&executed, i] { executed.push_back(i); }));
    }
    // Cancel a random 25%.
    for (int i = 0; i < 200; ++i) {
      if (rng.Bernoulli(0.25)) {
        simulator.Cancel(ids[static_cast<std::size_t>(i)]);
        reference[static_cast<std::size_t>(i)].cancelled = true;
      }
    }
    simulator.Run();

    std::vector<int> expected;
    std::vector<Ref> live;
    for (const Ref& r : reference) {
      if (!r.cancelled) live.push_back(r);
    }
    std::stable_sort(live.begin(), live.end(),
                     [](const Ref& a, const Ref& b) { return a.when < b.when; });
    for (const Ref& r : live) expected.push_back(r.tag);
    EXPECT_EQ(executed, expected) << "seed " << seed;
  }
}

TEST(TimeTest, ConversionRoundTrips) {
  EXPECT_EQ(Milliseconds(1.5), Nanoseconds(1500000));
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(7)), 7.0);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(Nanoseconds(500)), "500ns");
  EXPECT_EQ(FormatDuration(Microseconds(12)), "12.000us");
  EXPECT_EQ(FormatDuration(Milliseconds(3.5)), "3.500ms");
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.000s");
}

}  // namespace
}  // namespace muxwise::sim
