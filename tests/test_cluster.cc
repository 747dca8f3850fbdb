#include "gpu/cluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "gpu/gpu_spec.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace muxwise::gpu {
namespace {

using sim::Time;

TEST(InterconnectTest, TransferTakesLatencyPlusWireTime) {
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9,
                    sim::Microseconds(10));
  Time done = -1;
  link.Transfer(600e6, [&] { done = simulator.Now(); });  // 1 ms of wire.
  simulator.Run();
  EXPECT_NEAR(sim::ToMilliseconds(done), 1.01, 0.001);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 600e6);
  EXPECT_EQ(link.transfers_completed(), 1u);
}

TEST(InterconnectTest, TransfersQueueFifo) {
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  Time first = -1, second = -1;
  link.Transfer(600e6, [&] { first = simulator.Now(); });    // 1 ms.
  link.Transfer(1200e6, [&] { second = simulator.Now(); });  // +2 ms.
  simulator.Run();
  EXPECT_NEAR(sim::ToMilliseconds(first), 1.0, 0.01);
  EXPECT_NEAR(sim::ToMilliseconds(second), 3.0, 0.01);
}

TEST(InterconnectTest, IdleLinkDoesNotInheritStaleSerialization) {
  // Regression: free_at_ used to advance monotonically without being
  // clamped to Now(), so a transfer issued long after the link went idle
  // inherited the stale serialization point instead of starting fresh.
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  Time first = -1, second = -1;
  link.Transfer(600e6, [&] { first = simulator.Now(); });  // 1 ms of wire.
  simulator.ScheduleAt(sim::Seconds(1), [&] {
    link.Transfer(600e6, [&] { second = simulator.Now(); });
  });
  simulator.Run();
  EXPECT_NEAR(sim::ToMilliseconds(first), 1.0, 0.001);
  // The second transfer starts at t=1 s on an idle wire: one more 1 ms
  // of wire time, not queued behind the long-past first transfer.
  EXPECT_NEAR(sim::ToMilliseconds(second), 1001.0, 0.001);
}

TEST(InterconnectTest, BackToBackTransfersStillSerialize) {
  // Companion to the clamp regression: when the wire genuinely is busy,
  // serialization must be preserved exactly as before.
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    link.Transfer(600e6, [&] { done.push_back(simulator.Now()); });
  }
  simulator.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(sim::ToMilliseconds(done[0]), 1.0, 0.001);
  EXPECT_NEAR(sim::ToMilliseconds(done[1]), 2.0, 0.001);
  EXPECT_NEAR(sim::ToMilliseconds(done[2]), 3.0, 0.001);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 1800e6);
}

TEST(InterconnectTest, ZeroByteTransferStillHasLatency) {
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9,
                    sim::Microseconds(10));
  Time done = -1;
  link.Transfer(0.0, [&] { done = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(done, sim::Microseconds(10));
}

TEST(ClusterTest, AllocatesInstancesWithinBudget) {
  sim::Simulator simulator;
  Cluster cluster(&simulator, GpuSpec::A100(), 8);
  Instance& prefill = cluster.AddInstance(4);
  Instance& decode = cluster.AddInstance(4);
  EXPECT_EQ(cluster.num_instances(), 2u);
  EXPECT_EQ(cluster.allocated_gpus(), 8);
  EXPECT_EQ(prefill.tp_degree, 4);
  EXPECT_EQ(decode.tp_degree, 4);
  EXPECT_NE(prefill.device.get(), decode.device.get());
  EXPECT_NEAR(prefill.TotalHbmCapacity(), 320e9, 1e6);
}

TEST(ClusterDeathTest, OverAllocationIsFatal) {
  sim::Simulator simulator;
  Cluster cluster(&simulator, GpuSpec::A100(), 8);
  cluster.AddInstance(8);
  EXPECT_EXIT(cluster.AddInstance(1), ::testing::ExitedWithCode(1),
              "over-allocated");
}

TEST(ClusterTest, InstancesRunIndependently) {
  sim::Simulator simulator;
  Cluster cluster(&simulator, GpuSpec::A100(), 8);
  Instance& a = cluster.AddInstance(4);
  Instance& b = cluster.AddInstance(4);
  const StreamId sa = a.device->CreateStream(108);
  const StreamId sb = b.device->CreateStream(108);
  Time done_a = -1, done_b = -1;
  // Identical memory-bound kernels on separate instances must not
  // contend (they are distinct physical GPUs).
  a.device->Launch(sa, Kernel::Memcpy(2.039e9),
                   [&] { done_a = simulator.Now(); });
  b.device->Launch(sb, Kernel::Memcpy(2.039e9),
                   [&] { done_b = simulator.Now(); });
  simulator.Run();
  EXPECT_NEAR(sim::ToMilliseconds(done_a), 1.0, 0.02);
  EXPECT_NEAR(sim::ToMilliseconds(done_b), 1.0, 0.02);
}

}  // namespace
}  // namespace muxwise::gpu
