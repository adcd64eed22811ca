// Unit tests for the discrete-event simulation kernel.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/channel.h"
#include "sim/histogram.h"
#include "sim/resources.h"

namespace citusx::sim {
namespace {

TEST(SimulationDeathTest, YieldInsideNoYieldScopeAborts) {
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.Spawn("holder", [&] {
          NoYieldScope no_yield;
          sim.WaitFor(1);
        });
        sim.Run();
      },
      "process 'holder' inside a NoYieldScope");
}

TEST(Simulation, YieldAfterNoYieldScopesCloseRuns) {
  Simulation sim;
  bool resumed = false;
  sim.Spawn("p", [&] {
    {
      NoYieldScope outer;
      NoYieldScope inner;
      EXPECT_EQ(NoYieldScope::depth(), 2);
    }
    sim.WaitFor(1);
    resumed = true;
  });
  sim.Run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(NoYieldScope::depth(), 0);
}

// Writes a volatile frame, recurses, then reads the frame back, so the
// optimiser can neither drop the frames nor turn the recursion into a loop.
// Frames are smaller than a page, so the first one past the stack's end
// lands on its guard page. `limit` is never reached.
int Recurse(int depth, int limit) {
  volatile char frame[512];
  for (size_t i = 0; i < sizeof(frame); i++) {
    frame[i] = static_cast<char>(depth);
  }
  if (depth == limit) return frame[0];
  return Recurse(depth + 1, limit) + frame[depth % sizeof(frame)];
}

TEST(SimulationDeathTest, StackOverflowHitsGuardPage) {
  EXPECT_DEATH(
      {
        Simulation sim;
        volatile int limit = -1;
        sim.Spawn("neighbour", [&] { sim.WaitFor(1); });
        sim.Spawn("recurse", [&] { Recurse(0, limit); });
        sim.Run();
      },
      "");
}

TEST(Simulation, ClockAdvancesOnWait) {
  Simulation sim;
  Time seen = -1;
  sim.Spawn("p", [&] {
    EXPECT_TRUE(sim.WaitFor(5 * kMillisecond));
    seen = sim.now();
  });
  sim.Run();
  EXPECT_EQ(seen, 5 * kMillisecond);
  sim.Shutdown();
}

TEST(Simulation, ProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  sim.Spawn("a", [&] {
    order.push_back(1);
    sim.WaitFor(10);
    order.push_back(3);
    sim.WaitFor(20);
    order.push_back(6);
  });
  sim.Spawn("b", [&] {
    order.push_back(2);
    sim.WaitFor(15);
    order.push_back(4);
    sim.WaitFor(5);
    order.push_back(5);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  sim.Shutdown();
}

TEST(Simulation, TieBrokenBySpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Spawn("p", [&, i] {
      sim.WaitFor(100);
      order.push_back(i);
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  sim.Shutdown();
}

TEST(Simulation, BlockAndWake) {
  Simulation sim;
  Process* sleeper = nullptr;
  Time woke_at = -1;
  sleeper = sim.Spawn("sleeper", [&] {
    EXPECT_TRUE(sim.Block());
    woke_at = sim.now();
  });
  sim.Spawn("waker", [&] {
    sim.WaitFor(42);
    sim.Wake(sleeper);
  });
  sim.Run();
  EXPECT_EQ(woke_at, 42);
  sim.Shutdown();
}

TEST(Simulation, DaemonDoesNotKeepRunAlive) {
  Simulation sim;
  int daemon_ticks = 0;
  bool worker_done = false;
  sim.Spawn(
      "daemon",
      [&] {
        while (sim.WaitFor(kSecond)) daemon_ticks++;
      },
      /*daemon=*/true);
  sim.Spawn("worker", [&] {
    sim.WaitFor(3 * kSecond + 1);
    worker_done = true;
  });
  sim.Run();
  EXPECT_TRUE(worker_done);
  EXPECT_EQ(daemon_ticks, 3);
  sim.Shutdown();
}

TEST(Simulation, ShutdownCancelsBlockedProcesses) {
  Simulation sim;
  bool got_cancel = false;
  sim.Spawn(
      "stuck",
      [&] {
        bool ok = sim.Block();
        got_cancel = !ok;
      },
      /*daemon=*/true);
  sim.Spawn("worker", [&] { sim.WaitFor(1); });
  sim.Run();
  sim.Shutdown();
  EXPECT_TRUE(got_cancel);
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation sim;
  Time child_ran_at = -1;
  sim.Spawn("parent", [&] {
    sim.WaitFor(7);
    sim.Spawn("child", [&] {
      sim.WaitFor(3);
      child_ran_at = sim.now();
    });
    sim.WaitFor(100);
  });
  sim.Run();
  EXPECT_EQ(child_ran_at, 10);
  sim.Shutdown();
}

// One seeded schedule over the kernel's whole surface: tied WaitFor and
// WaitUntil wake times, Block/Wake from processes and from the driving thread
// between two Run calls, Spawn from inside processes, daemons that outlive a
// Run, and a Shutdown that cancels parked and timer-waiting daemons. Every
// step is recorded as (now, process id, step); the trace's length and hash
// were recorded with the thread-per-process kernel, so they pin the
// interleaving itself.
TEST(Simulation, SeededScheduleMatchesRecordedTrace) {
  constexpr int kMaxChildren = 40;  // 48 workers + 3 daemons in all
  Simulation sim;
  Rng rng(20261019);
  std::vector<Process*> parked;  // workers parked in Block(), oldest first
  int children = 0;
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a over the trace
  uint64_t length = 0;
  const auto record = [&](int64_t step) {
    const Process* self = Simulation::Current();
    for (uint64_t v : {static_cast<uint64_t>(sim.now()),
                       self == nullptr ? uint64_t{0} : self->id(),
                       static_cast<uint64_t>(step)}) {
      hash = (hash ^ v) * 1099511628211ULL;
    }
    length++;
  };
  const auto wake_parked = [&](size_t i) {
    sim.Wake(parked[i]);
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
  };
  std::function<void(int)> worker = [&](int steps) {
    for (int step = 0; step < steps; step++) {
      record(step);
      switch (rng.Uniform(0, 5)) {
        case 0:
          sim.WaitFor(rng.Uniform(0, 2) * 5);
          break;
        case 1:
          sim.WaitUntil((sim.now() / 10 + 1) * 10);
          break;
        case 2:
          sim.WaitUntil(sim.now() - 1);
          break;
        case 3:
          parked.push_back(Simulation::Current());
          ASSERT_TRUE(sim.Block());
          break;
        case 4:
          if (!parked.empty()) {
            wake_parked(static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(parked.size()) - 1)));
          }
          break;
        case 5:
          if (children < kMaxChildren) {
            children++;
            const int rest = (steps - step) / 2;
            sim.Spawn("child", [&worker, rest] { worker(rest); });
          }
          break;
      }
    }
    record(1000);
  };
  // Wakes the oldest parked worker every 7 ns, so the schedule never stalls.
  sim.Spawn(
      "ticker",
      [&] {
        while (sim.WaitFor(7)) {
          record(2000);
          if (!parked.empty()) wake_parked(0);
        }
        record(2001);
      },
      /*daemon=*/true);
  Process* sleeper = sim.Spawn(
      "sleeper",
      [&] {
        for (int64_t step = 3000; sim.Block(); step++) record(step);
        record(3999);
      },
      /*daemon=*/true);
  sim.Spawn(
      "napper",
      [&] {
        record(4000);
        record(sim.WaitFor(kSecond) ? 4001 : 4002);
      },
      /*daemon=*/true);
  for (int i = 0; i < 4; i++) {
    sim.Spawn("worker", [&worker] { worker(24); });
  }
  sim.Run();
  record(static_cast<int64_t>(sim.events_processed()));
  sim.Wake(sleeper);
  for (int i = 0; i < 4; i++) {
    sim.Spawn("worker", [&worker] { worker(12); });
  }
  sim.Run();
  record(static_cast<int64_t>(sim.events_processed()));
  sim.Shutdown();
  record(static_cast<int64_t>(sim.events_processed()));
  EXPECT_EQ(length, 401u);
  EXPECT_EQ(hash, 16104422926653741732ULL);
}

TEST(CpuResource, SingleCoreSerializesWork) {
  Simulation sim;
  CpuResource cpu(&sim, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("w", [&] {
      cpu.Consume(100);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  EXPECT_EQ(done, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(cpu.busy_total(), 300);
  sim.Shutdown();
}

TEST(CpuResource, MultiCoreRunsInParallel) {
  Simulation sim;
  CpuResource cpu(&sim, 4);
  std::vector<Time> done;
  for (int i = 0; i < 4; i++) {
    sim.Spawn("w", [&] {
      cpu.Consume(100);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  EXPECT_EQ(done, (std::vector<Time>{100, 100, 100, 100}));
  sim.Shutdown();
}

TEST(DiskResource, IopsCapLimitsThroughput) {
  Simulation sim;
  // 1000 IOPS, depth 1: each op takes 1ms.
  DiskResource disk(&sim, 1000, 1);
  Time end = 0;
  sim.Spawn("w", [&] {
    disk.Io(50);
    end = sim.now();
  });
  sim.Run();
  EXPECT_EQ(end, 50 * kMillisecond);
  sim.Shutdown();
}

TEST(DiskResource, QueueDepthAllowsConcurrency) {
  Simulation sim;
  DiskResource disk(&sim, 1000, 4);  // service time 4ms per op, 4 channels
  std::vector<Time> done;
  for (int i = 0; i < 8; i++) {
    sim.Spawn("w", [&] {
      disk.Io(1);
      done.push_back(sim.now());
    });
  }
  sim.Run();
  // First 4 finish at 4ms, next 4 at 8ms: aggregate 1000 IOPS.
  ASSERT_EQ(done.size(), 8u);
  EXPECT_EQ(done[3], 4 * kMillisecond);
  EXPECT_EQ(done[7], 8 * kMillisecond);
  sim.Shutdown();
}

TEST(Semaphore, FifoOrderAndBlocking) {
  Simulation sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("w", [&, i] {
      ASSERT_TRUE(sem.Acquire());
      order.push_back(i);
      sim.WaitFor(10);
      sem.Release();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  sim.Shutdown();
}

TEST(Semaphore, TryAcquire) {
  Simulation sim;
  Semaphore sem(&sim, 2);
  int acquired = 0;
  sim.Spawn("w", [&] {
    if (sem.TryAcquire()) acquired++;
    if (sem.TryAcquire()) acquired++;
    if (sem.TryAcquire()) acquired++;  // should fail
    sem.Release();
    sem.Release();
  });
  sim.Run();
  EXPECT_EQ(acquired, 2);
  sim.Shutdown();
}

TEST(Channel, SendReceive) {
  Simulation sim;
  Channel<int> ch(&sim);
  std::vector<int> got;
  sim.Spawn("rx", [&] {
    for (int i = 0; i < 3; i++) {
      auto v = ch.Receive();
      ASSERT_TRUE(v.has_value());
      got.push_back(*v);
    }
  });
  sim.Spawn("tx", [&] {
    for (int i = 1; i <= 3; i++) {
      sim.WaitFor(10);
      ch.Send(i * 11);
    }
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
  sim.Shutdown();
}

TEST(Channel, CloseWakesReceiver) {
  Simulation sim;
  Channel<int> ch(&sim);
  bool got_nullopt = false;
  sim.Spawn("rx", [&] {
    auto v = ch.Receive();
    got_nullopt = !v.has_value();
  });
  sim.Spawn("closer", [&] {
    sim.WaitFor(5);
    ch.Close();
  });
  sim.Run();
  EXPECT_TRUE(got_nullopt);
  sim.Shutdown();
}

TEST(Channel, MultipleReceiversFifo) {
  Simulation sim;
  Channel<int> ch(&sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int r = 0; r < 2; r++) {
    sim.Spawn("rx", [&, r] {
      auto v = ch.Receive();
      ASSERT_TRUE(v.has_value());
      got.emplace_back(r, *v);
    });
  }
  sim.Spawn("tx", [&] {
    sim.WaitFor(1);
    ch.Send(100);
    sim.WaitFor(1);
    ch.Send(200);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
  sim.Shutdown();
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_NEAR(h.mean(), 50500.0, 1.0);
  // Percentiles are bucket upper bounds: allow log-bucket error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 95000.0, 95000.0 * 0.07);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 60);
  EXPECT_EQ(a.max(), 30);
  EXPECT_EQ(a.min(), 10);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 16; i++) h.Record(i);
  EXPECT_EQ(h.Percentile(100), 15);
}

TEST(Simulation, ManyEventsPerformance) {
  Simulation sim;
  int64_t total = 0;
  for (int p = 0; p < 10; p++) {
    sim.Spawn("w", [&] {
      for (int i = 0; i < 1000; i++) {
        sim.WaitFor(100);
        total++;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(total, 10000);
  EXPECT_GE(sim.events_processed(), 10000u);
  sim.Shutdown();
}

}  // namespace
}  // namespace citusx::sim
