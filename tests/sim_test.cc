#include <vector>

#include <gtest/gtest.h>

#include "src/harness/stack.h"
#include "src/sim/actor_local.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/trace/trace_context.h"

namespace ccnvme {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(100, [&] { order.push_back(2); });
  sim.Schedule(100, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ActorSleepAdvancesVirtualTime) {
  Simulator sim;
  uint64_t woke_at = 0;
  sim.Spawn("sleeper", [&] {
    Simulator::Sleep(12345);
    woke_at = Simulator::Current()->now();
  });
  sim.Run();
  EXPECT_EQ(woke_at, 12345u);
}

TEST(SimulatorTest, ActorsInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::pair<char, uint64_t>> trace;
  sim.Spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      Simulator::Sleep(10);
      trace.emplace_back('a', sim.now());
    }
  });
  sim.Spawn("b", [&] {
    for (int i = 0; i < 2; ++i) {
      Simulator::Sleep(15);
      trace.emplace_back('b', sim.now());
    }
  });
  sim.Run();
  // At t=30 both wake; b scheduled its wake event first (at t=15 vs t=20),
  // so the FIFO tie-break runs b first.
  const std::vector<std::pair<char, uint64_t>> want = {
      {'a', 10}, {'b', 15}, {'a', 20}, {'b', 30}, {'a', 30}};
  EXPECT_EQ(trace, want);
}

TEST(SimulatorTest, RunForStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&] { fired++; });
  sim.Schedule(200, [&] { fired++; });
  sim.RunFor(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ShutdownUnblocksSleepingActors) {
  Simulator sim;
  bool reached_end = false;
  sim.Spawn("stuck", [&] {
    Simulator::Sleep(1000000000ull);
    reached_end = true;
  });
  sim.RunFor(10);
  sim.Shutdown();
  EXPECT_FALSE(reached_end);
}

TEST(SimulatorTest, ShutdownUnblocksBlockedActors) {
  Simulator sim;
  SimCompletion done(&sim);
  sim.Spawn("waiter", [&] { done.Wait(); });
  sim.RunFor(10);
  sim.Shutdown();  // must not hang
}

TEST(SimMutexTest, ProvidesMutualExclusion) {
  Simulator sim;
  SimMutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn("t" + std::to_string(i), [&] {
      for (int j = 0; j < 5; ++j) {
        SimLockGuard guard(mu);
        in_critical++;
        max_in_critical = std::max(max_in_critical, in_critical);
        Simulator::Sleep(7);
        in_critical--;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
}

TEST(SimMutexTest, FifoHandoff) {
  Simulator sim;
  SimMutex mu(&sim);
  std::vector<int> order;
  sim.Spawn("holder", [&] {
    mu.Lock();
    Simulator::Sleep(100);
    mu.Unlock();
  });
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&, i] {
      Simulator::Sleep(static_cast<uint64_t>(i) + 1);  // deterministic arrival order
      mu.Lock();
      order.push_back(i);
      mu.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutexTest, TryLock) {
  Simulator sim;
  SimMutex mu(&sim);
  bool first = false;
  bool second = true;
  sim.Spawn("a", [&] {
    first = mu.TryLock();
    Simulator::Sleep(50);
    mu.Unlock();
  });
  sim.Spawn("b", [&] {
    Simulator::Sleep(10);
    second = mu.TryLock();
  });
  sim.Run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(SimCondVarTest, NotifyOneWakesOneWaiter) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  int ready = 0;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      mu.Lock();
      ready++;
      cv.Wait(mu);
      woken++;
      mu.Unlock();
    });
  }
  sim.Spawn("notifier", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(woken, 1);
  sim.Shutdown();
}

TEST(SimCondVarTest, NotifyAllWakesEveryone) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      mu.Lock();
      cv.Wait(mu);
      woken++;
      mu.Unlock();
    });
  }
  sim.Spawn("notifier", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyAll();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(SimCondVarTest, WaitForTimesOut) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  bool notified = true;
  uint64_t woke_at = 0;
  sim.Spawn("w", [&] {
    mu.Lock();
    notified = cv.WaitFor(mu, 500);
    woke_at = sim.now();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 500u);
}

TEST(SimCondVarTest, WaitForNotifiedBeforeTimeout) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  bool notified = false;
  sim.Spawn("w", [&] {
    mu.Lock();
    notified = cv.WaitFor(mu, 500);
    mu.Unlock();
  });
  sim.Spawn("n", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_TRUE(notified);
}

TEST(SimSemaphoreTest, BlocksWhenExhausted) {
  Simulator sim;
  SimSemaphore sem(&sim, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn("t" + std::to_string(i), [&] {
      sem.Acquire();
      concurrent++;
      max_concurrent = std::max(max_concurrent, concurrent);
      Simulator::Sleep(10);
      concurrent--;
      sem.Release();
    });
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 2);
}

TEST(SimCompletionTest, SignalBeforeWaitDoesNotBlock) {
  Simulator sim;
  SimCompletion done(&sim);
  bool finished = false;
  sim.Spawn("w", [&] {
    Simulator::Sleep(100);
    done.Wait();
    finished = true;
  });
  sim.Spawn("s", [&] { done.Signal(); });
  sim.Run();
  EXPECT_TRUE(finished);
}

TEST(SimQueueTest, PopBlocksUntilPush) {
  Simulator sim;
  SimQueue<int> q(&sim);
  int got = 0;
  uint64_t got_at = 0;
  sim.Spawn("consumer", [&] {
    got = q.Pop();
    got_at = sim.now();
  });
  sim.Spawn("producer", [&] {
    Simulator::Sleep(250);
    q.Push(42);
  });
  sim.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(got_at, 250u);
}

TEST(SimQueueTest, FifoOrder) {
  Simulator sim;
  SimQueue<int> q(&sim);
  std::vector<int> got;
  sim.Spawn("producer", [&] {
    for (int i = 0; i < 5; ++i) {
      q.Push(i);
    }
  });
  sim.Spawn("consumer", [&] {
    for (int i = 0; i < 5; ++i) {
      got.push_back(q.Pop());
    }
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BandwidthPipeTest, TransfersSerialize) {
  Simulator sim;
  BandwidthPipe pipe(&sim, "link", 1000000000);  // 1 GB/s => 1 byte/ns
  uint64_t a_done = 0;
  uint64_t b_done = 0;
  sim.Spawn("a", [&] {
    pipe.Transfer(1000);
    a_done = sim.now();
  });
  sim.Spawn("b", [&] {
    pipe.Transfer(1000);
    b_done = sim.now();
  });
  sim.Run();
  EXPECT_EQ(a_done, 1000u);
  EXPECT_EQ(b_done, 2000u);
  EXPECT_DOUBLE_EQ(pipe.UtilizationSince(0), 1.0);
}

TEST(BandwidthPipeTest, ZeroRateIsInfinite) {
  Simulator sim;
  BandwidthPipe pipe(&sim, "link", 0);
  uint64_t done_at = 1;
  sim.Spawn("a", [&] {
    pipe.Transfer(1 << 30);
    done_at = sim.now();
  });
  sim.Run();
  EXPECT_EQ(done_at, 0u);
}

TEST(CoreSetTest, OneActorPerCoreIsUncontended) {
  Simulator sim;
  CoreSet cores(&sim, 2, 1000);
  uint64_t a_done = 0;
  uint64_t b_done = 0;
  sim.Spawn("a", [&] {
    cores.BindCurrent(0);
    cores.Work(500);
    a_done = sim.now();
  });
  sim.Spawn("b", [&] {
    cores.BindCurrent(1);
    cores.Work(700);
    b_done = sim.now();
  });
  sim.Run();
  EXPECT_EQ(a_done, 500u);
  EXPECT_EQ(b_done, 700u);
  EXPECT_EQ(cores.context_switches(), 0u);
}

TEST(CoreSetTest, SharedCoreSerializesAndChargesSwitches) {
  Simulator sim;
  CoreSet cores(&sim, 1, 100);
  uint64_t a_done = 0;
  uint64_t b_done = 0;
  sim.Spawn("a", [&] {
    cores.BindCurrent(0);
    cores.Work(500);
    a_done = sim.now();
  });
  sim.Spawn("b", [&] {
    cores.BindCurrent(0);
    cores.Work(500);
    b_done = sim.now();
  });
  sim.Run();
  EXPECT_EQ(a_done, 500u);
  // b starts after a's reservation plus one context switch.
  EXPECT_EQ(b_done, 1100u);
  EXPECT_EQ(cores.context_switches(), 1u);
}

// --- Actors as fibers: per-actor state, nesting, scale, unwinding ----------

ActorLocal<int> test_local{42};

// The per-actor values of one observer: block-layer queue, bound core, trace
// context and a plain ActorLocal.
struct ActorView {
  uint16_t queue = 0;
  int core = 0;
  TraceContext ctx;
  int local = 0;

  static ActorView Of(StorageStack& stack, const CoreSet& cores) {
    return ActorView{stack.blk().current_queue(), cores.current_core(),
                     CurrentTraceContext(), test_local.get()};
  }
  bool operator==(const ActorView& o) const {
    return queue == o.queue && core == o.core && ctx.req_id == o.ctx.req_id &&
           ctx.tx_id == o.ctx.tx_id && ctx.device == o.ctx.device && local == o.local;
  }
};

StackConfig FourQueues() {
  StackConfig config;
  config.num_queues = 4;
  return config;
}

TEST(ActorLocalTest, NewActorStartsFromDefaults) {
  StorageStack stack(FourQueues());
  CoreSet cores(&stack.sim(), 2, 0);
  ActorView child;
  ActorView parent_after_sleep;
  stack.sim().Spawn("parent", [&] {
    stack.blk().BindQueue(3);
    cores.BindCurrent(1);
    ScopedTraceContext ctx({7, 8, 1});
    test_local.get() = 5;
    stack.sim().Spawn("child", [&] { child = ActorView::Of(stack, cores); });
    Simulator::Sleep(10);
    parent_after_sleep = ActorView::Of(stack, cores);
  });
  stack.sim().Run();
  EXPECT_EQ(child, (ActorView{0, -1, TraceContext{}, 42}));
  EXPECT_EQ(parent_after_sleep, (ActorView{3, 1, TraceContext{7, 8, 1}, 5}));
}

TEST(ActorLocalTest, ValuesStayWithTheirActor) {
  StorageStack stack(FourQueues());
  CoreSet cores(&stack.sim(), 2, 0);
  const ActorView loop_before = ActorView::Of(stack, cores);
  ActorView a_after_sleep, b_before_set, b_after_sleep, in_callback;
  stack.sim().Spawn("a", [&] {
    stack.blk().BindQueue(2);
    cores.BindCurrent(1);
    MutableTraceContext() = {11, 12, 0};
    test_local.get() = 1;
    Simulator::Sleep(100);
    a_after_sleep = ActorView::Of(stack, cores);
    MutableTraceContext() = {};
  });
  stack.sim().Spawn("b", [&] {
    Simulator::Sleep(50);  // a is parked with its values set
    b_before_set = ActorView::Of(stack, cores);
    stack.blk().BindQueue(1);
    cores.BindCurrent(0);
    MutableTraceContext() = {21, 22, 2};
    test_local.get() = 2;
    Simulator::Sleep(100);
    b_after_sleep = ActorView::Of(stack, cores);
    MutableTraceContext() = {};
  });
  stack.sim().Schedule(75, [&] { in_callback = ActorView::Of(stack, cores); });
  stack.sim().Run();
  EXPECT_EQ(a_after_sleep, (ActorView{2, 1, TraceContext{11, 12, 0}, 1}));
  EXPECT_EQ(b_before_set, (ActorView{0, -1, TraceContext{}, 42}));
  EXPECT_EQ(b_after_sleep, (ActorView{1, 0, TraceContext{21, 22, 2}, 2}));
  EXPECT_EQ(in_callback, loop_before);
  EXPECT_EQ(ActorView::Of(stack, cores), loop_before);
}

TEST(SimulatorTest, NestedSimulatorRunsInsideAnActor) {
  Simulator outer;
  std::vector<std::pair<char, uint64_t>> inner_trace;
  bool inner_actors_saw_inner = true;
  int callback_local = 0;
  uint64_t inner_end = 0;
  uint64_t outer_end = 0;
  int outer_local_after = 0;
  Actor* outer_actor = outer.Spawn("outer", [&] {
    test_local.get() = 9;
    Simulator::Sleep(5);
    {
      Simulator inner;
      SimCompletion never(&inner);
      for (char name : {'x', 'y'}) {
        inner.Spawn(std::string(1, name), [&, name] {
          for (int i = 0; i < 2; ++i) {
            Simulator::Sleep(name == 'x' ? 10 : 15);
            inner_trace.emplace_back(name, inner.now());
            inner_actors_saw_inner &= Simulator::Current() == &inner;
          }
        });
      }
      // Parked until the inner simulator is destroyed from this actor.
      inner.Spawn("parked", [&] { never.Wait(); });
      // The inner loop runs on this actor, so its callbacks see this copy.
      inner.Schedule(1, [&] { callback_local = test_local.get(); });
      inner.Run();
      inner_end = inner.now();
    }
    EXPECT_EQ(Simulator::Current(), &outer);
    EXPECT_EQ(Simulator::CurrentActor()->name(), "outer");
    outer_local_after = test_local.get();
    Simulator::Sleep(10);
    outer_end = outer.now();
  });
  outer.Run();
  const std::vector<std::pair<char, uint64_t>> want = {
      {'x', 10}, {'y', 15}, {'x', 20}, {'y', 30}};
  EXPECT_EQ(inner_trace, want);
  EXPECT_TRUE(inner_actors_saw_inner);
  EXPECT_EQ(callback_local, 9);
  EXPECT_EQ(inner_end, 30u);
  EXPECT_EQ(outer_local_after, 9);
  EXPECT_EQ(outer_end, 15u);
  EXPECT_TRUE(outer_actor->done());
}

// Counts destructor runs, to observe stack unwinding.
struct UnwindCounter {
  explicit UnwindCounter(int* count) : count_(count) {}
  ~UnwindCounter() { ++*count_; }
  int* count_;
};

TEST(SimulatorTest, TenThousandBlockedActors) {
  constexpr int kActors = 10000;
  Simulator sim;
  SimCompletion gate(&sim);
  int started = 0;
  int unwound = 0;
  int finished = 0;
  for (int i = 0; i < kActors; ++i) {
    sim.Spawn("blocked" + std::to_string(i), [&, i] {
      UnwindCounter guard(&unwound);
      ++started;
      Simulator::Sleep(static_cast<uint64_t>(i % 7));
      gate.Wait();
      ++finished;
    });
  }
  sim.RunFor(100);
  EXPECT_EQ(started, kActors);
  EXPECT_EQ(unwound, 0);
  sim.Shutdown();
  EXPECT_EQ(unwound, kActors);
  EXPECT_EQ(finished, 0);
}

TEST(SimulatorTest, ShutdownUnwindsParkedStacks) {
  Simulator sim;
  SimCompletion never(&sim);
  SimMutex mu(&sim);
  int unwound = 0;
  bool body_ran = false;
  bool passed_park = false;
  // Parks several frames deep, holding a lock guard, so unwinding crosses
  // user frames and a sync-primitive destructor.
  std::function<void(int)> descend = [&](int depth) {
    UnwindCounter guard(&unwound);
    if (depth == 0) {
      SimLockGuard lock(mu);
      never.Wait();
      passed_park = true;
      return;
    }
    descend(depth - 1);
  };
  Actor* waiter = sim.Spawn("waiter", [&] { descend(3); });
  Actor* sleeper = sim.Spawn("sleeper", [&] {
    UnwindCounter guard(&unwound);
    Simulator::Sleep(1000000);
    passed_park = true;
  });
  sim.RunFor(10);
  Actor* late = sim.Spawn("late", [&] { body_ran = true; });
  sim.Shutdown();
  EXPECT_EQ(unwound, 5);  // four frames of |descend| plus the sleeper
  EXPECT_FALSE(passed_park);
  EXPECT_FALSE(body_ran);
  EXPECT_TRUE(waiter->done());
  EXPECT_TRUE(sleeper->done());
  EXPECT_TRUE(late->done());
}

}  // namespace
}  // namespace ccnvme
