// Unit battery for the service's bounded MPMC queue (run under TSan in CI):
// capacity backpressure, FIFO ordering, the close/drain shutdown handshake,
// the recovery-only PushFront bypass, the deadline-bounded shedding push, and
// a multi-producer/multi-consumer stress that checks conservation plus
// per-producer order as seen by each consumer. Consumers run both wait paths:
// spin-then-park (Pop with a spin budget) and park-only (budget 0). A
// spinning consumer must see a push or a close through the depth mirror and
// the closed flag alone, and the mirror must track depth() exactly.

#include "src/service/mpmc_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace pronghorn {
namespace {

TEST(MpmcQueueTest, SingleProducerFifo) {
  MpmcQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Push(i));
  }
  EXPECT_EQ(queue.depth(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.Pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(MpmcQueueTest, ZeroCapacityClampsToOne) {
  MpmcQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  ASSERT_TRUE(queue.Push(7));
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(MpmcQueueTest, FullQueueBlocksPushUntilPop) {
  MpmcQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.Push(3));  // Blocks: the queue is full.
    pushed.store(true, std::memory_order_release);
  });
  // The producer must still be parked in Push; capacity is never exceeded.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(queue.depth(), 2u);

  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(queue.depth(), 2u);

  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 3);
}

TEST(MpmcQueueTest, CloseDrainsAcceptedItemsThenFails) {
  MpmcQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(10));
  ASSERT_TRUE(queue.Push(11));
  queue.Close();

  // Pushes fail immediately after close; the items are dropped.
  EXPECT_FALSE(queue.Push(12));
  EXPECT_FALSE(queue.PushFront(13));

  // Pops drain everything accepted before the close, then return false.
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 10);
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 11);
  EXPECT_FALSE(queue.Pop(out));
  EXPECT_FALSE(queue.Pop(out));  // Idempotent: stays drained-and-closed.
}

TEST(MpmcQueueTest, CloseUnblocksParkedConsumer) {
  MpmcQueue<int> queue(2);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(out));  // Parked on empty, woken by Close.
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
}

// A spin budget that takes about a minute to spin out on the host running
// the test: the probe times the same loop Pop spins, with one poll per step
// where Pop has two.
uint64_t MinuteLongSpinBudget() {
  constexpr uint64_t kProbe = uint64_t{1} << 20;
  std::atomic<bool> never{false};
  const auto begin = std::chrono::steady_clock::now();
  SpinUntil(kProbe, [&] { return never.load(std::memory_order_acquire); });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  const double per_step = std::max(seconds / static_cast<double>(kProbe), 1e-12);
  return static_cast<uint64_t>(std::min(60.0 / per_step, 1e19));
}

// Pops from the empty `queue` on a thread with a minute-long spin budget,
// runs `wake` once that thread is well into its spin, and returns the time
// from the wake to the Pop's return. A notify cannot end a spin, only a
// park, so a return within seconds proves the spinner saw the wake's effect
// (the depth mirror or the closed flag) itself; a spinner that misses it
// returns only after tens of seconds.
template <typename Wake>
std::chrono::steady_clock::duration TimeSpinnerWake(MpmcQueue<int>& queue, Wake wake,
                                                    bool& popped, int& out) {
  const uint64_t budget = MinuteLongSpinBudget();
  std::atomic<bool> entered{false};
  std::thread consumer([&] {
    entered.store(true, std::memory_order_release);
    popped = queue.Pop(out, budget);
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto woken_at = std::chrono::steady_clock::now();
  wake();
  consumer.join();
  return std::chrono::steady_clock::now() - woken_at;
}

TEST(MpmcQueueTest, CloseEndsASpinThroughTheClosedFlag) {
  MpmcQueue<int> queue(2);
  bool popped = true;
  int out = -1;
  const auto waited = TimeSpinnerWake(queue, [&] { queue.Close(); }, popped, out);
  EXPECT_FALSE(popped);
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(MpmcQueueTest, PushEndsASpinThroughTheDepthMirror) {
  MpmcQueue<int> queue(1);
  bool popped = false;
  int out = -1;
  const auto waited = TimeSpinnerWake(queue, [&] { ASSERT_TRUE(queue.Push(7)); }, popped, out);
  EXPECT_TRUE(popped);
  EXPECT_EQ(out, 7);
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(MpmcQueueTest, PushFrontEndsASpinThroughTheDepthMirror) {
  MpmcQueue<int> queue(1);
  bool popped = false;
  int out = -1;
  const auto waited =
      TimeSpinnerWake(queue, [&] { ASSERT_TRUE(queue.PushFront(42)); }, popped, out);
  EXPECT_TRUE(popped);
  EXPECT_EQ(out, 42);
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.depth_mirror(), 0u);
}

TEST(MpmcQueueTest, DepthMirrorTracksDepthAfterEveryOperation) {
  MpmcQueue<int> queue(2);
  const auto expect_mirrored = [&](size_t depth) {
    EXPECT_EQ(queue.depth(), depth);
    EXPECT_EQ(queue.depth_mirror(), queue.depth());
  };
  expect_mirrored(0);
  ASSERT_TRUE(queue.Push(1));
  expect_mirrored(1);
  ASSERT_EQ(queue.PushWithDeadline(2, std::chrono::milliseconds(10)),
            PushOutcome::kAccepted);
  expect_mirrored(2);
  ASSERT_EQ(queue.PushWithDeadline(3, std::chrono::milliseconds(1)), PushOutcome::kShed);
  expect_mirrored(2);
  ASSERT_TRUE(queue.PushFront(0));
  expect_mirrored(3);
  int out = -1;
  ASSERT_TRUE(queue.Pop(out, kSpinIterations));
  expect_mirrored(2);
  ASSERT_TRUE(queue.Pop(out));
  expect_mirrored(1);
  ASSERT_TRUE(queue.TryPop(out));
  expect_mirrored(0);
  EXPECT_FALSE(queue.TryPop(out));
  expect_mirrored(0);
  ASSERT_TRUE(queue.Push(4));
  queue.Close();
  expect_mirrored(1);
  EXPECT_FALSE(queue.Push(5));
  EXPECT_FALSE(queue.PushFront(5));
  expect_mirrored(1);
  ASSERT_TRUE(queue.Pop(out, kSpinIterations));
  expect_mirrored(0);
  EXPECT_FALSE(queue.Pop(out, kSpinIterations));
  expect_mirrored(0);
}

// Two threads bounce a token through a pair of queues; both wait paths must
// hand every item over in order.
TEST(MpmcQueueTest, PingPongOnBothWaitPaths) {
  constexpr int kRounds = 2000;
  for (const uint64_t spin : {uint64_t{0}, kSpinIterations}) {
    MpmcQueue<int> ping(1);
    MpmcQueue<int> pong(1);
    std::thread echo([&] {
      int value = 0;
      while (ping.Pop(value, spin)) {
        ASSERT_TRUE(pong.Push(value + 1));
      }
    });
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(ping.Push(2 * i));
      int value = -1;
      ASSERT_TRUE(pong.Pop(value, spin));
      EXPECT_EQ(value, 2 * i + 1) << "spin=" << spin;
    }
    ping.Close();
    echo.join();
  }
}

TEST(MpmcQueueTest, SpinGateNeedsACorePerParticipant) {
  // One hardware thread (or an unknown count) never spins.
  for (size_t participants = 0; participants <= 8; ++participants) {
    EXPECT_FALSE(SpinFits(participants, 1));
    EXPECT_FALSE(SpinFits(participants, 0));
  }
  EXPECT_TRUE(SpinFits(2, 2));
  EXPECT_TRUE(SpinFits(4, 4));
  EXPECT_FALSE(SpinFits(5, 4));
  EXPECT_FALSE(SpinFits(16, 8));  // Oversubscribed: park at once.
}

TEST(MpmcQueueTest, TryPopNeverBlocks) {
  MpmcQueue<int> queue(2);
  int out = -1;
  EXPECT_FALSE(queue.TryPop(out));
  ASSERT_TRUE(queue.Push(5));
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(queue.TryPop(out));
}

TEST(MpmcQueueTest, PushFrontJumpsTheLineAndBypassesCapacity) {
  MpmcQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));  // Full.

  // Recovery re-queue: accepted despite the full queue, lands at the front.
  ASSERT_TRUE(queue.PushFront(0));
  EXPECT_EQ(queue.depth(), 3u);  // Briefly capacity + 1.

  int out = -1;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
}

TEST(MpmcQueueTest, PushWithDeadlineShedsOnSaturation) {
  MpmcQueue<int> queue(1);
  size_t depth = 0;

  // Space available: accepted, depth reported.
  EXPECT_EQ(queue.PushWithDeadline(1, std::chrono::milliseconds(10), &depth),
            PushOutcome::kAccepted);
  EXPECT_EQ(depth, 1u);

  // Still full at the deadline: shed, depth cites the pressure.
  depth = 0;
  EXPECT_EQ(queue.PushWithDeadline(2, std::chrono::milliseconds(10), &depth),
            PushOutcome::kShed);
  EXPECT_EQ(depth, 1u);
  EXPECT_EQ(queue.depth(), 1u);  // The shed item was dropped.

  // A consumer freeing a slot inside the window converts the wait to accept.
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    int out = 0;
    ASSERT_TRUE(queue.Pop(out));
  });
  EXPECT_EQ(queue.PushWithDeadline(3, std::chrono::milliseconds(5000), nullptr),
            PushOutcome::kAccepted);
  consumer.join();

  queue.Close();
  EXPECT_EQ(queue.PushWithDeadline(4, std::chrono::milliseconds(10), nullptr),
            PushOutcome::kClosed);
}

TEST(MpmcQueueTest, ZeroDeadlineMeansBlockForever) {
  MpmcQueue<int> queue(1);
  ASSERT_EQ(queue.PushWithDeadline(1, std::chrono::milliseconds(0), nullptr),
            PushOutcome::kAccepted);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    // Zero deadline degrades to the plain blocking Push, not an instant shed.
    EXPECT_EQ(queue.PushWithDeadline(2, std::chrono::milliseconds(0), nullptr),
              PushOutcome::kAccepted);
    pushed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load(std::memory_order_acquire));
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  producer.join();
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);

  queue.Close();
  EXPECT_EQ(queue.PushWithDeadline(3, std::chrono::milliseconds(0), nullptr),
            PushOutcome::kClosed);
}

// Multi-producer / multi-consumer stress (the TSan target). Items carry
// (producer, sequence); because the queue is FIFO, the subsequence any single
// consumer receives from one producer must be in increasing sequence order,
// and every pushed item must be popped exactly once.
TEST(MpmcQueueTest, StressConservationAndPerProducerOrder) {
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kConsumers = 4;
  constexpr uint64_t kPerProducer = 2000;
  struct Item {
    uint32_t producer = 0;
    uint64_t sequence = 0;
  };
  MpmcQueue<Item> queue(8);  // Small, so backpressure is constantly exercised.

  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push({p, i}));
      }
    });
  }

  std::vector<uint64_t> consumed(kConsumers, 0);
  std::vector<std::thread> consumers;
  for (uint32_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<uint64_t> last_seen(kProducers, 0);
      std::vector<bool> any_seen(kProducers, false);
      Item item;
      // Even consumers spin before parking, odd ones park at once.
      while (queue.Pop(item, c % 2 == 0 ? kSpinIterations : 0)) {
        if (any_seen[item.producer]) {
          EXPECT_GT(item.sequence, last_seen[item.producer])
              << "per-producer order violated at consumer " << c;
        }
        any_seen[item.producer] = true;
        last_seen[item.producer] = item.sequence;
        ++consumed[c];
      }
    });
  }

  for (std::thread& thread : producers) {
    thread.join();
  }
  queue.Close();  // Consumers drain the remainder, then their Pops fail.
  for (std::thread& thread : consumers) {
    thread.join();
  }

  uint64_t total = 0;
  for (const uint64_t count : consumed) {
    total += count;
  }
  EXPECT_EQ(total, uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.depth_mirror(), 0u);
}

}  // namespace
}  // namespace pronghorn
