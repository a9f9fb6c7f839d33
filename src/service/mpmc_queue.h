// Bounded multi-producer multi-consumer queue for the orchestrator service.
//
// Producers (service clients) block in Push when the queue is full — the
// service's backpressure — and consumers (shard threads) block in Pop until
// work arrives or the queue is closed. Close() is the shutdown handshake:
// pushes fail immediately, pops drain whatever is already queued and then
// return false, so every accepted request is still answered before a shard
// thread exits.
//
// Spin-then-park: a Pop given a spin budget first polls a lock-free depth
// mirror and the closed flag for up to that many CPU-relax iterations, and
// only then parks on the condition variable (DESIGN.md §11). On a free core
// that skips the futex sleep/wake pair, which dominates a round trip.
//
// Happens-before: every item moves under the mutex, so the producer's unlock
// and the consumer's lock are still the edge that makes a pushed item (and
// everything its producer wrote before the push) visible to its consumer.
// The mirror and the closed flag are stored with release under that mutex
// and loaded with acquire by a spinning consumer; that pair only tells the
// consumer when taking the lock will not block — a mirror read is never
// used to touch an item.

#ifndef PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_
#define PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace pronghorn {

// Outcome of a deadline-bounded push.
enum class PushOutcome {
  kAccepted = 0,  // Item enqueued.
  kClosed = 1,    // Queue closed; item dropped.
  kShed = 2,      // Still full at the deadline; item dropped (backpressure).
};

// Spin budget of one service spin-then-park wait, in CPU-relax iterations.
// A count, not a duration: src/ reads no wall clock outside src/obs/. Sized
// for x86, where `pause` takes tens of nanoseconds and the budget covers a
// few tens of microseconds — about one service round trip — before the
// waiter gives up its core and parks. Not measured on aarch64, where `yield`
// is far cheaper (DESIGN.md §11).
inline constexpr uint64_t kSpinIterations = 1024;

// One polite busy-wait step: tells the core (and an SMT sibling) that this
// thread is spinning.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Polls `ready` up to `budget` times, returning as soon as it holds.
template <typename Ready>
void SpinUntil(uint64_t budget, Ready ready) {
  for (uint64_t i = 0; i < budget && !ready(); ++i) {
    CpuRelax();
  }
}

// The participant gate: spinning pays only while every thread that takes
// part in a handoff has a core of its own. One hardware thread never spins
// (the waiter would only delay the thread it is waiting for); neither does
// a host whose core count is unknown (0).
inline bool SpinFits(size_t participants, unsigned hardware_threads) {
  return hardware_threads > 1 && participants <= hardware_threads;
}

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Blocks while the queue is full; false when the queue was closed (the item
  // is dropped). `depth_after` (optional) receives the queue depth right
  // after the push — the service's queue-depth gauge.
  bool Push(T item, size_t* depth_after = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
      PublishDepth();
      if (depth_after != nullptr) {
        *depth_after = items_.size();
      }
    }
    not_empty_.notify_one();
    return true;
  }

  // Push that gives up when the queue is still full after `deadline` of host
  // time — the service's load-shedding decision point. A zero deadline means
  // wait forever (identical to Push). On kShed, `depth_after` receives the
  // depth observed at the deadline so the shed reply can cite the pressure.
  PushOutcome PushWithDeadline(T item, std::chrono::milliseconds deadline,
                               size_t* depth_after = nullptr) {
    if (deadline.count() <= 0) {
      return Push(std::move(item), depth_after) ? PushOutcome::kAccepted
                                                : PushOutcome::kClosed;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const bool ready = not_full_.wait_for(
          lock, deadline, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) {
        return PushOutcome::kClosed;
      }
      if (!ready) {
        if (depth_after != nullptr) {
          *depth_after = items_.size();
        }
        return PushOutcome::kShed;
      }
      items_.push_back(std::move(item));
      PublishDepth();
      if (depth_after != nullptr) {
        *depth_after = items_.size();
      }
    }
    not_empty_.notify_one();
    return PushOutcome::kAccepted;
  }

  // Re-queues an item at the FRONT, bypassing the capacity bound (the queue
  // may briefly hold capacity+1 items). Recovery only: a crashed shard's
  // parked envelope must re-enter ahead of everything behind it so the
  // arrival order — and with it the simulation trajectory — is preserved.
  // False when the queue is closed.
  bool PushFront(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_front(std::move(item));
      PublishDepth();
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available; false once the queue is closed AND
  // drained (consumers see every item accepted before the close). The
  // consumer first polls the depth mirror and the closed flag for up to
  // `spin_budget` CPU-relax steps; with 0 it parks at once.
  bool Pop(T& out, uint64_t spin_budget = 0) {
    SpinUntil(spin_budget, [&] {
      return depth_mirror_.load(std::memory_order_acquire) != 0 ||
             closed_.load(std::memory_order_acquire);
    });
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) {
        return false;
      }
      out = std::move(items_.front());
      items_.pop_front();
      PublishDepth();
    }
    not_full_.notify_one();
    return true;
  }

  // Non-blocking pop; false when the queue is currently empty.
  bool TryPop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (items_.empty()) {
        return false;
      }
      out = std::move(items_.front());
      items_.pop_front();
      PublishDepth();
    }
    not_full_.notify_one();
    return true;
  }

  void Close() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_release);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t depth() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return items_.size();
  }

  // Lock-free read of the depth mirror; equals depth() whenever no operation
  // is in flight.
  size_t depth_mirror() const { return depth_mirror_.load(std::memory_order_acquire); }

  size_t capacity() const { return capacity_; }

 private:
  // Mirrors items_.size() for spinning consumers (mutex held).
  void PublishDepth() { depth_mirror_.store(items_.size(), std::memory_order_release); }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  // Written only under mutex_; atomic so a spinning Pop can poll them.
  std::atomic<size_t> depth_mirror_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_
