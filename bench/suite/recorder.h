// Span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files only: the driver opens
// one around every Orchestrator / ServiceClient call, and the decorators in
// traced.h open one around every call the Orchestrator makes into a policy,
// checkpoint engine, snapshot store or key-value database. Each span has a
// kind (its layer and operation), a start and end on the steady clock, the
// span that caused it, and the id of the request it serves.
//
// Aggregates are thread-local and kept for the whole run: per kind, the
// calls made inside the counting window and the self time (duration minus
// the time covered by child spans). A child is the enclosing span on the
// same thread or, for a span a service shard opens on behalf of a blocked
// client, the client's open call span published in the function's
// CallContext. Raw spans are kept for a bounded window and written as
// Chrome trace JSON at exit.

#ifndef PRONGHORN_BENCH_SUITE_RECORDER_H_
#define PRONGHORN_BENCH_SUITE_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pronghorn::bench {

// Steady-clock nanoseconds; the benchmark's only clock.
int64_t NowNs();

enum class SpanKind : uint8_t {
  kOrchestratorStart,
  kOrchestratorServe,
  kOrchestratorEnd,
  kPolicyDecide,
  kPolicyLearn,
  kPolicyEvict,
  kEngineCheckpoint,
  kEngineRestore,
  kSnapshotPut,
  kSnapshotOpen,
  kSnapshotRead,
  kSnapshotDelete,
  kKvGet,
  kKvCas,
  kKvOther,
  kCallStart,
  kCallServe,
  kCallEnd,
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

// Metric-name prefix of a span kind, e.g. "core.policy.decide".
std::string_view SpanName(SpanKind kind);

struct Frame;

// What the driver publishes about the call it is making for one function.
// Decorators read it on whichever thread runs the call (the driver thread,
// or a service shard while the driver blocks in the call).
struct CallContext {
  std::atomic<uint64_t> request_id{0};
  // True when the request falls inside the counting window, so that
  // calls_per_kreq counts a fixed, seed-determined set of requests.
  std::atomic<bool> counted{false};
  // The driver's open call span while a service shard serves the call.
  std::atomic<Frame*> caller{nullptr};
};

// One open span. Lives on the stack of the code that opened it.
struct Frame {
  SpanKind kind = SpanKind::kCount;
  int64_t begin_ns = 0;
  std::atomic<int64_t> child_ns{0};
  Frame* parent = nullptr;
  const CallContext* context = nullptr;
  bool live = false;
};

struct SpanTotals {
  std::array<uint64_t, kSpanKinds> calls{};
  std::array<int64_t, kSpanKinds> self_ns{};
  // Time covered by spans with no parent: the traced wall a span accounts for.
  int64_t top_level_ns = 0;
};

// Process-wide recorder. Inactive spans cost one relaxed load.
class Recorder {
 public:
  static Recorder& Get();

  void set_active(bool active) { active_.store(active, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  void Begin(Frame& frame, SpanKind kind, const CallContext* context, int64_t now_ns);
  void End(Frame& frame, int64_t now_ns);

  // Sums every thread's aggregates. Call only while no span is open.
  SpanTotals Harvest() const;
  // Writes the raw-span window as Chrome trace_event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct RawSpan {
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    uint64_t request_id = 0;
    SpanKind kind = SpanKind::kCount;
    SpanKind parent = SpanKind::kCount;
  };
  struct ThreadState {
    uint32_t index = 0;
    Frame* top = nullptr;
    SpanTotals totals;
    std::vector<RawSpan> raw;
  };

  Recorder();
  ThreadState& Local();

  // Raw spans kept across all threads; the trace file stays under 10 MB.
  static constexpr int64_t kRawSpanBudget = 50000;

  std::atomic<bool> active_{false};
  std::atomic<int64_t> raw_budget_{kRawSpanBudget};
  const int64_t origin_ns_;
  mutable std::mutex threads_mutex_;
  // Owned here rather than by the threads, so aggregates outlive pool
  // threads that exit before the harvest.
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// RAII span for the decorators.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, const CallContext* context) {
    Recorder::Get().Begin(frame_, kind, context, NowNs());
  }
  ~ScopedSpan() { Recorder::Get().End(frame_, NowNs()); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Frame frame_;
};

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_SUITE_RECORDER_H_
