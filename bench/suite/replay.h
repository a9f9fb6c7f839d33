// The replay workload's fixture: the researcher's fleet replay through the
// public Simulate(kFleet) entry point.
//
// The fleet is kReplayFunctions functions of kReplayRequests requests each,
// replayed as kReplayChunkFunctions-function Simulate calls so that a timed
// phase of a few seconds covers several calls. Every call's digest is a
// pure function of the seed and the chunk, so a chunk replayed twice must
// hash the same.

#ifndef PRONGHORN_BENCH_SUITE_REPLAY_H_
#define PRONGHORN_BENCH_SUITE_REPLAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "bench/suite/fixture.h"
#include "bench/suite/recorder.h"
#include "bench/suite/traced.h"
#include "src/obs/sink.h"
#include "src/platform/simulate.h"

namespace pronghorn::bench {

inline constexpr size_t kReplayFunctions = 8192;
inline constexpr size_t kReplayChunkFunctions = 1024;
inline constexpr uint64_t kReplayRequests = 256;
inline constexpr uint32_t kReplayThreads = 4;

class Replay {
 public:
  // `traced` wraps every function's policy in a TracedPolicy.
  Replay(uint64_t seed, bool traced);

  size_t chunks() const { return kReplayFunctions / kReplayChunkFunctions; }
  Result<SimReport> RunChunk(size_t chunk, uint32_t threads, ObsSink* sink) const;
  // The context every traced policy reports to; the driver sets `counted`
  // for the chunk whose calls are counted.
  CallContext& context() { return context_; }

 private:
  CallContext context_;
  std::vector<std::unique_ptr<OrchestrationPolicy>> policies_;
  std::vector<std::unique_ptr<TracedPolicy>> traced_;
  std::vector<SimFunctionSpec> specs_;
  SimOptions options_;
};

// Wall latency of the platform's StartWorker and ServeRequest calls inside
// Simulate, read from the lifecycle events the simulation kernel emits on
// its ObsSink seam: "provision" right after a worker starts, "serve" right
// after a request is served, "evict" right after a worker ends. Each event
// closes the interval opened by the previous event on the same thread, and
// registering a deployment opens the first one. All other emissions are
// ignored.
class LifecycleClock final : public ObsSink {
 public:
  // Process-wide, like the Recorder: threads keep a handle to it until exit.
  static LifecycleClock& Get();

  LifecycleClock(const LifecycleClock&) = delete;
  LifecycleClock& operator=(const LifecycleClock&) = delete;

  uint32_t RegisterProcess(std::string_view name) override;
  void RegisterThread(ObsTrack /*track*/, std::string_view /*name*/) override {}
  void Counter(std::string_view /*name*/, uint64_t /*delta*/) override {}
  void Gauge(std::string_view /*name*/, double /*value*/) override {}
  void Observe(std::string_view /*histogram*/, Duration /*value*/) override {}
  void Span(ObsTrack track, std::string_view name, std::string_view category,
            TimePoint begin, Duration duration) override;
  void Instant(ObsTrack /*track*/, std::string_view /*name*/,
               std::string_view /*category*/, TimePoint /*at*/) override {}

  // Returns and clears everything recorded so far. Call while no Simulate
  // call is running.
  CallLatencies Take();

 private:
  struct ThreadClock {
    int64_t last_ns = 0;
    CallLatencies latencies;
  };
  // Returns a thread's clock to the pool when the thread exits, so the
  // pool threads of successive Simulate calls reuse a few clocks.
  struct Handle {
    LifecycleClock* owner = nullptr;
    ThreadClock* clock = nullptr;
    ~Handle();
  };

  LifecycleClock() = default;
  ThreadClock& Local();

  std::atomic<uint32_t> next_pid_{1};
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadClock>> clocks_;
  std::vector<ThreadClock*> free_;
};

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_SUITE_REPLAY_H_
