#include "bench/suite/replay.h"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>

#include "src/core/request_centric_policy.h"

namespace pronghorn::bench {

Replay::Replay(uint64_t seed, bool traced) {
  const std::vector<const WorkloadProfile*> profiles =
      WorkloadRegistry::Default().EvaluationSet();
  policies_.reserve(kReplayFunctions);
  specs_.reserve(kReplayFunctions);
  for (size_t i = 0; i < kReplayFunctions; ++i) {
    const WorkloadProfile* profile = profiles[i % profiles.size()];
    auto policy = RequestCentricPolicy::Create(PaperConfig(*profile, 4));
    if (!policy.ok()) {
      std::fprintf(stderr, "bad policy config: %s\n",
                   policy.status().ToString().c_str());
      std::exit(2);
    }
    policies_.push_back(std::make_unique<RequestCentricPolicy>(*std::move(policy)));
    const OrchestrationPolicy* view = policies_.back().get();
    if (traced) {
      traced_.push_back(std::make_unique<TracedPolicy>(*policies_.back(), context_));
      view = traced_.back().get();
    }
    char name[64];
    std::snprintf(name, sizeof(name), "r%05zu-%s", i, profile->name.c_str());
    SimFunctionSpec spec;
    spec.name = name;
    spec.profile = profile;
    spec.policy = view;
    spec.requests = kReplayRequests;
    specs_.push_back(std::move(spec));
  }
  options_.seed = seed;
  options_.worker_slots = 4;
  options_.exploring_slots = 1;
  options_.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options_.eviction.k = 4;
  options_.retention.mode = ReportRetention::kTopLatency;
  options_.retention.k = 32;
  // Light chaos, so the fault-recovery ladder runs.
  options_.faults.get_failure_rate = 0.01;
  options_.faults.put_failure_rate = 0.01;
  options_.faults.corruption_rate = 0.002;
  options_.faults.seed = 7;
}

Result<SimReport> Replay::RunChunk(size_t chunk, uint32_t threads, ObsSink* sink) const {
  SimOptions options = options_;
  options.threads = threads;
  const std::span<const SimFunctionSpec> functions =
      std::span<const SimFunctionSpec>(specs_).subspan(chunk * kReplayChunkFunctions,
                                                       kReplayChunkFunctions);
  return Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, functions, options,
                  sink);
}

LifecycleClock& LifecycleClock::Get() {
  static LifecycleClock clock;
  return clock;
}

LifecycleClock::Handle::~Handle() {
  if (owner != nullptr) {
    std::lock_guard<std::mutex> lock(owner->mutex_);
    owner->free_.push_back(clock);
  }
}

LifecycleClock::ThreadClock& LifecycleClock::Local() {
  thread_local Handle handle;
  if (handle.owner == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      clocks_.push_back(std::make_unique<ThreadClock>());
      handle.clock = clocks_.back().get();
    } else {
      handle.clock = free_.back();
      free_.pop_back();
    }
    handle.owner = this;
  }
  return *handle.clock;
}

uint32_t LifecycleClock::RegisterProcess(std::string_view /*name*/) {
  Local().last_ns = NowNs();
  return next_pid_.fetch_add(1, std::memory_order_relaxed);
}

void LifecycleClock::Span(ObsTrack /*track*/, std::string_view name,
                          std::string_view /*category*/, TimePoint /*begin*/,
                          Duration /*duration*/) {
  LatencyHistogram* histogram = nullptr;
  if (name == "serve") {
    histogram = &Local().latencies.serve;
  } else if (name == "provision") {
    histogram = &Local().latencies.start;
  } else if (name != "evict") {
    return;
  }
  ThreadClock& clock = Local();
  const int64_t now = NowNs();
  if (histogram != nullptr) {
    histogram->Add(static_cast<uint64_t>(now - clock.last_ns));
  }
  clock.last_ns = now;
}

CallLatencies LifecycleClock::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  CallLatencies sum;
  for (const auto& clock : clocks_) {
    sum.Merge(clock->latencies);
    clock->latencies = CallLatencies{};
  }
  return sum;
}

}  // namespace pronghorn::bench
