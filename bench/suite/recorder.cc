#include "bench/suite/recorder.h"

#include <chrono>
#include <cstdio>

namespace pronghorn::bench {

namespace {

constexpr std::array<std::string_view, kSpanKinds> kSpanNames = {
    "core.orchestrator.start",
    "core.orchestrator.serve",
    "core.orchestrator.end",
    "core.policy.decide",
    "core.policy.learn",
    "core.policy.evict",
    "checkpoint.engine.checkpoint",
    "checkpoint.engine.restore",
    "store.snapshot.put",
    "store.snapshot.open",
    "store.snapshot.read",
    "store.snapshot.delete",
    "store.kv.get",
    "store.kv.cas",
    "store.kv.other",
    "service.call.start",
    "service.call.serve",
    "service.call.end",
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view SpanName(SpanKind kind) {
  return kSpanNames[static_cast<size_t>(kind)];
}

Recorder::Recorder() : origin_ns_(NowNs()) {}

Recorder& Recorder::Get() {
  static Recorder recorder;
  return recorder;
}

Recorder::ThreadState& Recorder::Local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    state->index = static_cast<uint32_t>(threads_.size());
  }
  return *state;
}

void Recorder::Begin(Frame& frame, SpanKind kind, const CallContext* context,
                     int64_t now_ns) {
  if (!active()) {
    frame.live = false;
    return;
  }
  ThreadState& thread = Local();
  frame.kind = kind;
  frame.begin_ns = now_ns;
  frame.context = context;
  frame.parent = thread.top;
  frame.live = true;
  thread.top = &frame;
}

void Recorder::End(Frame& frame, int64_t now_ns) {
  if (!frame.live) {
    return;
  }
  ThreadState& thread = Local();
  thread.top = frame.parent;
  const size_t kind = static_cast<size_t>(frame.kind);
  const int64_t duration = now_ns - frame.begin_ns;
  thread.totals.self_ns[kind] +=
      duration - frame.child_ns.load(std::memory_order_relaxed);
  if (frame.context != nullptr &&
      frame.context->counted.load(std::memory_order_relaxed)) {
    thread.totals.calls[kind] += 1;
  }
  Frame* cause = frame.parent;
  if (cause == nullptr && frame.context != nullptr) {
    cause = frame.context->caller.load(std::memory_order_acquire);
  }
  if (cause != nullptr) {
    cause->child_ns.fetch_add(duration, std::memory_order_relaxed);
  } else {
    thread.totals.top_level_ns += duration;
  }
  if (raw_budget_.load(std::memory_order_relaxed) > 0 &&
      raw_budget_.fetch_sub(1, std::memory_order_relaxed) > 0) {
    thread.raw.push_back(RawSpan{
        frame.begin_ns, now_ns,
        frame.context != nullptr
            ? frame.context->request_id.load(std::memory_order_relaxed)
            : 0,
        frame.kind, cause != nullptr ? cause->kind : SpanKind::kCount});
  }
}

SpanTotals Recorder::Harvest() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  SpanTotals sum;
  for (const auto& thread : threads_) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      sum.calls[k] += thread->totals.calls[k];
      sum.self_ns[k] += thread->totals.self_ns[k];
    }
    sum.top_level_ns += thread->totals.top_level_ns;
  }
  return sum;
}

bool Recorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(threads_mutex_);
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& thread : threads_) {
    std::fprintf(out,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"thread %u\"}}",
                 first ? "" : ",\n", thread->index, thread->index);
    first = false;
    for (const RawSpan& span : thread->raw) {
      const std::string_view name = SpanName(span.kind);
      const std::string_view layer = name.substr(0, name.find('.'));
      const std::string_view parent =
          span.parent == SpanKind::kCount ? "" : SpanName(span.parent);
      std::fprintf(out,
                   ",\n{\"name\": \"%.*s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"request\": %llu, \"parent\": \"%.*s\"}}",
                   static_cast<int>(name.size()), name.data(),
                   static_cast<int>(layer.size()), layer.data(), thread->index,
                   static_cast<double>(span.begin_ns - origin_ns_) / 1e3,
                   static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                   static_cast<unsigned long long>(span.request_id),
                   static_cast<int>(parent.size()), parent.data());
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace pronghorn::bench
