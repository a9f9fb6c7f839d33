#include "bench/suite/traced.h"

#include <utility>

namespace pronghorn::bench {

namespace {

class TracedReader final : public SnapshotReader {
 public:
  TracedReader(std::unique_ptr<SnapshotReader> inner, const CallContext& context)
      : inner_(std::move(inner)), context_(context) {}

  ~TracedReader() override {
    inner_.reset();
    if (reading_) {
      Recorder::Get().End(frame_, NowNs());
    }
  }

  TracedReader(const TracedReader&) = delete;
  TracedReader& operator=(const TracedReader&) = delete;

  const SnapshotRef& ref() const override { return inner_->ref(); }

  Result<ObjectBlob> ReadAll() override {
    if (!reading_) {
      Recorder::Get().Begin(frame_, SpanKind::kSnapshotRead, &context_, NowNs());
      reading_ = true;
    }
    return inner_->ReadAll();
  }

 private:
  std::unique_ptr<SnapshotReader> inner_;
  const CallContext& context_;
  Frame frame_;
  bool reading_ = false;
};

}  // namespace

StartDecision TracedPolicy::OnWorkerStart(const PolicyState& state, Rng& rng) const {
  ScopedSpan span(SpanKind::kPolicyDecide, &context_);
  return inner_.OnWorkerStart(state, rng);
}

void TracedPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                     Duration latency) const {
  ScopedSpan span(SpanKind::kPolicyLearn, &context_);
  inner_.OnRequestComplete(state, request_number, latency);
}

std::vector<PoolEntry> TracedPolicy::OnSnapshotAdded(PolicyState& state,
                                                     Rng& rng) const {
  ScopedSpan span(SpanKind::kPolicyEvict, &context_);
  return inner_.OnSnapshotAdded(state, rng);
}

Result<CheckpointOutcome> TracedEngine::Checkpoint(const RuntimeProcess& process,
                                                   SnapshotId id, TimePoint now) {
  ScopedSpan span(SpanKind::kEngineCheckpoint, &context_);
  return inner_.Checkpoint(process, id, now);
}

Result<RestoreOutcome> TracedEngine::Restore(const SnapshotImage& image,
                                             const WorkloadRegistry& registry) {
  ScopedSpan span(SpanKind::kEngineRestore, &context_);
  return inner_.Restore(image, registry);
}

Result<SnapshotRef> TracedSnapshotStore::PutSnapshot(std::string_view key,
                                                     ObjectBlob blob) {
  ScopedSpan span(SpanKind::kSnapshotPut, &context_);
  return inner_.PutSnapshot(key, std::move(blob));
}

Result<std::unique_ptr<SnapshotReader>> TracedSnapshotStore::OpenSnapshot(
    std::string_view key) {
  ScopedSpan span(SpanKind::kSnapshotOpen, &context_);
  auto reader = inner_.OpenSnapshot(key);
  if (!reader.ok()) {
    return reader.status();
  }
  return std::unique_ptr<SnapshotReader>(
      std::make_unique<TracedReader>(*std::move(reader), context_));
}

Status TracedSnapshotStore::DeleteSnapshot(std::string_view key) {
  ScopedSpan span(SpanKind::kSnapshotDelete, &context_);
  return inner_.DeleteSnapshot(key);
}

Status TracedKvDatabase::Put(std::string_view key, std::vector<uint8_t> value) {
  ScopedSpan span(SpanKind::kKvOther, &context_);
  return inner_.Put(key, std::move(value));
}

Result<std::vector<uint8_t>> TracedKvDatabase::Get(std::string_view key) {
  ScopedSpan span(SpanKind::kKvGet, &context_);
  return inner_.Get(key);
}

Result<VersionedValue> TracedKvDatabase::GetVersioned(std::string_view key) {
  ScopedSpan span(SpanKind::kKvGet, &context_);
  return inner_.GetVersioned(key);
}

Status TracedKvDatabase::CompareAndSwap(std::string_view key, uint64_t expected_version,
                                        std::vector<uint8_t> value) {
  ScopedSpan span(SpanKind::kKvCas, &context_);
  return inner_.CompareAndSwap(key, expected_version, std::move(value));
}

Status TracedKvDatabase::Delete(std::string_view key) {
  ScopedSpan span(SpanKind::kKvOther, &context_);
  return inner_.Delete(key);
}

Result<int64_t> TracedKvDatabase::Increment(std::string_view key) {
  ScopedSpan span(SpanKind::kKvOther, &context_);
  return inner_.Increment(key);
}

std::vector<std::string> TracedKvDatabase::ListKeys(std::string_view prefix) const {
  ScopedSpan span(SpanKind::kKvOther, &context_);
  return inner_.ListKeys(prefix);
}

}  // namespace pronghorn::bench
