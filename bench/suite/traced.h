// Decorators the traced run installs between the Orchestrator and the layers
// it calls. Each forwards to the raw object it wraps and opens one span per
// call; the untraced run installs the raw objects, so it pays nothing.

#ifndef PRONGHORN_BENCH_SUITE_TRACED_H_
#define PRONGHORN_BENCH_SUITE_TRACED_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/suite/recorder.h"
#include "src/checkpoint/engine.h"
#include "src/core/policy.h"
#include "src/store/kv_database.h"
#include "src/store/snapshot_store.h"

namespace pronghorn::bench {

// core.policy.decide | learn | evict
class TracedPolicy final : public OrchestrationPolicy {
 public:
  TracedPolicy(const OrchestrationPolicy& inner, const CallContext& context)
      : inner_(inner), context_(context) {}

  std::string_view name() const override { return inner_.name(); }
  const PolicyConfig& config() const override { return inner_.config(); }
  StartDecision OnWorkerStart(const PolicyState& state, Rng& rng) const override;
  void OnRequestComplete(PolicyState& state, uint64_t request_number,
                         Duration latency) const override;
  std::vector<PoolEntry> OnSnapshotAdded(PolicyState& state, Rng& rng) const override;

 private:
  const OrchestrationPolicy& inner_;
  const CallContext& context_;
};

// checkpoint.engine.checkpoint | restore
class TracedEngine final : public CheckpointEngine {
 public:
  TracedEngine(CheckpointEngine& inner, const CallContext& context)
      : inner_(inner), context_(context) {}

  Result<CheckpointOutcome> Checkpoint(const RuntimeProcess& process, SnapshotId id,
                                       TimePoint now) override;
  Result<RestoreOutcome> Restore(const SnapshotImage& image,
                                 const WorkloadRegistry& registry) override;

 private:
  CheckpointEngine& inner_;
  const CallContext& context_;
};

// store.snapshot.put | open | read | delete. A read span runs from ReadAll
// through the reader's destruction, so unpinning and closing the snapshot
// are charged to it.
class TracedSnapshotStore final : public SnapshotStore {
 public:
  TracedSnapshotStore(SnapshotStore& inner, const CallContext& context)
      : inner_(inner), context_(context) {}

  Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) override;
  Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) override;
  Status DeleteSnapshot(std::string_view key) override;
  bool ContainsSnapshot(std::string_view key) const override {
    return inner_.ContainsSnapshot(key);
  }
  std::vector<std::string> ListSnapshots(std::string_view prefix) const override {
    return inner_.ListSnapshots(prefix);
  }
  Status Pin(std::string_view key) override { return inner_.Pin(key); }
  Status Unpin(std::string_view key) override { return inner_.Unpin(key); }
  uint64_t CollectGarbage() override { return inner_.CollectGarbage(); }
  StoreAccounting accounting() const override { return inner_.accounting(); }

 private:
  SnapshotStore& inner_;
  const CallContext& context_;
};

// store.kv.get (Get, GetVersioned) | cas | other (Put, Delete, Increment,
// ListKeys)
class TracedKvDatabase final : public KvDatabase {
 public:
  TracedKvDatabase(KvDatabase& inner, const CallContext& context)
      : inner_(inner), context_(context) {}

  Status Put(std::string_view key, std::vector<uint8_t> value) override;
  Result<std::vector<uint8_t>> Get(std::string_view key) override;
  Result<VersionedValue> GetVersioned(std::string_view key) override;
  Status CompareAndSwap(std::string_view key, uint64_t expected_version,
                        std::vector<uint8_t> value) override;
  Status Delete(std::string_view key) override;
  Result<int64_t> Increment(std::string_view key) override;
  std::vector<std::string> ListKeys(std::string_view prefix) const override;
  KvAccounting accounting() const override { return inner_.accounting(); }

 private:
  KvDatabase& inner_;
  const CallContext& context_;
};

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_SUITE_TRACED_H_
