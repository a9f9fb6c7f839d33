#include "src/service/orchestrator_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/sink.h"

namespace pronghorn {

namespace {

// Set by ShardLoop around the envelope a kPreTruncate crash targets: the
// group commit runs, but the truncate that should follow it is suppressed, so
// recovery replays records that already landed — the high-water-mark dedup's
// torture test. Thread-local because FlushSlot is reached from deep call
// chains that do not know which shard (if any) is executing them.
thread_local bool t_suppress_truncate = false;

// This thread's membership in the caller-thread counts of the services it
// has called into. A thread joins a service's count on its first Call() and
// leaves every count it joined when it exits. Holding a count's shared
// owner keeps it alive past its service, so a late exit never touches freed
// memory.
class CallerThreadMembership {
 public:
  CallerThreadMembership() = default;
  CallerThreadMembership(const CallerThreadMembership&) = delete;
  CallerThreadMembership& operator=(const CallerThreadMembership&) = delete;

  ~CallerThreadMembership() {
    for (const auto& count : joined_) {
      count->fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void Join(const std::shared_ptr<std::atomic<uint32_t>>& count) {
    if (std::find(joined_.begin(), joined_.end(), count) != joined_.end()) {
      return;
    }
    // Drop counts whose service is gone (this thread holds the last owner),
    // so a thread that outlives many services does not keep them all.
    joined_.erase(std::remove_if(joined_.begin(), joined_.end(),
                                 [](const auto& joined) { return joined.use_count() == 1; }),
                  joined_.end());
    count->fetch_add(1, std::memory_order_relaxed);
    joined_.push_back(count);
  }

 private:
  std::vector<std::shared_ptr<std::atomic<uint32_t>>> joined_;
};

ServiceResponse ErrorResponse(const Status& status) {
  ServiceResponse response;
  response.type = WireType::kError;
  response.code = status.code();
  response.message = status.message();
  return response;
}

void NoteMax(std::atomic<uint64_t>& slot, uint64_t candidate) {
  uint64_t prev = slot.load(std::memory_order_relaxed);
  while (candidate > prev &&
         !slot.compare_exchange_weak(prev, candidate, std::memory_order_relaxed)) {
  }
}

}  // namespace

OrchestratorService::OrchestratorService(ServiceConfig config)
    : config_(std::move(config)), hardware_threads_(std::thread::hardware_concurrency()) {
  config_.shards = std::max<uint32_t>(config_.shards, 1);
  config_.max_batch = std::max<uint32_t>(config_.max_batch, 1);
  config_.max_burst = std::max<uint32_t>(config_.max_burst, 1);
  crash_fired_.assign(config_.faults.crashes.size(), 0);
  stall_fired_.assign(config_.faults.stalls.size(), 0);
  std::unique_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
  Start();
}

OrchestratorService::~OrchestratorService() { Shutdown(); }

void OrchestratorService::Start() {
  queues_.clear();
  shard_threads_.clear();
  for (uint32_t i = 0; i < config_.shards; ++i) {
    queues_.push_back(std::make_unique<MpmcQueue<Envelope>>(config_.queue_capacity));
  }
  // Op counters persist across Reconfigure (at_op counts a shard's whole
  // history); parked slots are per-shard scratch.
  if (shard_ops_.size() < config_.shards) {
    shard_ops_.resize(config_.shards, 0);
  }
  parked_.resize(std::max<size_t>(parked_.size(), config_.shards));
  dead_shards_.clear();
  running_.store(true, std::memory_order_release);
  shard_threads_.reserve(config_.shards);
  for (uint32_t i = 0; i < config_.shards; ++i) {
    shard_threads_.emplace_back(&OrchestratorService::ShardLoop, this, i);
  }
  if (!config_.faults.crashes.empty()) {
    supervisor_stop_ = false;
    supervisor_thread_ = std::thread(&OrchestratorService::SupervisorLoop, this);
  }
}

void OrchestratorService::Stop() {
  // Stop the supervisor first: it may be mid-recovery (joining a dead shard,
  // replaying its journals, restarting its thread). Letting it finish before
  // the queues close keeps every parked envelope answerable, and joining it
  // before touching shard_threads_ below means thread-slot writes never race.
  {
    std::unique_lock<std::mutex> lock(supervisor_mutex_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_thread_.joinable()) {
    supervisor_thread_.join();
  }
  running_.store(false, std::memory_order_release);
  for (const auto& queue : queues_) {
    queue->Close();
  }
  for (std::thread& thread : shard_threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  shard_threads_.clear();
  // A shard that crashed after the supervisor stopped leaves parked or queued
  // envelopes no thread will ever answer: fail them instead of stranding
  // their callers. (Its journal keeps the unflushed records; the next Bind
  // against the same directory replays them.)
  for (uint32_t shard = 0; shard < queues_.size(); ++shard) {
    if (shard < parked_.size() && parked_[shard].has_value()) {
      Reply(*parked_[shard],
            ErrorResponse(UnavailableError("service shut down during crash recovery")));
      parked_[shard].reset();
      stats_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
    }
    Envelope leftover;
    while (queues_[shard]->TryPop(leftover)) {
      if (leftover.gate != nullptr) {
        std::unique_lock<std::mutex> lock(leftover.gate->mutex);
        leftover.gate->remaining -= 1;
        if (leftover.gate->remaining == 0) {
          leftover.gate->cv.notify_all();
        }
        continue;
      }
      Reply(leftover, ErrorResponse(UnavailableError("service shut down with a dead shard")));
      stats_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

uint32_t OrchestratorService::ShardOf(uint64_t name_hash) const {
  return static_cast<uint32_t>(name_hash % config_.shards);
}

bool OrchestratorService::GateSpin(uint32_t shards) {
  const bool spin = SpinFits(
      size_t{shards} + caller_threads_->load(std::memory_order_relaxed), hardware_threads_);
  if (spin) {
    stats_.spin_waits.fetch_add(1, std::memory_order_relaxed);
  }
  return spin;
}

uint32_t OrchestratorService::shard_count() const {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
  return config_.shards;
}

ServiceStatsSnapshot OrchestratorService::stats() const {
  ServiceStatsSnapshot out;
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.start_decisions = stats_.start_decisions.load(std::memory_order_relaxed);
  out.observations = stats_.observations.load(std::memory_order_relaxed);
  out.plan_requests = stats_.plan_requests.load(std::memory_order_relaxed);
  out.observations_deferred =
      stats_.observations_deferred.load(std::memory_order_relaxed);
  out.observations_committed =
      stats_.observations_committed.load(std::memory_order_relaxed);
  out.batches_committed = stats_.batches_committed.load(std::memory_order_relaxed);
  out.max_batch_committed = stats_.max_batch_committed.load(std::memory_order_relaxed);
  out.decode_errors = stats_.decode_errors.load(std::memory_order_relaxed);
  out.rejected_requests = stats_.rejected_requests.load(std::memory_order_relaxed);
  out.flush_errors = stats_.flush_errors.load(std::memory_order_relaxed);
  out.drains = stats_.drains.load(std::memory_order_relaxed);
  out.reconfigures = stats_.reconfigures.load(std::memory_order_relaxed);
  out.crashes_injected = stats_.crashes_injected.load(std::memory_order_relaxed);
  out.stalls_injected = stats_.stalls_injected.load(std::memory_order_relaxed);
  out.shards_recovered = stats_.shards_recovered.load(std::memory_order_relaxed);
  out.sheds = stats_.sheds.load(std::memory_order_relaxed);
  out.journal_appends = stats_.journal_appends.load(std::memory_order_relaxed);
  out.journal_truncations =
      stats_.journal_truncations.load(std::memory_order_relaxed);
  out.journal_replayed = stats_.journal_replayed.load(std::memory_order_relaxed);
  out.journal_deduped = stats_.journal_deduped.load(std::memory_order_relaxed);
  out.journal_torn_tails =
      stats_.journal_torn_tails.load(std::memory_order_relaxed);
  out.spin_waits = stats_.spin_waits.load(std::memory_order_relaxed);
  return out;
}

Status OrchestratorService::Bind(const std::string& function, uint32_t slot,
                                 Orchestrator* orchestrator, SimClock* clock) {
  if (function.empty()) {
    return InvalidArgumentError("function name must be non-empty");
  }
  if (orchestrator == nullptr || clock == nullptr) {
    return InvalidArgumentError("binding needs an orchestrator and a clock");
  }
  std::unique_lock<std::shared_mutex> lock(endpoints_mutex_);
  // Nothing touches the registry until the binding is known to succeed: a
  // refused or failed bind must leave the endpoint (and its clock) as it was.
  const auto existing = endpoints_.find(function);
  if (existing != endpoints_.end() && slot < existing->second.slots.size() &&
      existing->second.slots[slot].orchestrator != nullptr) {
    return AlreadyExistsError("slot " + std::to_string(slot) + " of '" + function +
                              "' is already bound");
  }
  SlotState state;
  state.orchestrator = orchestrator;
  // The slot index keys the per-slot commit high-water mark in the
  // policy-state blob; harmless (and unread) when journaling is off.
  orchestrator->set_commit_scope(slot);
  if (!config_.journal_dir.empty()) {
    auto journal = ObservationJournal::Open(config_.journal_dir, function, slot);
    if (!journal.ok()) {
      return journal.status();
    }
    state.journal = *std::move(journal);
    // Leftover records from a previous service incarnation that died before
    // truncating: replay them through the deduping commit path now, before
    // any new traffic touches the slot. A fresh journal is empty and this is
    // a no-op (no extra Database traffic beyond the high-water Load below).
    RecoverSlotJournal(function, state);
    // Sequences must resume above both what the journal recorded and what
    // the blob already committed — a truncated journal says nothing about
    // committed sequences, and re-using one would be swallowed by the dedup.
    const auto mark = orchestrator->CommittedHighWater();
    if (!mark.ok()) {
      return mark.status();
    }
    state.last_sequence = std::max(state.last_sequence, *mark);
  }
  Endpoint& endpoint = endpoints_[function];
  endpoint.name_hash = StableNameHash(function);
  endpoint.clock = clock;
  if (slot >= endpoint.slots.size()) {
    endpoint.slots.resize(slot + 1);
  }
  endpoint.slots[slot] = std::move(state);
  return OkStatus();
}

Status OrchestratorService::Unbind(const std::string& function) {
  std::unique_lock<std::shared_mutex> lock(endpoints_mutex_);
  auto it = endpoints_.find(function);
  if (it == endpoints_.end()) {
    return NotFoundError("function '" + function + "' is not bound");
  }
  const Status flushed = FlushEndpoint(it->second);
  endpoints_.erase(it);
  return flushed;
}

std::vector<uint8_t> OrchestratorService::Call(
    const std::vector<uint8_t>& request_bytes) {
  thread_local CallerThreadMembership membership;
  membership.Join(caller_threads_);
  auto decoded = DecodeServiceRequest(request_bytes);
  if (!decoded.ok()) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    return EncodeServiceResponse(ErrorResponse(decoded.status()));
  }
  Envelope envelope;
  envelope.request = *std::move(decoded);
  PendingReply reply;
  envelope.reply = &reply;

  uint32_t shards = 0;
  {
    std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      stats_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
      return EncodeServiceResponse(
          ErrorResponse(FailedPreconditionError("service is shut down")));
    }
    shards = config_.shards;
    const uint32_t shard = ShardOf(StableNameHash(envelope.request.function));
    size_t depth = 0;
    // Backpressure policy: a start decision is latency-sensitive and carries
    // no knowledge, so past the shed deadline the service refuses it with an
    // explicit kShed instead of blocking the caller on a saturated shard.
    // Observations and checkpoint plans always block — shedding them would
    // lose knowledge the books must account for.
    const bool sheddable = config_.shed_deadline_ms > 0 &&
                           envelope.request.type == WireType::kStartDecision;
    if (sheddable) {
      const PushOutcome outcome = queues_[shard]->PushWithDeadline(
          std::move(envelope), std::chrono::milliseconds(config_.shed_deadline_ms),
          &depth);
      if (outcome == PushOutcome::kClosed) {
        stats_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
        return EncodeServiceResponse(
            ErrorResponse(FailedPreconditionError("service queue is closed")));
      }
      if (outcome == PushOutcome::kShed) {
        stats_.sheds.fetch_add(1, std::memory_order_relaxed);
        if (config_.obs != nullptr) {
          config_.obs->Counter("service.sheds", 1);
        }
        ServiceResponse shed;
        shed.type = WireType::kShed;
        shed.code = StatusCode::kResourceExhausted;
        shed.queue_depth = depth;
        shed.message = "start decision shed: shard " + std::to_string(shard) +
                       " still full after " +
                       std::to_string(config_.shed_deadline_ms) + "ms";
        return EncodeServiceResponse(shed);
      }
    } else if (!queues_[shard]->Push(std::move(envelope), &depth)) {
      stats_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
      return EncodeServiceResponse(
          ErrorResponse(FailedPreconditionError("service queue is closed")));
    }
    if (config_.obs != nullptr) {
      config_.obs->Gauge("service.queue_depth", static_cast<double>(depth));
    }
  }

  if (GateSpin(shards)) {
    SpinUntil(kSpinIterations, [&] { return reply.ready.load(std::memory_order_acquire); });
  }
  // Take the mailbox lock even when the spin already saw `ready`: the replier
  // sets it and notifies while holding this lock, so acquiring it is what
  // proves the replier is done with this stack frame.
  std::unique_lock<std::mutex> lock(reply.mutex);
  reply.ready_cv.wait(lock, [&] { return reply.ready.load(std::memory_order_relaxed); });
  return std::move(reply.bytes);
}

void OrchestratorService::DrainLocked() {
  // Threads are alive (shared lifecycle lock held by the caller): one token
  // per shard, processed after everything enqueued before it; each token
  // flushes its shard's deferred batches before acking.
  DrainGate gate;
  gate.remaining = static_cast<uint32_t>(queues_.size());
  for (const auto& queue : queues_) {
    Envelope token;
    token.gate = &gate;
    if (!queue->Push(std::move(token))) {
      std::unique_lock<std::mutex> lock(gate.mutex);
      gate.remaining -= 1;
    }
  }
  std::unique_lock<std::mutex> lock(gate.mutex);
  gate.cv.wait(lock, [&] { return gate.remaining == 0; });
}

Status OrchestratorService::Drain() {
  std::unique_lock<std::mutex> control(control_mutex_);
  {
    std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      return OkStatus();  // Stopped service: shutdown already drained.
    }
    DrainLocked();
  }
  stats_.drains.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.drains", 1);
  }
  return OkStatus();
}

Status OrchestratorService::Reconfigure(uint32_t shards, uint32_t max_batch,
                                        Duration flush_interval) {
  if (shards == 0 || max_batch == 0) {
    return InvalidArgumentError("shards and max_batch must be positive");
  }
  if (flush_interval < Duration::Zero()) {
    return InvalidArgumentError("flush_interval must be non-negative");
  }
  std::unique_lock<std::mutex> control(control_mutex_);
  {
    std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      return FailedPreconditionError("service is shut down");
    }
    // Drain first while threads still run, so in-flight pushers finish and
    // release their shared lifecycle lock before we take it exclusively.
    DrainLocked();
  }
  std::unique_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
  Stop();
  config_.shards = shards;
  config_.max_batch = max_batch;
  config_.flush_interval = flush_interval;
  Start();
  stats_.reconfigures.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.reconfigures", 1);
  }
  return OkStatus();
}

void OrchestratorService::Shutdown() {
  std::unique_lock<std::mutex> control(control_mutex_);
  std::unique_lock<std::shared_mutex> lifecycle(lifecycle_mutex_);
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // Close() lets shard threads drain everything already accepted (each
  // envelope still gets its reply) and then flush leftover batches on exit.
  Stop();
}

void OrchestratorService::ShardLoop(uint32_t shard) {
  MpmcQueue<Envelope>& queue = *queues_[shard];
  const bool chaos = config_.faults.Active();
  Envelope envelope;
  while (queue.Pop(envelope, GateSpin(config_.shards) ? kSpinIterations : 0)) {
    // One shared-lock scope per burst: Bind/Unbind wait for burst boundaries,
    // and the endpoint vector cannot move underneath the handlers.
    std::shared_lock<std::shared_mutex> endpoints_lock(endpoints_mutex_);
    uint32_t burst = 0;
    while (true) {
      std::optional<ServiceCrashStage> crash;
      if (chaos && envelope.gate == nullptr) {
        // Gate tokens are control flow, not ops: crashing on one would
        // deadlock the Drain it belongs to.
        const uint64_t op = ++shard_ops_[shard];
        MaybeStall(shard, op);
        crash = TakeCrash(shard, op);
      }
      if (crash == ServiceCrashStage::kEnqueue) {
        // Die before touching any state: park the unprocessed envelope for
        // the supervisor, which re-queues it at the front after recovery.
        // The caller just sees a slow reply.
        parked_[shard].emplace(std::move(envelope));
        CrashShard(shard, *crash);
        return;  // No trailing FlushShard: a crash takes no farewell commit.
      }
      t_suppress_truncate = crash == ServiceCrashStage::kPreTruncate;
      ProcessEnvelope(shard, envelope);
      t_suppress_truncate = false;
      if (crash.has_value()) {
        if (*crash == ServiceCrashStage::kMidBatch) {
          // The reply is out but the batch is not: the crash takes the
          // in-memory buffers with it. Only the journal can restore them.
          DropShardBuffers(shard);
        }
        CrashShard(shard, *crash);
        return;
      }
      burst += 1;
      if (burst >= config_.max_burst || !queue.TryPop(envelope)) {
        break;
      }
    }
    FlushAged(shard);
  }
  // Queue closed and drained: commit whatever is still deferred.
  std::shared_lock<std::shared_mutex> endpoints_lock(endpoints_mutex_);
  FlushShard(shard);
}

std::optional<ServiceCrashStage> OrchestratorService::TakeCrash(uint32_t shard,
                                                                uint64_t op) {
  const auto& crashes = config_.faults.crashes;
  for (size_t i = 0; i < crashes.size(); ++i) {
    if (crash_fired_[i] == 0 && crashes[i].shard == shard && crashes[i].at_op == op) {
      crash_fired_[i] = 1;
      return crashes[i].stage;
    }
  }
  return std::nullopt;
}

void OrchestratorService::MaybeStall(uint32_t shard, uint64_t op) {
  const auto& stalls = config_.faults.stalls;
  for (size_t i = 0; i < stalls.size(); ++i) {
    if (stall_fired_[i] == 0 && stalls[i].shard == shard && stalls[i].at_op == op) {
      stall_fired_[i] = 1;
      stats_.stalls_injected.fetch_add(1, std::memory_order_relaxed);
      if (config_.obs != nullptr) {
        config_.obs->Counter("service.stalls_injected", 1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(stalls[i].wall_millis));
    }
  }
}

void OrchestratorService::CrashShard(uint32_t shard, ServiceCrashStage stage) {
  stats_.crashes_injected.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.crashes_injected", 1);
  }
  PRONGHORN_LOG_WARNING("injected crash: shard %u dies at op %llu (stage %d)",
                        shard, static_cast<unsigned long long>(shard_ops_[shard]),
                        static_cast<int>(stage));
  {
    std::unique_lock<std::mutex> lock(supervisor_mutex_);
    dead_shards_.push_back(shard);
  }
  supervisor_cv_.notify_all();
}

void OrchestratorService::DropShardBuffers(uint32_t shard) {
  for (auto& [name, endpoint] : endpoints_) {
    if (ShardOf(endpoint.name_hash) != shard) {
      continue;
    }
    for (SlotState& slot : endpoint.slots) {
      if (slot.orchestrator != nullptr) {
        slot.orchestrator->DropPendingObservations();
      }
    }
  }
}

void OrchestratorService::SupervisorLoop() {
  while (true) {
    uint32_t shard = 0;
    {
      std::unique_lock<std::mutex> lock(supervisor_mutex_);
      supervisor_cv_.wait(lock,
                          [&] { return supervisor_stop_ || !dead_shards_.empty(); });
      if (dead_shards_.empty()) {
        return;  // Stop requested and every pending recovery is done.
      }
      shard = dead_shards_.front();
      dead_shards_.pop_front();
    }
    RecoverShard(shard);
  }
}

void OrchestratorService::RecoverShard(uint32_t shard) {
  if (shard >= shard_threads_.size()) {
    return;  // Topology changed underneath a stale death notice.
  }
  // Joining the corpse is the happens-before edge: everything the dead
  // thread wrote (op counters, dropped buffers, the parked envelope) is
  // visible from here on.
  if (shard_threads_[shard].joinable()) {
    shard_threads_[shard].join();
  }
  {
    // Shared is enough: only this shard's thread — dead — and control
    // operations touch this shard's endpoints, and Bind/Unbind (exclusive)
    // are correctly excluded.
    std::shared_lock<std::shared_mutex> endpoints_lock(endpoints_mutex_);
    ReplayShardJournals(shard);
  }
  if (parked_[shard].has_value()) {
    Envelope parked = std::move(*parked_[shard]);
    parked_[shard].reset();
    PendingReply* reply = parked.reply;
    // Front of the queue: the parked envelope was accepted before everything
    // now waiting behind it, and replaying in arrival order is what keeps
    // the simulation trajectory — and the report digest — intact.
    if (!queues_[shard]->PushFront(std::move(parked))) {
      // Only possible when the queue closed mid-recovery: answer the caller
      // rather than strand it (the push consumed the envelope body).
      Envelope failed;
      failed.reply = reply;
      Reply(failed,
            ErrorResponse(UnavailableError("service closed during crash recovery")));
    }
  }
  shard_threads_[shard] = std::thread(&OrchestratorService::ShardLoop, this, shard);
  stats_.shards_recovered.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.shards_recovered", 1);
  }
  PRONGHORN_LOG_INFO("shard %u recovered and restarted", shard);
}

void OrchestratorService::ReplayShardJournals(uint32_t shard) {
  for (auto& [name, endpoint] : endpoints_) {
    if (ShardOf(endpoint.name_hash) != shard) {
      continue;
    }
    for (SlotState& slot : endpoint.slots) {
      if (slot.orchestrator != nullptr && slot.journal != nullptr) {
        RecoverSlotJournal(name, slot);
      }
    }
  }
}

void OrchestratorService::RecoverSlotJournal(const std::string& function,
                                             SlotState& slot) {
  const auto log = slot.journal->Recover();
  if (!log.ok()) {
    stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
    PRONGHORN_LOG_WARNING("journal recovery failed for '%s': %s", function.c_str(),
                          log.status().ToString().c_str());
    return;
  }
  if (log->torn_tail_bytes > 0) {
    stats_.journal_torn_tails.fetch_add(1, std::memory_order_relaxed);
    if (config_.obs != nullptr) {
      config_.obs->Counter("service.journal_torn_tails", 1);
    }
    PRONGHORN_LOG_WARNING("journal for '%s' dropped a torn tail of %llu bytes",
                          function.c_str(),
                          static_cast<unsigned long long>(log->torn_tail_bytes));
  }
  if (log->records.empty() && log->torn_tail_bytes == 0 && slot.deferred == 0) {
    return;  // Clean, empty journal (the common fresh-Bind case): nothing owed.
  }
  std::vector<Orchestrator::JournaledObservation> records;
  records.reserve(log->records.size());
  for (const ObservationJournal::Record& record : log->records) {
    records.push_back({record.sequence, record.request_number, record.latency});
    slot.last_sequence = std::max(slot.last_sequence, record.sequence);
  }
  const uint64_t deduped_before = slot.orchestrator->observations_deduped();
  const Status replayed = slot.orchestrator->ReplayJournaled(records);
  const uint64_t deduped =
      slot.orchestrator->observations_deduped() - deduped_before;
  stats_.journal_deduped.fetch_add(deduped, std::memory_order_relaxed);
  stats_.journal_replayed.fetch_add(records.size() - deduped,
                                    std::memory_order_relaxed);
  if (config_.obs != nullptr && !records.empty()) {
    config_.obs->Counter("service.journal_replayed", records.size() - deduped);
    config_.obs->Counter("service.journal_deduped", deduped);
  }
  if (!replayed.ok()) {
    stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
    PRONGHORN_LOG_WARNING("journal replay failed for '%s': %s", function.c_str(),
                          replayed.ToString().c_str());
    slot.deferred = slot.orchestrator->pending_observation_count();
    return;
  }
  if (slot.orchestrator->pending_observation_count() == 0) {
    // Everything this slot owed — replayed records plus any surviving
    // in-memory batch — is in the Database. slot.deferred is the count of
    // acked-but-uncommitted observations, i.e. exactly what just landed.
    if (slot.deferred > 0) {
      stats_.observations_committed.fetch_add(slot.deferred,
                                              std::memory_order_relaxed);
      stats_.batches_committed.fetch_add(1, std::memory_order_relaxed);
      NoteMax(stats_.max_batch_committed, slot.deferred);
    }
    slot.deferred = 0;
    slot.oldest_deferred = TimePoint();
    const Status truncated = slot.journal->Truncate();
    if (truncated.ok()) {
      stats_.journal_truncations.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
      PRONGHORN_LOG_WARNING("journal truncate failed for '%s': %s",
                            function.c_str(), truncated.ToString().c_str());
    }
  } else {
    // A Database outage absorbed the commit: the records stay buffered (and
    // journaled) and ride the next flush trigger.
    slot.deferred = slot.orchestrator->pending_observation_count();
  }
}

void OrchestratorService::ProcessEnvelope(uint32_t shard, Envelope& envelope) {
  if (envelope.gate != nullptr) {
    FlushShard(shard);
    std::unique_lock<std::mutex> lock(envelope.gate->mutex);
    envelope.gate->remaining -= 1;
    if (envelope.gate->remaining == 0) {
      envelope.gate->cv.notify_all();
    }
    return;
  }
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.requests", 1);
  }
  const ServiceResponse response = HandleRequest(envelope.request);
  Reply(envelope, response);
}

ServiceResponse OrchestratorService::HandleRequest(const ServiceRequest& request) {
  auto it = endpoints_.find(request.function);
  if (it == endpoints_.end()) {
    return ErrorResponse(
        NotFoundError("function '" + request.function + "' is not bound"));
  }
  Endpoint& endpoint = it->second;
  if (request.slot >= endpoint.slots.size() ||
      endpoint.slots[request.slot].orchestrator == nullptr) {
    return ErrorResponse(NotFoundError("slot " + std::to_string(request.slot) +
                                       " of '" + request.function +
                                       "' is not bound"));
  }
  SlotState& slot = endpoint.slots[request.slot];
  switch (request.type) {
    case WireType::kStartDecision:
      return HandleStartDecision(endpoint, slot);
    case WireType::kObservation:
      return HandleObservation(endpoint, slot, request);
    case WireType::kCheckpointPlan:
      return HandlePlan(slot, request);
    default:
      return ErrorResponse(InvalidArgumentError("response type in a request frame"));
  }
}

ServiceResponse OrchestratorService::HandleStartDecision(Endpoint& endpoint,
                                                         SlotState& slot) {
  stats_.start_decisions.fetch_add(1, std::memory_order_relaxed);
  // Barrier: the new lifetime's Database read must see every deferred
  // observation of this function. No-op in synchronous mode (nothing is ever
  // deferred), so the in-process Update sequence is preserved exactly.
  const Status flushed = FlushEndpoint(endpoint);
  if (!flushed.ok()) {
    return ErrorResponse(flushed);
  }
  if (slot.session.has_value()) {
    return ErrorResponse(
        FailedPreconditionError("slot already has a live worker session"));
  }
  auto started = slot.orchestrator->StartWorker();
  if (!started.ok()) {
    return ErrorResponse(started.status());
  }
  slot.session.emplace(*std::move(started));
  ServiceResponse response;
  response.type = WireType::kStartAck;
  response.view = MakeSessionView(*slot.session);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.start_decisions", 1);
    // Decision latency in simulated time: the Database read + policy
    // decision cost this start charged to orchestrator overhead.
    config_.obs->Observe("service.decision_latency_us", response.view.startup_overhead);
  }
  return response;
}

ServiceResponse OrchestratorService::HandleObservation(Endpoint& endpoint,
                                                       SlotState& slot,
                                                       const ServiceRequest& request) {
  stats_.observations.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.observations", 1);
  }
  if (!slot.session.has_value()) {
    return ErrorResponse(FailedPreconditionError("slot has no live worker session"));
  }
  ServiceResponse response;
  response.type = WireType::kObservationAck;
  if (!request.defer_commit) {
    // Synchronous mode: commit before replying — the exact in-process
    // ServeRequest sequence. This also group-commits any deferred backlog
    // the slot accumulated earlier (the orchestrator buffer holds it).
    auto outcome = slot.orchestrator->ServeRequest(*slot.session, request.request);
    if (!outcome.ok()) {
      return ErrorResponse(outcome.status());
    }
    if (slot.deferred > 0 && slot.orchestrator->pending_observation_count() == 0) {
      stats_.observations_committed.fetch_add(slot.deferred,
                                              std::memory_order_relaxed);
    }
    slot.deferred = slot.orchestrator->pending_observation_count();
    stats_.observations_committed.fetch_add(slot.deferred == 0 ? 1 : 0,
                                            std::memory_order_relaxed);
    response.outcome = *outcome;
    response.committed = slot.deferred == 0;
    return response;
  }

  // Pipelined mode: execute and acknowledge now; the knowledge write rides a
  // later group commit. With journaling on, the observation is sequenced and
  // made durable *before* the ack leaves, so the ack is a promise a shard
  // crash cannot break.
  uint64_t sequence = 0;
  if (slot.journal != nullptr) {
    sequence = slot.last_sequence + 1;
  }
  response.outcome =
      slot.orchestrator->ExecuteBuffered(*slot.session, request.request, sequence);
  if (slot.journal != nullptr) {
    slot.last_sequence = sequence;
    const Status appended = slot.journal->Append(
        {sequence, response.outcome.request_number, response.outcome.latency});
    if (appended.ok()) {
      stats_.journal_appends.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The observation is still buffered in memory; only its crash
      // durability is degraded. Count it loudly instead of failing the
      // request.
      stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
      PRONGHORN_LOG_WARNING("journal append failed for '%s': %s",
                            request.function.c_str(),
                            appended.ToString().c_str());
    }
  }
  if (slot.deferred == 0) {
    slot.oldest_deferred = endpoint.clock->now();
  }
  slot.deferred = slot.orchestrator->pending_observation_count();
  stats_.observations_deferred.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.observations_deferred", 1);
  }
  const bool plan_due =
      slot.session->checkpoint_at.has_value() &&
      slot.session->process.requests_executed() >= *slot.session->checkpoint_at;
  if (slot.deferred >= config_.max_batch || plan_due) {
    const Status flushed = FlushSlot(slot);
    if (!flushed.ok()) {
      return ErrorResponse(flushed);
    }
    if (plan_due) {
      const Status checkpointed =
          slot.orchestrator->MaybeCheckpoint(*slot.session, response.outcome);
      if (!checkpointed.ok()) {
        return ErrorResponse(checkpointed);
      }
    }
  }
  response.committed = slot.deferred == 0;
  return response;
}

ServiceResponse OrchestratorService::HandlePlan(SlotState& slot,
                                                const ServiceRequest& request) {
  stats_.plan_requests.fetch_add(1, std::memory_order_relaxed);
  if (config_.obs != nullptr) {
    config_.obs->Counter("service.plan_requests", 1);
  }
  ServiceResponse response;
  response.type = WireType::kPlanAck;
  if (!slot.session.has_value()) {
    return response;  // Idempotent: retiring an empty slot reports live=false.
  }
  // A retiring worker's deferred knowledge must not die with it.
  const Status flushed = FlushSlot(slot);
  if (!flushed.ok()) {
    return ErrorResponse(flushed);
  }
  response.plan.live = true;
  response.plan.has_plan = slot.session->checkpoint_at.has_value();
  if (response.plan.has_plan) {
    response.plan.checkpoint_at = *slot.session->checkpoint_at;
  }
  response.plan.requests_executed = slot.session->process.requests_executed();
  response.plan.memory_mb = slot.session->process.MemoryFootprintMb();
  if (request.retire) {
    slot.session.reset();
    response.plan.retired = true;
  }
  return response;
}

Status OrchestratorService::FlushSlot(SlotState& slot) {
  if (slot.deferred == 0) {
    return OkStatus();
  }
  const uint64_t batch = slot.orchestrator->pending_observation_count();
  RequestOutcome scratch;
  PRONGHORN_RETURN_IF_ERROR(slot.orchestrator->CommitObservations(scratch));
  const uint64_t remaining = slot.orchestrator->pending_observation_count();
  if (remaining == 0) {
    stats_.batches_committed.fetch_add(1, std::memory_order_relaxed);
    stats_.observations_committed.fetch_add(batch, std::memory_order_relaxed);
    NoteMax(stats_.max_batch_committed, batch);
    if (config_.obs != nullptr) {
      config_.obs->Counter("service.batches_committed", 1);
    }
    slot.oldest_deferred = TimePoint();
    // The commit covered the journal's entire content (the flush always
    // commits the whole pending buffer), so the journal can drop it — unless
    // an injected kPreTruncate crash is about to prove that a truncate which
    // never happens is merely redundant, not harmful.
    if (slot.journal != nullptr && !t_suppress_truncate) {
      const Status truncated = slot.journal->Truncate();
      if (truncated.ok()) {
        stats_.journal_truncations.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Stale records will be deduped by the high-water mark if ever
        // replayed; durability is unaffected.
        stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
        PRONGHORN_LOG_WARNING("journal truncate failed: %s",
                              truncated.ToString().c_str());
      }
    }
  }
  // A commit that hit an outage keeps the batch buffered (kUnavailable was
  // absorbed); it rides the next flush trigger.
  slot.deferred = remaining;
  return OkStatus();
}

Status OrchestratorService::FlushEndpoint(Endpoint& endpoint) {
  Status first = OkStatus();
  for (SlotState& slot : endpoint.slots) {
    if (slot.orchestrator == nullptr) {
      continue;
    }
    const Status status = FlushSlot(slot);
    if (!status.ok() && first.ok()) {
      first = status;
    }
  }
  return first;
}

void OrchestratorService::FlushShard(uint32_t shard) {
  for (auto& [name, endpoint] : endpoints_) {
    if (ShardOf(endpoint.name_hash) != shard) {
      continue;
    }
    const Status status = FlushEndpoint(endpoint);
    if (!status.ok()) {
      stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
      PRONGHORN_LOG_WARNING("group-commit flush failed for '%s': %s", name.c_str(),
                            status.ToString().c_str());
    }
  }
}

void OrchestratorService::FlushAged(uint32_t shard) {
  for (auto& [name, endpoint] : endpoints_) {
    if (ShardOf(endpoint.name_hash) != shard) {
      continue;
    }
    for (SlotState& slot : endpoint.slots) {
      if (slot.deferred == 0 ||
          endpoint.clock->now() - slot.oldest_deferred < config_.flush_interval) {
        continue;
      }
      const Status status = FlushSlot(slot);
      if (!status.ok()) {
        stats_.flush_errors.fetch_add(1, std::memory_order_relaxed);
        PRONGHORN_LOG_WARNING("aged flush failed for '%s': %s", name.c_str(),
                              status.ToString().c_str());
      }
    }
  }
}

void OrchestratorService::Reply(Envelope& envelope, const ServiceResponse& response) {
  if (envelope.reply == nullptr) {
    return;
  }
  std::vector<uint8_t> bytes = EncodeServiceResponse(response);
  // Publish and notify while holding the mutex. A spinning waiter may see
  // `ready` at once, but it takes this mutex before it returns from Call()
  // and destroys the stack-allocated mailbox, so nothing here may touch the
  // mailbox after the unlock.
  std::unique_lock<std::mutex> lock(envelope.reply->mutex);
  envelope.reply->bytes = std::move(bytes);
  envelope.reply->ready.store(true, std::memory_order_release);
  envelope.reply->ready_cv.notify_one();
}

// --- ServiceClient -----------------------------------------------------------

ServiceClient::ServiceClient(OrchestratorService* service, std::string function,
                             uint32_t slot, bool defer_commit)
    : service_(service),
      function_(std::move(function)),
      slot_(slot),
      defer_commit_(defer_commit) {}

Result<ServiceResponse> ServiceClient::Roundtrip(const ServiceRequest& request,
                                                 WireType expected) {
  const std::vector<uint8_t> reply = service_->Call(EncodeServiceRequest(request));
  PRONGHORN_ASSIGN_OR_RETURN(ServiceResponse response, DecodeServiceResponse(reply));
  if (response.type == WireType::kError || response.type == WireType::kShed) {
    return Status(response.code, response.message);
  }
  if (response.type != expected) {
    return InternalError("unexpected service response type");
  }
  return response;
}

Result<SessionView> ServiceClient::StartWorker() {
  ServiceRequest request;
  request.type = WireType::kStartDecision;
  request.function = function_;
  request.slot = slot_;
  auto response = Roundtrip(request, WireType::kStartAck);
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kResourceExhausted &&
        fallback_profile_ != nullptr) {
      // The service shed the start decision (control plane saturated past
      // the deadline). Degrade to a local, unorchestrated cold session: no
      // restore, no checkpoint plan, no knowledge writes — the explicit
      // trade the shed response exists to make possible.
      shed_process_.emplace(RuntimeProcess::ColdStart(
          *fallback_profile_, HashCombine(fallback_seed_, sheds_degraded_)));
      sheds_degraded_ += 1;
      SessionView view;
      view.degraded = true;
      view.startup_latency = fallback_profile_->cold_init;
      return view;
    }
    return response.status();
  }
  return (*response).view;
}

Result<RequestOutcome> ServiceClient::ServeRequest(const FunctionRequest& request) {
  if (shed_process_.has_value()) {
    // Degraded session: execute locally, off the orchestrator's books.
    RequestOutcome outcome;
    const ExecutionResult execution = shed_process_->Execute(request);
    outcome.latency = execution.latency;
    outcome.request_number = shed_process_->requests_executed();
    return outcome;
  }
  ServiceRequest wire_request;
  wire_request.type = WireType::kObservation;
  wire_request.function = function_;
  wire_request.slot = slot_;
  wire_request.request = request;
  wire_request.defer_commit = defer_commit_;
  PRONGHORN_ASSIGN_OR_RETURN(ServiceResponse response,
                             Roundtrip(wire_request, WireType::kObservationAck));
  return response.outcome;
}

Result<WirePlan> ServiceClient::QueryPlan() {
  ServiceRequest request;
  request.type = WireType::kCheckpointPlan;
  request.function = function_;
  request.slot = slot_;
  request.retire = false;
  PRONGHORN_ASSIGN_OR_RETURN(ServiceResponse response,
                             Roundtrip(request, WireType::kPlanAck));
  return response.plan;
}

SessionEnd ServiceClient::EndSession() {
  if (shed_process_.has_value()) {
    SessionEnd end;
    end.memory_mb = shed_process_->MemoryFootprintMb();
    end.requests_executed = shed_process_->requests_executed();
    end.retired = true;
    shed_process_.reset();
    return end;
  }
  ServiceRequest request;
  request.type = WireType::kCheckpointPlan;
  request.function = function_;
  request.slot = slot_;
  request.retire = true;
  auto response = Roundtrip(request, WireType::kPlanAck);
  SessionEnd end;
  if (!response.ok()) {
    // Eviction cannot be refused; a transport-level failure here means the
    // session is gone anyway. Zeroed accounting, loudly.
    PRONGHORN_LOG_WARNING("service retire failed for '%s' slot %u: %s",
                          function_.c_str(), slot_,
                          response.status().ToString().c_str());
    return end;
  }
  end.memory_mb = response->plan.memory_mb;
  end.requests_executed = response->plan.requests_executed;
  end.retired = response->plan.retired;
  return end;
}

}  // namespace pronghorn
