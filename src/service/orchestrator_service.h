// Live orchestrator service: a long-running, request-driven front end over
// per-function Orchestrators (the paper's always-on control plane, ROADMAP
// item 1).
//
// Architecture (DESIGN.md §11):
//   - Clients encode StartDecision / Observation / CheckpointPlan frames
//     (wire.h) and block in Call(); the service routes each request to a
//     shard by a stable hash of the function name and replies through a
//     per-request mailbox.
//   - N shards, each a bounded MPMC queue drained by one thread. All slots of
//     one function land on one shard, so the per-deployment shared state
//     (PolicyStateStore scope, SimClock, engine) is only ever touched by that
//     shard's thread plus control operations under an exclusive lock.
//   - Group commit: observations sent with defer_commit are executed and
//     acknowledged immediately, while their knowledge writes accumulate in
//     the slot's Orchestrator buffer. A batch flushes when it reaches
//     max_batch, when its oldest observation ages past flush_interval in
//     simulated time, at barriers (StartDecision, CheckpointPlan, Unbind,
//     Drain, shutdown), or when this lifetime's checkpoint plan fires.
//     Group commit is work-conserving: a commit a synchronous client waits
//     on (defer_commit off) is never delayed, which is why service-mode
//     simulation digests are bit-identical to in-process runs.
//   - Lifecycle: Drain() processes everything enqueued before it and flushes
//     every batch; Reconfigure() drains, then atomically swaps shard count
//     and flush policy with bindings and live sessions preserved; Shutdown()
//     drains and joins (also run by the destructor).
//   - Crash tolerance (DESIGN.md §12): with `journal_dir` set, every deferred
//     observation is appended to a per-slot write-ahead journal before its
//     ack, and the journal truncates only after the group commit covering it
//     lands. Scheduled shard crashes (config.faults.service) kill a shard
//     thread at a chosen envelope; a supervisor thread joins the corpse,
//     replays its journals through the orchestrator's sequence-checked commit
//     (deduped against the policy-state blob's per-slot high-water mark, so
//     delivery is exactly-once), re-queues any parked envelope at the front,
//     and restarts the shard with sessions and bindings intact.
//   - Backpressure (shed_deadline_ms > 0): a start decision that cannot
//     enqueue before the deadline gets an explicit kShed reply instead of
//     blocking; observations and plans — the knowledge-carrying messages —
//     always block. ServiceClient can degrade a shed start to a local,
//     unorchestrated cold session instead of failing the request.

#ifndef PRONGHORN_SRC_SERVICE_ORCHESTRATOR_SERVICE_H_
#define PRONGHORN_SRC_SERVICE_ORCHESTRATOR_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/core/orchestrator.h"
#include "src/jit/runtime_process.h"
#include "src/service/backend.h"
#include "src/service/journal.h"
#include "src/service/mpmc_queue.h"
#include "src/service/wire.h"
#include "src/store/fault_injection.h"

namespace pronghorn {

class ObsSink;

struct ServiceConfig {
  uint32_t shards = 4;
  size_t queue_capacity = 256;  // Per-shard; full queues backpressure Push.
  // Deferred observations per slot that force a group-commit flush.
  uint32_t max_batch = 16;
  // Maximum simulated-time age of a deferred observation before the shard
  // flushes its slot at the end of a burst.
  Duration flush_interval = Duration::Millis(5);
  // Envelopes one shard drains per wakeup before checking aged batches.
  uint32_t max_burst = 32;
  // Directory for per-slot write-ahead observation journals; empty disables
  // journaling entirely (no sequences assigned, no extra Database reads —
  // the disabled path is bit-identical to the pre-journal service).
  std::string journal_dir;
  // Host-time budget for enqueueing a start decision; 0 blocks forever.
  // Past the deadline the caller gets an explicit kShed response instead of
  // waiting on a saturated shard. Start decisions only: observations and
  // checkpoint plans carry knowledge and always block.
  uint32_t shed_deadline_ms = 0;
  // Scheduled shard crashes and stalls (deterministic chaos; see
  // src/store/fault_injection.h). Crashes require journaling for lossless
  // recovery of deferred batches; without it mid-batch crashes lose their
  // buffered observations — visibly, in the books.
  ServiceFaultPlan faults;
  // Borrowed observability sink; null disables all service instrumentation.
  ObsSink* obs = nullptr;
};

// Monotonic service counters (plain snapshot of the internal atomics).
// `observations_committed` counts knowledge writes that landed in the
// Database; after a successful Drain with no injected faults it equals
// `observations` — the no-lost-observations invariant the concurrency test
// asserts.
struct ServiceStatsSnapshot {
  uint64_t requests = 0;
  uint64_t start_decisions = 0;
  uint64_t observations = 0;
  uint64_t plan_requests = 0;
  uint64_t observations_deferred = 0;
  uint64_t observations_committed = 0;
  uint64_t batches_committed = 0;
  uint64_t max_batch_committed = 0;
  uint64_t decode_errors = 0;
  uint64_t rejected_requests = 0;
  uint64_t flush_errors = 0;
  uint64_t drains = 0;
  uint64_t reconfigures = 0;
  // Crash-tolerance counters (all zero when chaos and journaling are off).
  uint64_t crashes_injected = 0;
  uint64_t stalls_injected = 0;
  uint64_t shards_recovered = 0;
  uint64_t sheds = 0;  // Start decisions refused past the shed deadline.
  uint64_t journal_appends = 0;
  uint64_t journal_truncations = 0;
  // Journal records recovery pushed back through the commit path vs. skipped
  // as already covered by the high-water mark.
  uint64_t journal_replayed = 0;
  uint64_t journal_deduped = 0;
  uint64_t journal_torn_tails = 0;  // Recoveries that dropped a torn tail.
  // Waits — reply mailboxes and shard pops — the participant gate allowed
  // to spin before parking. An allowed wait whose reply or item is already
  // there counts too, though it does not spin. Always zero on a one-core
  // host.
  uint64_t spin_waits = 0;
};

class OrchestratorService {
 public:
  explicit OrchestratorService(ServiceConfig config);
  ~OrchestratorService();

  OrchestratorService(const OrchestratorService&) = delete;
  OrchestratorService& operator=(const OrchestratorService&) = delete;

  // Binds slot `slot` of `function` to an Orchestrator and the deployment's
  // simulated clock (both borrowed; must outlive the binding). kAlreadyExists
  // when the slot is already bound.
  Status Bind(const std::string& function, uint32_t slot, Orchestrator* orchestrator,
              SimClock* clock);
  // Flushes the function's pending batches and removes every slot binding.
  Status Unbind(const std::string& function);

  // Submits one encoded request frame and blocks until its response frame is
  // ready. Never fails at the transport level: malformed frames and
  // shut-down services yield an encoded kError response.
  std::vector<uint8_t> Call(const std::vector<uint8_t>& request_bytes);

  // Processes everything enqueued before the call and flushes every deferred
  // batch. Safe on an already-stopped service.
  Status Drain();
  // Drains, then swaps shard count / batch cap / flush interval without
  // dropping bindings or live sessions.
  Status Reconfigure(uint32_t shards, uint32_t max_batch, Duration flush_interval);
  // Drain + stop shard threads; idempotent. Calls after shutdown get kError
  // responses.
  void Shutdown();

  ServiceStatsSnapshot stats() const;
  uint32_t shard_count() const;
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  // One live (function, slot) binding. `deferred` mirrors the orchestrator's
  // pending-observation count so barriers know whether a flush would touch
  // the Database at all (it must not in synchronous mode, where commits
  // happen in-line and an extra Update would break digest equivalence).
  struct SlotState {
    Orchestrator* orchestrator = nullptr;
    std::optional<WorkerSession> session;
    uint64_t deferred = 0;
    TimePoint oldest_deferred;
    // Write-ahead journal for this slot's deferred observations (null when
    // journaling is disabled).
    std::unique_ptr<ObservationJournal> journal;
    // Last journal sequence assigned; seeded at bind time from the recovered
    // journal and the blob's committed high-water mark so sequences never
    // restart below a value the dedup would swallow.
    uint64_t last_sequence = 0;
  };

  struct Endpoint {
    uint64_t name_hash = 0;  // Stable routing hash of the function name.
    SimClock* clock = nullptr;
    std::vector<SlotState> slots;
  };

  // Per-request reply mailbox, stack-allocated by Call(). `ready` is set
  // (release) under `mutex`, after `bytes`; Call() may poll it before parking.
  struct PendingReply {
    std::mutex mutex;
    std::condition_variable ready_cv;
    std::atomic<bool> ready{false};
    std::vector<uint8_t> bytes;
  };

  // Countdown gate a Drain() waits on; one token lands on every shard queue.
  struct DrainGate {
    std::mutex mutex;
    std::condition_variable cv;
    uint32_t remaining = 0;
  };

  struct Envelope {
    ServiceRequest request;
    PendingReply* reply = nullptr;
    DrainGate* gate = nullptr;  // Non-null marks a drain token.
  };

  struct Stats {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> start_decisions{0};
    std::atomic<uint64_t> observations{0};
    std::atomic<uint64_t> plan_requests{0};
    std::atomic<uint64_t> observations_deferred{0};
    std::atomic<uint64_t> observations_committed{0};
    std::atomic<uint64_t> batches_committed{0};
    std::atomic<uint64_t> max_batch_committed{0};
    std::atomic<uint64_t> decode_errors{0};
    std::atomic<uint64_t> rejected_requests{0};
    std::atomic<uint64_t> flush_errors{0};
    std::atomic<uint64_t> drains{0};
    std::atomic<uint64_t> reconfigures{0};
    std::atomic<uint64_t> crashes_injected{0};
    std::atomic<uint64_t> stalls_injected{0};
    std::atomic<uint64_t> shards_recovered{0};
    std::atomic<uint64_t> sheds{0};
    std::atomic<uint64_t> journal_appends{0};
    std::atomic<uint64_t> journal_truncations{0};
    std::atomic<uint64_t> journal_replayed{0};
    std::atomic<uint64_t> journal_deduped{0};
    std::atomic<uint64_t> journal_torn_tails{0};
    std::atomic<uint64_t> spin_waits{0};
  };

  // Starts queues and shard threads per config_ (lifecycle lock held).
  void Start();
  // Closes queues and joins shard threads (lifecycle lock held).
  void Stop();
  // Pushes one drain token per shard and waits for all of them.
  void DrainLocked();

  void ShardLoop(uint32_t shard);
  void ProcessEnvelope(uint32_t shard, Envelope& envelope);
  ServiceResponse HandleRequest(const ServiceRequest& request);
  ServiceResponse HandleStartDecision(Endpoint& endpoint, SlotState& slot);
  ServiceResponse HandleObservation(Endpoint& endpoint, SlotState& slot,
                                    const ServiceRequest& request);
  ServiceResponse HandlePlan(SlotState& slot, const ServiceRequest& request);

  // Commits a slot's deferred batch (no-op when empty). kUnavailable inside
  // the commit leaves the batch buffered and still returns OK; only hard
  // faults surface.
  Status FlushSlot(SlotState& slot);
  Status FlushEndpoint(Endpoint& endpoint);
  // Flushes every endpoint owned by `shard`; hard faults are counted and
  // logged (no requester is waiting on them).
  void FlushShard(uint32_t shard);
  // End-of-burst sweep: flushes slots whose oldest deferred observation aged
  // past flush_interval on their deployment's simulated clock.
  void FlushAged(uint32_t shard);

  uint32_t ShardOf(uint64_t name_hash) const;
  // The spin gate for one wait: true (and counted) when `shards` shard
  // threads plus this service's live caller threads fit on the host's
  // cores.
  bool GateSpin(uint32_t shards);
  void Reply(Envelope& envelope, const ServiceResponse& response);

  // --- Crash tolerance ---
  // Returns the stage of a crash scheduled for this (shard, op), arming the
  // plan entry so it fires exactly once; nullopt when nothing is scheduled.
  std::optional<ServiceCrashStage> TakeCrash(uint32_t shard, uint64_t op);
  // Sleeps out any stall scheduled for this (shard, op); fires once each.
  void MaybeStall(uint32_t shard, uint64_t op);
  // Simulated crash exit: counts the crash and hands the shard to the
  // supervisor. The calling shard thread must return immediately after.
  void CrashShard(uint32_t shard, ServiceCrashStage stage);
  // The memory loss of a mid-batch crash: discards every orchestrator-side
  // pending observation owned by `shard`. slot.deferred is intentionally
  // kept — it is the supervisor's ledger of what recovery still owes.
  void DropShardBuffers(uint32_t shard);
  // Joins the dead shard thread, replays its journals, re-queues any parked
  // envelope at the front, and restarts the thread (supervisor only).
  void RecoverShard(uint32_t shard);
  // Replays every journal owned by `shard` through the deduping commit path.
  void ReplayShardJournals(uint32_t shard);
  // Recovers one slot's journal: replay, bookkeeping, truncate-on-success.
  // Used both by crash recovery and by Bind (leftover journal from a
  // previous service incarnation).
  void RecoverSlotJournal(const std::string& function, SlotState& slot);
  // Waits for dead shards and recovers them until told to stop; drains every
  // pending recovery before exiting.
  void SupervisorLoop();

  ServiceConfig config_;
  const unsigned hardware_threads_;
  // Live threads that have called Call() at least once, whether they now
  // wait in it or work between calls; with the shard threads, the spin
  // gate's participants. Shared with each caller thread, which leaves the
  // count when it exits (possibly after this service is gone).
  const std::shared_ptr<std::atomic<uint32_t>> caller_threads_ =
      std::make_shared<std::atomic<uint32_t>>(0);

  // Serializes control operations (Drain / Reconfigure / Shutdown).
  std::mutex control_mutex_;
  // Guards the queue/thread topology: Call() holds it shared while pushing,
  // Reconfigure/Shutdown hold it exclusively while swapping.
  mutable std::shared_mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<MpmcQueue<Envelope>>> queues_;
  std::vector<std::thread> shard_threads_;

  // Guards the endpoint registry: shard threads hold it shared for a whole
  // burst, Bind/Unbind hold it exclusively.
  std::shared_mutex endpoints_mutex_;
  std::unordered_map<std::string, Endpoint> endpoints_;

  // --- Crash-injection state ---
  // Per-shard processed-envelope counters (gate tokens excluded), monotonic
  // across recoveries — `at_op` in the fault plan indexes into this count.
  // Each entry is written only by its shard's thread; Start() resizes it
  // while no shard threads run.
  std::vector<uint64_t> shard_ops_;
  // One armed-flag per plan entry, parallel to config_.faults.service; an
  // entry is only ever touched by the thread of the shard it names.
  std::vector<char> crash_fired_;
  std::vector<char> stall_fired_;
  // Envelope a kEnqueue crash parked, per shard; handed from the dying
  // thread to the supervisor across the join.
  std::vector<std::optional<Envelope>> parked_;

  // Supervisor: one thread (spawned only when crashes are scheduled) that
  // recovers dead shards. Stop() joins it before touching shard threads, so
  // thread-slot writes never race.
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  std::deque<uint32_t> dead_shards_;
  bool supervisor_stop_ = false;
  std::thread supervisor_thread_;

  mutable Stats stats_;
};

// A WorkerBackend that drives one (function, slot) pair through the service's
// wire boundary: each operation encodes a frame, blocks in Call(), and
// decodes the reply. With `defer_commit` the client runs in pipelined mode
// (observations acknowledged after execution, knowledge group-committed
// later); simulation clients leave it off, which keeps service-mode digests
// bit-identical to in-process runs.
class ServiceClient final : public WorkerBackend {
 public:
  ServiceClient(OrchestratorService* service, std::string function, uint32_t slot,
                bool defer_commit = false);

  Result<SessionView> StartWorker() override;
  Result<RequestOutcome> ServeRequest(const FunctionRequest& request) override;
  SessionEnd EndSession() override;

  // Non-retiring plan probe (tests sample live-session progress with it).
  Result<WirePlan> QueryPlan();

  // Arms the shed fallback: when the service sheds this client's start
  // decision (kResourceExhausted past the shed deadline), StartWorker
  // degrades to a local, unorchestrated cold session instead of failing —
  // no restore, no checkpoint plan, no knowledge writes, requests executed
  // in-process until EndSession. The profile is borrowed and must outlive
  // the client. Without a fallback a shed surfaces as kResourceExhausted.
  void set_shed_fallback(const WorkloadProfile* profile, uint64_t seed) {
    fallback_profile_ = profile;
    fallback_seed_ = seed;
  }

  // Sessions this client served locally because their start was shed.
  uint64_t sheds_degraded() const { return sheds_degraded_; }

 private:
  Result<ServiceResponse> Roundtrip(const ServiceRequest& request, WireType expected);

  OrchestratorService* service_;
  std::string function_;
  uint32_t slot_;
  bool defer_commit_;
  const WorkloadProfile* fallback_profile_ = nullptr;
  uint64_t fallback_seed_ = 0;
  uint64_t sheds_degraded_ = 0;
  // Live degraded session (set only after a shed with an armed fallback).
  std::optional<RuntimeProcess> shed_process_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_SERVICE_ORCHESTRATOR_SERVICE_H_
