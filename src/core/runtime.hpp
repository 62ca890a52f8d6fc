#pragma once

// The hetstream core runtime ("core API" layer).
//
// Owns the three hStreams abstractions — domains, streams, buffers — and
// the dependence semantics that connect them:
//
//   * Actions enqueued into a stream retain FIFO *semantics*: their
//     effects must be those of in-order execution.
//   * Under OrderPolicy::relaxed_fifo (the hStreams model), an action may
//     *execute* as soon as no earlier incomplete action in its stream has
//     a conflicting memory operand (RAW/WAR/WAW on buffer byte ranges).
//   * Under OrderPolicy::strict_fifo (the CUDA Streams model), an action
//     waits for all earlier actions in its stream.
//   * Across streams (and between streams and the host) there are no
//     implicit dependences; events are the only ordering mechanism.
//
// Every action enters through one admission path: the enqueue_* front
// ends resolve operands into an ActionRecord (or hand it to an active
// graph capture), and submit() gates it, counts it, and admits it into
// its stream window. Graph replay (graph/replay.hpp) feeds its
// materialized nodes through the same submit().
//
// Execution itself — threads and time — is delegated to an Executor
// backend (threaded or simulated).

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/buffer.hpp"
#include "core/counters.hpp"
#include "core/domain.hpp"
#include "core/executor.hpp"
#include "core/memory_governor.hpp"
#include "core/task_context.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "interconnect/buffer_pool.hpp"
#include "interconnect/fault.hpp"
#include "interconnect/health.hpp"
#include "interconnect/topology.hpp"
#include "threading/cpu_mask.hpp"

namespace hs {

namespace ckpt {
class CheckpointManager;
struct RestoreInfo;
}  // namespace ckpt

/// A memory operand reference in proxy address terms, as passed by users.
struct OperandRef {
  const void* ptr = nullptr;
  std::size_t len = 0;
  Access access = Access::in;
};

/// Byte-range coherence knobs: validity tracking, online transfer
/// elision, and the chunked multi-hop transfer pipeline.
struct CoherenceConfig {
  /// Maintain per-incarnation validity interval maps (Buffer). The
  /// substrate for elision and derived dirty ranges; cheap, on by
  /// default. Off also turns elision off. HS_CONFIG key coherence.track.
  bool track = true;
  /// Complete transfers whose destination range is already byte-identical
  /// to the source as zero-cost no-ops. HS_CONFIG key coherence.elide.
  bool elide = true;
  /// Debug oracle: memcmp source vs destination on every elision (when
  /// the executor executes payloads) and throw Errc::internal on any
  /// mismatch. HS_CONFIG key coherence.oracle.
  bool oracle = false;
  /// Device->device transfers longer than this are split into chunks so
  /// the device->host and host->device hops overlap.
  std::size_t pipeline_threshold = 8u << 20;
  /// Chunk size for the pipelined hops.
  std::size_t pipeline_chunk = 2u << 20;
};

/// Construction-time configuration. The Runtime constructor applies
/// $HS_CONFIG on top, so Runtime::config() is the configuration the
/// runtime actually runs with.
struct RuntimeConfig {
  PlatformDesc platform = PlatformDesc::host_only();
  OrderPolicy policy = OrderPolicy::relaxed_fifo;
  bool transfer_pool_enabled = true;  ///< COI-like 2 MB staging pool
  LinkModel device_link = pcie_gen2_x16();
  /// Per-device link override (one entry per non-host domain); empty =
  /// every device uses `device_link`. Lets a platform mix PCIe cards and
  /// fabric-attached remote nodes (§IV: streams "on devices residing in
  /// remote nodes").
  std::vector<LinkModel> domain_links;
  /// Interconnect fault model: which transfers fail, stall, or take the
  /// device down (interconnect/fault.hpp). Disabled by default.
  FaultPlan faults;
  /// How executors retry transient transfer failures before declaring
  /// the device lost.
  RetryPolicy retry;
  /// Link-health EWMA tuning for fault-aware placement
  /// (interconnect/health.hpp).
  HealthPolicy health;
  /// Use the pre-index pairwise window scan for dependence analysis
  /// instead of the per-buffer interval index (DESIGN.md "Scalable
  /// admission path"). Kept as the reference implementation and the
  /// honest baseline for bench_enqueue_scale. HS_CONFIG key dep_legacy_scan.
  bool dep_legacy_scan = false;
  /// Debug oracle: run the index *and* the legacy scan on every relaxed
  /// admission and throw Errc::internal unless the index's blockers are
  /// closure-equivalent to the scan's: each one is a scan blocker, and
  /// each scan blocker reaches one through the successor graph.
  /// HS_CONFIG key dep_oracle.
  bool dep_oracle = false;
  /// Byte-range coherence: validity tracking, transfer elision, chunked
  /// multi-hop pipeline (see CoherenceConfig).
  CoherenceConfig coherence;
  /// Out-of-core execution: when an instantiation would exceed a domain's
  /// memory budget, evict idle (unpinned) incarnations — dirty ranges sync
  /// home, clean ranges drop free — instead of throwing
  /// Errc::resource_exhausted. Spilled operands are transparently
  /// re-admitted and re-uploaded at dispatch. HS_CONFIG key eviction;
  /// eviction=0 restores the old throw-on-exhaustion behavior.
  bool eviction = true;
};

/// `config`'s switches as the HS_CONFIG value that sets them all:
/// "dep_legacy_scan=0,dep_oracle=0,coherence.track=1,...". HS_CONFIG takes
/// any subset of these keys, each 0 or 1, and overrides the field of the
/// same name.
[[nodiscard]] std::string hs_config_string(const RuntimeConfig& config);

/// Where enqueues go during graph capture: instead of being admitted into
/// a stream window and executed, fully-formed records on captured streams
/// are handed to the sink, which stores them as graph nodes and returns a
/// placeholder completion event (graph/capture.hpp implements this).
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  /// Whether enqueues into `stream` are being captured.
  [[nodiscard]] virtual bool captures(StreamId stream) const = 0;
  /// Records one enqueue. The returned event never fires; it exists so
  /// capture-time code can thread it into enqueue_event_wait calls, which
  /// the sink resolves into graph edges.
  virtual std::shared_ptr<EventState> record(
      std::shared_ptr<ActionRecord> record) = 0;
};

/// Admission gating for service mode. When installed, every enqueue that
/// lands in a tenant-bound stream calls before_admit *before* the action
/// enters its stream window — outside all stream/shard locks, so an
/// implementation may block (weighted-fair turn taking, blocking quotas)
/// or throw (Errc::quota_exceeded in fail-fast mode). Each admitted
/// gated action owes exactly one on_complete at completion — including
/// cancellation, failure, and elision — so permits and in-flight byte
/// accounting never leak. on_complete runs on completion paths
/// (executor threads, the completion drainer) and must not block or
/// throw.
class AdmissionHook {
 public:
  virtual ~AdmissionHook() = default;
  virtual void before_admit(std::uint32_t tenant, ActionType type,
                            std::size_t bytes) = 0;
  /// Called once the admission itself finished (the record is in its
  /// stream window) — the release point for a fair-turn permit acquired
  /// in before_admit. Runs outside all runtime locks; must not block.
  virtual void after_admit(std::uint32_t tenant, ActionType type) noexcept = 0;
  virtual void on_complete(std::uint32_t tenant, ActionType type,
                           std::size_t bytes) noexcept = 0;
  /// The memory governor spilled `buffer`'s incarnation in `domain` (its
  /// dirty ranges are already home). Runs under the governor lock on
  /// whatever thread triggered the eviction; must not block, throw, or
  /// call back into the runtime.
  virtual void on_evict(BufferId buffer, DomainId domain,
                        std::size_t bytes) noexcept {
    (void)buffer;
    (void)domain;
    (void)bytes;
  }
  /// A spilled (or dispatch-time) incarnation of `buffer` is being
  /// re-admitted into `domain`. May throw (e.g. Errc::quota_exceeded) to
  /// veto the re-admission, which fails the triggering action; must not
  /// block on runtime progress (it runs on dispatch paths).
  virtual void on_refetch(BufferId buffer, DomainId domain,
                          std::size_t bytes) {
    (void)buffer;
    (void)domain;
    (void)bytes;
  }
};

class Runtime {
 public:
  /// Applies $HS_CONFIG to `config` before anything else (see
  /// with_hs_config; a malformed value throws Errc::invalid_argument).
  Runtime(RuntimeConfig config, std::unique_ptr<Executor> executor);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The configuration in effect, $HS_CONFIG included.
  [[nodiscard]] const RuntimeConfig& config() const noexcept {
    return config_;
  }

  // --- Domains -----------------------------------------------------------
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  [[nodiscard]] const Domain& domain(DomainId id) const;
  /// False once the domain was declared lost.
  [[nodiscard]] bool domain_alive(DomainId id) const;
  /// Declares `id` permanently lost (an unplugged/faulted card). Every
  /// in-flight action on its streams is failed exactly-once, one
  /// device_lost error is queued for the next synchronization point, and
  /// all further work targeting the domain is refused with
  /// Errc::device_lost. Idempotent. Executors call this on injected
  /// device loss and on transfer-retry exhaustion; applications may call
  /// it to take a device out of rotation.
  void mark_domain_lost(DomainId id);
  /// Moves a buffer off the (typically lost) domain `from`: the
  /// incarnation in `to` is created if absent, refreshed from the host
  /// incarnation, and the `from` incarnation is dropped with its budget
  /// refunded. The host copy is only authoritative over ranges the
  /// device never wrote: if `from` is still alive and holds dirty ranges
  /// (device computes wrote them and nothing synced them back), those
  /// ranges are copied device->host first, so evacuation never
  /// resurrects stale host data. If `from` is dead and dirty, the only
  /// current copy died with it: the call fails with Errc::data_loss
  /// unless `discard_dirty` is set (recovery paths that restore from
  /// their own checkpoint, or will re-execute the producers, pass true).
  /// The buffer must be quiescent — synchronize first. Returns
  /// device_lost if `to` is dead, resource_exhausted if `to` lacks
  /// memory, not_found for unknown ids.
  Status evacuate(BufferId id, DomainId from, DomainId to,
                  bool discard_dirty = false);
  /// All domains of a given kind, in id order (domain discovery, §II).
  [[nodiscard]] std::vector<DomainId> domains_of_kind(DomainKind kind) const;
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  // --- Link health (fault-aware placement) -------------------------------
  /// Health state of the link to `domain`: an EWMA over transfer-attempt
  /// outcomes fed from the fault injector's decisions and retry notes.
  [[nodiscard]] LinkHealth link_health(DomainId id) const;
  /// Hysteresis verdict: true once the link's score fell below
  /// HealthPolicy::degrade_below and until it recovers above
  /// recover_above (sticky at device loss).
  [[nodiscard]] bool link_degraded(DomainId id) const;
  /// Placement helper: the first candidate that is alive and not
  /// degraded; falls back to the first alive candidate when every
  /// survivor is degraded (degraded beats dead), and throws
  /// Errc::device_lost when no candidate is alive. Counts a steered
  /// placement whenever the answer differs from the first candidate.
  [[nodiscard]] DomainId pick_healthy(std::span<const DomainId> candidates);

  // --- Buffers -----------------------------------------------------------
  /// Wraps user memory [base, base+size) as a buffer in the proxy space.
  BufferId buffer_create(void* base, std::size_t size, BufferProps props = {});
  /// Allocates the buffer's incarnation in `domain` (explicit, as in
  /// hStreams: "buffers currently need to be allocated before the data
  /// can be transferred"). Charges the buffer's size against the
  /// domain's budget for the buffer's memory kind; throws
  /// Errc::resource_exhausted when the kind is absent, or when it is full
  /// and eviction is disabled (or every resident incarnation is pinned).
  /// With eviction enabled (RuntimeConfig::eviction, the default), a full
  /// budget spills idle incarnations to make room instead of throwing.
  void buffer_instantiate(BufferId id, DomainId domain);
  /// Releases the incarnation in `domain` and refunds its budget. The
  /// buffer must have no in-flight actions (callers synchronize first).
  /// Fails with Errc::data_loss if the incarnation holds dirty ranges the
  /// host does not have (device-newer data) unless `discard_dirty` is set
  /// — mirror of evacuate's escape hatch; call sync_home first to keep
  /// the data. Deinstantiating a governor-spilled incarnation just clears
  /// its refetch eligibility.
  void buffer_deinstantiate(BufferId id, DomainId domain,
                            bool discard_dirty = false);
  void buffer_destroy(BufferId id);
  /// Remaining budget of `kind` memory in `domain` (domain discovery,
  /// §II: properties include "the amount of each kind of memory").
  [[nodiscard]] std::size_t memory_available(DomainId domain,
                                             MemKind kind) const;
  /// Proxy base and size of the buffer containing `proxy` (used by the
  /// compat layer, where heap arguments imply whole-buffer operands).
  [[nodiscard]] std::pair<void*, std::size_t> buffer_extent(
      const void* proxy);
  /// Destroys the buffer containing `proxy` (hStreams_DeAlloc style).
  void buffer_destroy_containing(const void* proxy);
  [[nodiscard]] std::size_t buffer_count() const;
  /// Proxy -> domain-local translation (used by TaskContext).
  [[nodiscard]] void* translate(const void* proxy, std::size_t len,
                                DomainId domain);
  /// Domain-local address of a buffer range (used by executors to move
  /// data between incarnations).
  [[nodiscard]] std::byte* buffer_local(BufferId id, DomainId domain,
                                        std::size_t offset, std::size_t len);
  /// The interconnect link between the host and `domain`.
  [[nodiscard]] const LinkModel& link_for(DomainId domain) const;
  /// Stages `bytes` through the COI-like transfer pool (statistics and
  /// modeled allocation cost; see BufferPool). Returns the modeled
  /// allocation seconds this staging incurred — zero in the pooled steady
  /// state, significant when the pool is disabled (§III).
  double account_transfer_staging(std::size_t bytes);

  // --- Streams -----------------------------------------------------------
  /// Creates a stream whose sink is (`domain`, `mask`). The mask selects
  /// logical hardware threads of the domain. Policy defaults to the
  /// runtime-wide policy.
  StreamId stream_create(DomainId domain, const CpuMask& mask,
                         std::optional<OrderPolicy> policy = std::nullopt);
  void stream_destroy(StreamId id);  ///< stream must be idle
  /// Drains a wedged stream's window: every action that has not started
  /// executing — undispatched actions plus dispatched event waits parked
  /// on unfired events — is completed as `cancelled` (its completion
  /// event still fires, so cross-stream waiters unblock). Actions whose
  /// effects are already in flight are left to finish. Returns the number
  /// of actions cancelled.
  std::size_t stream_cancel(StreamId id);
  [[nodiscard]] std::size_t stream_count() const;
  [[nodiscard]] DomainId stream_domain(StreamId id) const;
  [[nodiscard]] CpuMask stream_mask(StreamId id) const;
  [[nodiscard]] OrderPolicy stream_policy(StreamId id) const;
  /// Size in bytes of a registered buffer (graph capture/rebinding use).
  [[nodiscard]] std::size_t buffer_size(BufferId id) const;

  // --- Actions -----------------------------------------------------------
  /// Enqueues a compute task. Operands declare the proxy ranges the task
  /// reads/writes; they are the dependence analysis input.
  std::shared_ptr<EventState> enqueue_compute(
      StreamId stream, ComputePayload payload,
      std::span<const OperandRef> operands);

  /// Enqueues a transfer of [proxy, proxy+len) between the host
  /// incarnation and the stream's sink incarnation of the containing
  /// buffer. Host-as-target streams alias the transfer away.
  std::shared_ptr<EventState> enqueue_transfer(StreamId stream,
                                               const void* proxy,
                                               std::size_t len, XferDir dir);

  /// Enqueues a device->device transfer: [proxy, proxy+len) moves from
  /// `peer`'s incarnation into the stream's sink incarnation, staged
  /// through the host (the star topology has no direct device links).
  /// Executors pipeline the two hops in chunks above
  /// CoherenceConfig::pipeline_threshold, so large moves approach 2x the
  /// serial two-hop time. The host incarnation is refreshed as a side
  /// effect of the staging. `peer == kHostDomain` degenerates to a plain
  /// host->sink transfer.
  std::shared_ptr<EventState> enqueue_transfer_from(StreamId stream,
                                                    const void* proxy,
                                                    std::size_t len,
                                                    DomainId peer);

  /// Declares that host code wrote [proxy, proxy+len) directly (outside
  /// any enqueued action): device incarnations of the range are
  /// invalidated so later uploads are not elided against stale validity.
  /// Host writes that precede any device upload of the range need no
  /// declaration; writes *between* transfers of the same range do.
  void note_host_write(const void* proxy, std::size_t len);

  /// Enqueues an asynchronous sink-side allocation of `buffer`'s
  /// incarnation in the stream's domain (the §VII "forthcoming" feature:
  /// allocation pipelines behind other work instead of blocking the
  /// host). The buffer's budget is charged immediately; the modeled
  /// allocation time is paid in-stream. Later actions touching the
  /// buffer order after it via its whole-range operand.
  std::shared_ptr<EventState> enqueue_alloc(StreamId stream, BufferId buffer);

  /// Enqueues a wait on `event`. With operands, only later actions whose
  /// operands conflict are held back; with no operands the wait is a
  /// stream-wide barrier.
  std::shared_ptr<EventState> enqueue_event_wait(
      StreamId stream, std::shared_ptr<EventState> event,
      std::span<const OperandRef> operands = {});

  /// Enqueues a signal: the returned event fires once all earlier
  /// conflicting actions complete (all earlier actions if no operands).
  std::shared_ptr<EventState> enqueue_signal(
      StreamId stream, std::span<const OperandRef> operands = {});

  // --- Task-graph capture & replay (graph/) ---------------------------------
  /// Attaches/detaches the capture sink. While a sink is attached,
  /// enqueues into streams it claims are recorded as graph nodes instead
  /// of executing (and are not counted in the enqueue statistics).
  /// Exactly one capture may be active at a time.
  void set_capture(CaptureSink* sink);

  /// Admits one fully-formed record — graph replay's materialized nodes
  /// come in here — exactly as an eager enqueue of it would be: stream
  /// lookup and liveness check (Errc::device_lost), the service gate,
  /// the enqueue counters, then dependence analysis against the stream's
  /// window. The capture sink is not consulted. `record->stream` names
  /// the target stream and `record->graph` tags the action (0 = eager).
  /// With `deferred` set, a record that is ready at admission is
  /// appended to it instead of dispatched; the caller owes one
  /// dispatch_ready over the list, also when a later submit throws.
  std::shared_ptr<EventState> submit(
      std::shared_ptr<ActionRecord> record,
      std::vector<std::shared_ptr<ActionRecord>>* deferred = nullptr);

  /// Dispatches records a series of submit calls held back.
  void dispatch_ready(std::span<const std::shared_ptr<ActionRecord>> ready);

  /// Counts one finished capture and hands out the graph's id (ids start
  /// at 1; 0 marks eager actions).
  [[nodiscard]] std::uint32_t note_graph_captured();

  // --- Synchronization (host side) ----------------------------------------
  void stream_synchronize(StreamId stream);
  void synchronize();  ///< all streams idle
  void event_wait_host(std::span<const std::shared_ptr<EventState>> events,
                       WaitMode mode = WaitMode::all);

  /// Deadline overloads: instead of blocking forever on a wedged stream,
  /// return Status{timed_out} after `timeout_s` seconds (wall seconds on
  /// the threaded backend, virtual seconds in simulation). On a drained
  /// wait, the oldest captured sink error (if any) is consumed and
  /// returned as a Status rather than rethrown.
  [[nodiscard]] Status synchronize(double timeout_s);
  [[nodiscard]] Status stream_synchronize(StreamId stream, double timeout_s);
  [[nodiscard]] Status event_wait_host(
      std::span<const std::shared_ptr<EventState>> events, WaitMode mode,
      double timeout_s);

  // --- Checkpoint support (checkpoint/) ------------------------------------
  /// Pulls every dirty range of `id` (device incarnations newer than the
  /// host) home through the evacuate sync-home path, without dropping any
  /// incarnation: after it returns ok, the host copy is the buffer's
  /// logical value over its whole extent. Quiesces the executor first;
  /// callers synchronize before asking (the checkpoint layer does).
  /// Errc::data_loss when a *dead* domain holds dirty ranges — the only
  /// current copy died with it; not_found for unknown ids.
  Status sync_home(BufferId id);
  /// Drains the buffer's changed-since-last-epoch ranges (see
  /// Buffer::take_ckpt_dirty). The epoch boundary: a subsequent call
  /// returns only changes made after this one.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  take_ckpt_dirty(BufferId id);
  /// Marks [offset, offset+len) changed-since-last-epoch (whole-buffer
  /// seeding when tracking begins; forced full snapshots when coherence
  /// tracking is off).
  void mark_ckpt_dirty(BufferId id, std::size_t offset, std::size_t len);
  /// Rebinds the tracked buffers of `manager` to this runtime's
  /// registered buffers, replays the last durable epoch's bytes into the
  /// host incarnations (declared via note_host_write, so device validity
  /// is invalidated and later uploads are not elided against stale
  /// state), and reports where execution should resume. Defined in
  /// checkpoint/checkpoint.cpp.
  Status restore_from_checkpoint(ckpt::CheckpointManager& manager,
                                 ckpt::RestoreInfo* info = nullptr);

  // --- Multi-tenant service mode (service/) --------------------------------
  /// Registers a tenant counter slice and returns its id (ids start at
  /// 1; 0 marks untagged work). Slices live for the runtime's lifetime.
  [[nodiscard]] std::uint32_t tenant_register();
  /// Number of registered tenants.
  [[nodiscard]] std::size_t tenant_count() const;
  /// Snapshot of one tenant's counter slice.
  [[nodiscard]] TenantStatsSlice tenant_slice(std::uint32_t tenant) const;
  /// Binds `stream` to (`tenant`, `session`): subsequent enqueues are
  /// stamped with the ids, counted into the tenant's slice, and gated by
  /// the admission hook. Bind before enqueuing (the binding is read
  /// without the stream lock on enqueue fast paths); tenant 0 unbinds.
  void stream_bind_tenant(StreamId stream, std::uint32_t tenant,
                          std::uint32_t session);
  /// The tenant a stream is bound to (0 = unbound).
  [[nodiscard]] std::uint32_t stream_tenant(StreamId stream) const;
  /// Installs the admission gate (nullptr detaches). The caller keeps
  /// ownership; the hook must outlive all runtime activity. Install
  /// before the first gated enqueue and detach only when idle.
  void set_admission_hook(AdmissionHook* hook) noexcept {
    admission_hook_.store(hook, std::memory_order_release);
  }

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] RuntimeStats stats() const;
  /// Adds `n` to counter `c` (relaxed, lock-free). Other modules count
  /// the events they own through it: graph passes and replays,
  /// checkpoints, executors' transfer chunks.
  void count(Counter c, std::uint64_t n = 1) const {
    stats_[static_cast<std::size_t>(c)].fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  [[nodiscard]] double now() const { return executor_->now(); }
  /// Attaches an execution-trace recorder (nullptr detaches). The caller
  /// keeps ownership; the recorder must outlive all runtime activity.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }
  [[nodiscard]] OrderPolicy policy() const noexcept { return config_.policy; }
  [[nodiscard]] Executor& executor() noexcept { return *executor_; }
  [[nodiscard]] BufferPool& transfer_pool() noexcept { return pool_; }

  // --- Error containment ----------------------------------------------------
  /// A sink-side task body that throws does not crash the worker: the
  /// exception is captured, the action completes (its successors still
  /// run — matching an offload runtime, where a failed kernel cannot
  /// retract already-enqueued work), and captured errors are rethrown
  /// one per synchronize()/stream_synchronize() call, oldest first, from
  /// a bounded pending-error queue (so a second error captured between
  /// two sync calls is not lost). Returns whether an unreported sink
  /// error is pending.
  [[nodiscard]] bool has_pending_error() const;
  /// Drops all queued sink errors (recovery paths that already know the
  /// domain died). Returns how many were dropped.
  std::size_t clear_pending_errors();

  // --- Executor interface (not for application use) ------------------------
  /// Called by executors when an action's effects are complete. Ignored
  /// if the action was already completed by cancellation or domain loss.
  void complete_action(ActionId id);
  /// Called by executors when a task body threw; captures the error for
  /// the next synchronization point and completes the action.
  void fail_action(ActionId id, std::exception_ptr error);
  /// Decides the fate of attempt `attempt` of the transfer with stable
  /// per-domain id `transfer` targeting `domain` (consults the
  /// FaultInjector, counts injected faults, feeds the link-health EWMA).
  /// Executors pass ActionRecord::transfer_seq as the id.
  [[nodiscard]] FaultDecision next_transfer_fault(DomainId domain,
                                                  std::uint64_t transfer,
                                                  int attempt);
  /// Counts one backoff retry of a transient transfer failure on the
  /// link to `domain`.
  void note_transfer_retry(DomainId domain);
  /// Records one pipelined transfer's modeled serial two-hop duration
  /// vs. its observed duration (both in seconds; accumulated as micros —
  /// the pipeline overlap ratio is serial/actual at report time).
  void note_pipeline_span(double serial_s, double actual_s);
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return config_.retry;
  }
  [[nodiscard]] FaultInjector& fault_injector() noexcept { return injector_; }
  /// Host-wait rendezvous lock + condition variable, used by
  /// Executor::wait implementations. Since the sharded-locking refactor
  /// this mutex no longer guards stream/dependence state — wait
  /// predicates are self-synchronizing — it only pairs with the
  /// condition variable so completion notifications are not lost.
  [[nodiscard]] std::mutex& mutex() noexcept { return mutex_; }
  [[nodiscard]] std::condition_variable& completion_cv() noexcept {
    return cv_;
  }

 private:
  /// Per-stream admission state. `mu` serializes admissions into and
  /// completions out of this one stream; enqueues on different streams
  /// do not contend. Lock order: below streams_mutex_, above the dep
  /// shards (see DESIGN.md "Locking protocol").
  struct StreamState {
    StreamId id;
    DomainId domain;
    CpuMask mask;
    OrderPolicy policy;
    mutable std::mutex mu;
    std::uint64_t next_seq = 0;
    /// Incomplete actions in FIFO order (pending or dispatched).
    std::deque<std::shared_ptr<ActionRecord>> window;
    /// Byte-range dependence index over the incomplete window (relaxed
    /// streams on the index path only).
    StreamDepIndex index;
    /// Incomplete stream-wide barriers (event waits/signals with no
    /// operands), in seq order: they conflict with every action, so they
    /// ride beside the byte-range index instead of inside it.
    std::vector<ActionId> barriers;
    /// Actions already retired from `window` whose completion callbacks
    /// are still running (process_completion). The stream is idle only
    /// when this is zero too, so synchronize() covers the callbacks.
    std::atomic<std::uint32_t> firing{0};
    /// Atomic so stream lookups need only the shared streams_mutex_.
    std::atomic<bool> alive{true};
    /// Service-mode binding (stream_bind_tenant). Written while the
    /// stream is quiescent, read lock-free on enqueue paths; `slice`
    /// points into tenant_slices_ (pointer-stable deque) so hot paths
    /// bump per-tenant counters without any tenant-table lock.
    std::atomic<std::uint32_t> tenant{0};
    std::atomic<std::uint32_t> session{0};
    std::atomic<CounterArray*> slice{nullptr};
  };

  // Dependence bookkeeping attached per action, keyed by id. The owning
  // shard's lock guards only the map's insert/find/erase; the fields are
  // mutated under the action's stream lock (values are pointer-stable
  // across rehash, and erasure happens only under that same stream lock).
  struct DepState {
    std::shared_ptr<ActionRecord> record;
    std::size_t blockers = 0;
    std::vector<ActionId> successors;
    StreamState* stream = nullptr;
  };

  /// One stripe of the action table. Striping by id keeps completions of
  /// unrelated actions off each other's locks.
  struct DepShard {
    std::mutex mu;
    std::unordered_map<ActionId, DepState> map;
  };
  static constexpr std::size_t kDepShards = 16;

  /// Self-locking lookup (shared streams_mutex_ inside); the returned
  /// reference stays valid for the runtime's lifetime (entries are
  /// pointer-stable and never erased).
  [[nodiscard]] StreamState& stream_state(StreamId id) const;

  /// Locks `m`, counting a contended acquisition (try_lock miss) into
  /// lock_shard_contention.
  void lock_counted(std::mutex& m) const;

  [[nodiscard]] DepShard& shard_for(ActionId id) {
    return shards_[id.value % kDepShards];
  }
  /// Shard lookup; returns nullptr if absent. The returned pointer stays
  /// valid while the caller holds the action's stream lock (which blocks
  /// the only erasure path).
  [[nodiscard]] DepState* dep_find(ActionId id);

  /// `config` with $HS_CONFIG (see hs_config_string) applied. An unknown
  /// key, a value other than 0 or 1, or an item with no '=' throws
  /// Errc::invalid_argument naming the item. coherence.track=0 also turns
  /// coherence.elide off: elision needs validity tracking. Defined in
  /// config.cpp.
  static RuntimeConfig with_hs_config(RuntimeConfig config);

  /// The shared tail of every enqueue front end and of the public
  /// submit, for callers that already looked the stream up and checked
  /// its domain: service gate, enqueue counters, admit.
  std::shared_ptr<EventState> submit(
      StreamState& stream, std::shared_ptr<ActionRecord> record,
      std::vector<std::shared_ptr<ActionRecord>>* deferred);

  /// Shared body of enqueue_event_wait and enqueue_signal: resolves
  /// `operands` (none = stream-wide barrier) onto `record`.
  std::shared_ptr<EventState> enqueue_sync(
      StreamId stream, std::shared_ptr<ActionRecord> record,
      std::span<const OperandRef> operands);

  /// The attached capture sink if it claims `stream`, else nullptr.
  [[nodiscard]] CaptureSink* capture_for(StreamId stream) const;

  /// Inserts a fully-formed record into its stream window, wires
  /// dependence edges, and dispatches it if already ready — or, with
  /// `deferred` set, appends it there for the caller to dispatch. Takes
  /// the stream's lock.
  std::shared_ptr<EventState> admit(
      StreamState& stream, std::shared_ptr<ActionRecord> record,
      std::vector<std::shared_ptr<ActionRecord>>* deferred);

  /// Computes this record's blockers among earlier incomplete window
  /// entries by the legacy pairwise scan (stream lock held).
  [[nodiscard]] std::vector<ActionId> legacy_blockers(
      const StreamState& stream, const ActionRecord& record) const;

  /// Computes blockers via the per-buffer interval index + live-barrier
  /// list (stream lock held), deduped and in admission (seq) order. The
  /// set is closure-equivalent to legacy_blockers, which the oracle
  /// checks when on.
  [[nodiscard]] std::vector<ActionId> indexed_blockers(
      const StreamState& stream, const ActionRecord& record);

  /// True if `from` is in `targets` (ascending) or reaches one through
  /// successor edges (stream locks of the path held). Oracle only.
  [[nodiscard]] bool reaches_any(ActionId from,
                                 std::span<const ActionId> targets);

  /// Adds `record`'s uses to the stream's index and barrier list (stream
  /// lock held). Its writes prune the entries of `preds`, its blockers
  /// (ascending); empty `preds` prunes nothing.
  void index_insert(StreamState& stream, const ActionRecord& record,
                    std::span<const ActionId> preds);

  /// Rebuilds the stream's index and barrier list, unpruned, from its
  /// incomplete non-cancelled window (stream lock held). Called by the
  /// early-completion paths (stream_cancel, mark_domain_lost) in the
  /// critical section that claims their victims.
  void rebuild_dep_index(StreamState& stream);

  /// Service-mode pre-admission: stamps the stream's tenant/session
  /// binding onto `record` and, when an admission hook is installed,
  /// runs before_admit (which may block for a fair-turn or throw
  /// quota_exceeded). Called by submit for every admission *before* any
  /// stream/shard lock is taken, so a blocked tenant holds nothing
  /// another tenant's enqueue or completion needs. `bytes` is the
  /// transfer length (0 for computes/syncs).
  void tag_and_gate(const StreamState& stream, ActionRecord& record,
                    std::size_t bytes);

  /// The per-tenant counter slice for `stream`'s binding (nullptr when
  /// unbound). Lock-free.
  [[nodiscard]] CounterArray* slice_of(const StreamState& stream) const {
    return stream.slice.load(std::memory_order_acquire);
  }

  /// Adds `n` to tenant-scoped counter `c` and, when `slice` (the
  /// enqueuing stream's slice_of) is set, to the same row of the slice.
  void count(Counter c, std::uint64_t n, CounterArray* slice) const {
    count(c, n);
    if (slice != nullptr) {
      (*slice)[static_cast<std::size_t>(c)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  /// Hands a ready action to the executor (no lock held).
  void dispatch(const std::shared_ptr<ActionRecord>& record);

  /// Online transfer elision, decided at dispatch time (every conflicting
  /// predecessor has completed, so the validity state of the range is
  /// settled). Returns true — after marking the record elided and
  /// counting stats — when source and destination incarnations are both
  /// valid over the transferred range (plus the host for device->device
  /// moves), i.e. the copy would move byte-identical data. Under the
  /// coherence oracle the claim is verified with memcmp first.
  [[nodiscard]] bool try_elide(const std::shared_ptr<ActionRecord>& record);

  /// Entry for an action whose completion is already claimed: pushes it
  /// onto the MPSC completion queue; the first pusher becomes the
  /// drainer and applies queued completions in FIFO order (single
  /// unblocking pass — deterministic, and recursion through completion
  /// callbacks stays bounded).
  void finish_action(std::shared_ptr<ActionRecord> record);

  /// Applies one completion: index/window maintenance, successor
  /// unblocking, completion-event fire, waiter notification.
  void process_completion(const std::shared_ptr<ActionRecord>& record);

  /// Queues a captured sink error (mutex_ held). The queue is bounded;
  /// overflow drops the newest error after logging it.
  void push_pending_error(std::exception_ptr error);

  /// Pops and converts the oldest pending error, ok() if none (no lock
  /// held on entry).
  [[nodiscard]] Status take_pending_status();

  /// Throws Errc::device_lost unless the domain is alive (lock-free).
  void require_domain_alive(DomainId id) const;

  /// Folds one transfer-attempt outcome into `domain`'s health EWMA
  /// (mutex_ held); counts degradation transitions.
  void health_sample(DomainId id, double outcome);

  /// True when every stream's window is empty (self-locking).
  [[nodiscard]] bool all_streams_idle() const;
  /// True when `stream`'s window is empty (self-locking).
  [[nodiscard]] bool stream_idle(StreamId stream) const;

  /// Wakes host waiters after a state change, with the mutex_ fence that
  /// prevents lost wakeups (waiters re-check predicates under mutex_).
  void notify_waiters();

  // --- Out-of-core memory governor (DESIGN.md "Out-of-core eviction") ---
  /// Admits (id, domain) into the budget for `kind`, evicting idle
  /// incarnations while the budget is exceeded (gov_mu_ held). No-op if
  /// already resident (touches LRU recency; pins when `pins` > 0). A
  /// non-null `stall_s` accumulates the modeled seconds of victim
  /// writeback so simulated executors can charge it to the triggering
  /// action. A non-null `defer_pins` (the calling action's own pins)
  /// switches the every-victim-pinned failure mode from throwing to a
  /// DeferDispatch signal — but only when some pin in the way belongs to
  /// *another* in-flight action, whose completion will free capacity;
  /// an action whose own operand set can never fit still throws.
  void govern_admit_locked(
      BufferId id, DomainId domain, MemKind kind, std::size_t bytes,
      std::uint32_t pins, double* stall_s,
      const std::vector<std::pair<BufferId, DomainId>>* defer_pins = nullptr);
  /// Spills one idle incarnation of (domain, kind): dirty ranges sync
  /// home (validity-map minimized), clean ranges drop free, the Buffer is
  /// deinstantiated and marked spilled for demand re-fetch. Throws
  /// Errc::resource_exhausted when every resident incarnation is pinned.
  /// Returns the modeled writeback seconds (gov_mu_ held).
  double evict_one_locked(DomainId domain, MemKind kind);
  /// Drops (id, domain) from the governor ledger, refunding its budget
  /// charge (gov_mu_ held; no-op if absent).
  void govern_release_locked(BufferId id, DomainId domain);
  /// Pins every incarnation `record` touches (sink-domain operands,
  /// transfer sink + d2d peer) so in-flight actions' operands are never
  /// eviction victims, re-admitting and re-uploading spilled read ranges
  /// on demand. Called from dispatch, before try_elide, outside all
  /// locks; pins are recorded in record->pins and released exactly once
  /// in process_completion. Throws to fail the action (budget cannot fit
  /// all pinned operands, or the admission hook vetoed a refetch).
  void prepare_residency(const std::shared_ptr<ActionRecord>& record);
  /// Releases the pins recorded in `record->pins` (outside all locks).
  /// Returns true when pins were actually released — capacity that a
  /// deferred dispatch may now be able to claim.
  bool release_pins(const std::shared_ptr<ActionRecord>& record);
  /// Re-dispatches actions parked by out-of-core backpressure (their
  /// operands could not be admitted because other in-flight actions
  /// pinned every victim). Called outside all locks whenever pins drop
  /// or budget capacity frees (completion, deinstantiate, destroy).
  void retry_deferred();

  RuntimeConfig config_;
  std::unique_ptr<Executor> executor_;
  Topology topology_;
  BufferPool pool_;

  /// Host-wait rendezvous only (see mutex()); also guards the cold state
  /// below that is not worth its own lock: health_, pending_errors_,
  /// injector decisions, and domain-loss transitions.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Guards the BufferPool's accounting (executor threads stage
  /// transfers concurrently).
  std::mutex pool_mutex_;

  /// Deque, not vector: Domain holds an atomic and never relocates.
  std::deque<Domain> domains_;
  /// Per-domain link health, indexed by domain id (host entry unused).
  std::vector<LinkHealth> health_;
  /// Per-domain enqueue-order transfer ids (the FaultInjector identity
  /// key), indexed by domain id. Sized once at construction.
  std::vector<std::atomic<std::uint64_t>> next_transfer_seq_;

  /// Guards the streams_ vector itself (create/destroy take it
  /// exclusively; lookups shared). Entries are pointer-stable.
  mutable std::shared_mutex streams_mutex_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  /// Guards the BufferTable's structure (create/destroy exclusive,
  /// lookups shared); each Buffer's own state has a leaf lock.
  mutable std::shared_mutex buffers_mutex_;
  BufferTable buffers_;
  /// Serializes budget admission and eviction. Sits ABOVE buffers_mutex_
  /// in the lock order (gov_mu_ -> buffers_mutex_ shared -> Buffer::mu_):
  /// eviction writes dirty ranges home and deinstantiates victims while
  /// holding it, so residency decisions are atomic with the spill.
  /// Never taken while holding a stream, shard, or buffer lock.
  mutable std::mutex gov_mu_;
  /// Per-(domain, kind) budget ledger + resident-incarnation LRU/pin
  /// bookkeeping (gov_mu_).
  MemoryGovernor governor_;
  /// Actions parked by out-of-core backpressure: their dispatch-time
  /// admission found every victim pinned by *other* in-flight actions.
  /// retry_deferred() re-dispatches them when pins or capacity free
  /// (gov_mu_ guards the list; dispatch happens outside it).
  std::vector<std::shared_ptr<ActionRecord>> ooc_deferred_;

  /// The striped action table (formerly one `deps_` map).
  std::array<DepShard, kDepShards> shards_;

  /// MPSC completion queue: producers are executor threads and
  /// cancellation paths; the first pusher drains (completion_draining_).
  std::mutex completion_mutex_;
  std::vector<std::shared_ptr<ActionRecord>> completion_queue_;
  bool completion_draining_ = false;
  /// Owned by the current drainer (process_completion never nests within
  /// one runtime), so their storage is reused, not reallocated, per
  /// completion: the batch being applied, and the successors one
  /// completion made ready.
  std::vector<std::shared_ptr<ActionRecord>> drain_batch_;
  std::vector<std::shared_ptr<ActionRecord>> drain_ready_;

  /// One global atomic keeps ActionIds in enqueue order (ids assigned
  /// under the stream lock stay monotone within each stream's window).
  std::atomic<std::uint32_t> next_action_id_{0};
  std::atomic<std::uint32_t> next_graph_id_{1};  ///< 0 marks eager actions
  std::atomic<CaptureSink*> capture_{nullptr};
  /// Tenant counter slices, indexed by tenant id - 1. Deque: entries are
  /// pointer-stable, so StreamState::slice and hot paths never take
  /// tenants_mutex_ (which guards only registration and snapshots).
  std::deque<CounterArray> tenant_slices_;
  mutable std::shared_mutex tenants_mutex_;
  std::atomic<AdmissionHook*> admission_hook_{nullptr};
  /// The totals stats() snapshots. Mutable: const introspection paths
  /// still count scan steps.
  mutable CounterArray stats_{};
  /// Unreported sink errors, oldest first (bounded; see push_pending_error).
  std::deque<std::exception_ptr> pending_errors_;
  FaultInjector injector_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace hs
