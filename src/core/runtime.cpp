#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/log.hpp"

namespace hs {

namespace {

Topology make_topology(const RuntimeConfig& config) {
  const std::size_t devices =
      config.platform.domains.empty() ? 0 : config.platform.domains.size() - 1;
  if (config.domain_links.empty()) {
    return Topology(devices, config.device_link);
  }
  require(config.domain_links.size() == devices,
          "domain_links must have one entry per non-host domain");
  return Topology(config.domain_links);
}

/// Sizes a card action's pin list for dispatch (prepare_residency pins
/// one incarnation per operand, two for a d2d transfer) on the enqueuing
/// thread, so the dispatching thread never grows it.
void reserve_pins(ActionRecord& record, DomainId domain) {
  if (domain != kHostDomain && record.type != ActionType::event_wait &&
      record.type != ActionType::event_signal) {
    record.pins.reserve(std::max<std::size_t>(record.operands.size(), 2));
  }
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, std::unique_ptr<Executor> executor)
    : config_(with_hs_config(std::move(config))),
      executor_(std::move(executor)),
      topology_(make_topology(config_)),
      pool_(config_.transfer_pool_enabled),
      injector_(config_.faults) {
  require(executor_ != nullptr, "runtime needs an executor");
  require(!config_.platform.domains.empty(), "platform needs a host domain");
  if (config_.transfer_pool_enabled) {
    // COI pre-allocates its 2 MB buffer pool at init, which is what makes
    // steady-state allocation overhead "negligible" (§III).
    pool_.warm(64);
  }
  require(config_.platform.domains.front().kind == DomainKind::host,
          "domain 0 must be the host");
  for (std::size_t i = 0; i < config_.platform.domains.size(); ++i) {
    domains_.emplace_back(DomainId{static_cast<std::uint32_t>(i)},
                          config_.platform.domains[i]);
  }
  health_.resize(domains_.size());
  next_transfer_seq_ =
      std::vector<std::atomic<std::uint64_t>>(domains_.size());
  executor_->attach(*this);
}

Runtime::~Runtime() {
  // Each synchronize reports at most one queued sink error; drain the
  // whole queue (a teardown error cannot propagate from a destructor).
  for (int i = 0; i < 64; ++i) {
    try {
      synchronize();
      break;
    } catch (const std::exception& e) {
      log_error("runtime destroyed with pending sink error: %s", e.what());
    }
  }
  // Executors own threads that may call back into the runtime; they must
  // die before runtime state does.
  executor_.reset();
}

void Runtime::lock_counted(std::mutex& m) const {
  if (m.try_lock()) {
    return;
  }
  count(Counter::lock_shard_contention);
  m.lock();
}

Runtime::DepState* Runtime::dep_find(ActionId id) {
  DepShard& shard = shard_for(id);
  lock_counted(shard.mu);
  const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
  const auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : &it->second;
}

const Domain& Runtime::domain(DomainId id) const {
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return domains_[id.value];
}

std::vector<DomainId> Runtime::domains_of_kind(DomainKind kind) const {
  std::vector<DomainId> out;
  for (const Domain& d : domains_) {
    if (d.desc().kind == kind) {
      out.push_back(d.id());
    }
  }
  return out;
}

bool Runtime::domain_alive(DomainId id) const {
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return domains_[id.value].alive();
}

void Runtime::require_domain_alive(DomainId id) const {
  require(domains_[id.value].alive(),
          "domain " + std::to_string(id.value) + " was lost",
          Errc::device_lost);
}

void Runtime::mark_domain_lost(DomainId id) {
  {
    const std::scoped_lock lock(mutex_);
    require(id.value < domains_.size(), "unknown domain", Errc::not_found);
    require(id != kHostDomain, "the host domain cannot be lost");
    if (!domains_[id.value].alive()) {
      return;  // already declared; the loss is reported exactly once
    }
    domains_[id.value].mark_lost();
    count(Counter::domains_lost);
    if (!health_[id.value].degraded) {
      count(Counter::links_degraded);
    }
    health_[id.value].lose();
    push_pending_error(std::make_exception_ptr(
        Error(Errc::device_lost,
              "domain " + std::to_string(id.value) + " lost (" +
                  domains_[id.value].desc().name + ")")));
  }
  // Fail every in-flight action on the dead domain's streams. Claiming
  // under each stream's lock makes this exactly-once: a late `done` from
  // an executor thread finds the claim and becomes a no-op. Enqueues
  // racing this loop already see the dead domain (alive is atomic and
  // was cleared above).
  std::vector<std::shared_ptr<ActionRecord>> victims;
  {
    std::shared_lock streams(streams_mutex_);
    for (const auto& sp : streams_) {
      StreamState& s = *sp;
      if (!s.alive.load(std::memory_order_acquire) || s.domain != id) {
        continue;
      }
      lock_counted(s.mu);
      const std::lock_guard<std::mutex> sl(s.mu, std::adopt_lock);
      for (const auto& rec : s.window) {
        if (rec->state == ActionRecord::State::done || rec->claimed) {
          continue;
        }
        rec->claimed = true;
        rec->cancelled = true;
        if (rec->state == ActionRecord::State::pending) {
          // Block the successor-unblocking path from dispatching it.
          rec->state = ActionRecord::State::dispatched;
        }
        count(Counter::actions_failed);
        victims.push_back(rec);
      }
      rebuild_dep_index(s);  // the stream_cancel rule, same critical section
    }
  }
  log_error("domain %u declared lost; %zu in-flight actions failed", id.value,
            victims.size());
  for (auto& victim : victims) {
    finish_action(std::move(victim));
  }
}

Status Runtime::evacuate(BufferId id, DomainId from, DomainId to,
                         bool discard_dirty) {
  try {
    std::size_t size = 0;
    bool have_from = false;
    bool from_alive = false;
    std::vector<std::pair<std::size_t, std::size_t>> dirty;
    {
      std::shared_lock buffers(buffers_mutex_);
      require(from.value < domains_.size() && to.value < domains_.size(),
              "unknown domain", Errc::not_found);
      require(from != to, "evacuate needs distinct source and target");
      require_domain_alive(to);
      Buffer& buf = buffers_.get(id);
      size = buf.size();
      have_from = from != kHostDomain && buf.instantiated_in(from);
      from_alive = domains_[from.value].alive();
      if (have_from) {
        dirty = buf.dirty_ranges(from);
      }
    }
    // Let executor threads finish any claimed-failed bodies that may
    // still touch incarnation storage before we move/drop it.
    executor_->quiesce();
    if (!dirty.empty()) {
      if (!from_alive && !discard_dirty) {
        // The device held the only current copy of these ranges and died
        // with them. Refusing (rather than silently refreshing the
        // target from the stale host copy) is the whole point: the
        // caller must either restore from its own checkpoint / re-execute
        // the producers (then pass discard_dirty) or accept the loss.
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        return Status::error(
            Errc::data_loss,
            "evacuate: " + std::to_string(bytes) + " dirty bytes of buffer " +
                std::to_string(id.value) + " had their only current copy on "
                "lost domain " + std::to_string(from.value));
      }
      if (from_alive) {
        // The source is alive and newer than the host over these ranges:
        // sync them home first, so the host copy we are about to treat
        // as authoritative actually is. Validity follows the copies
        // (as-if, in timing-only runs) so elision decisions stay
        // identical whether payloads execute or not.
        if (executor_->executes_payloads()) {
          for (const auto& [offset, length] : dirty) {
            std::byte* host = buffer_local(id, kHostDomain, offset, length);
            std::byte* src = buffer_local(id, from, offset, length);
            std::memcpy(host, src, length);
          }
        }
        std::shared_lock buffers(buffers_mutex_);
        Buffer& buf = buffers_.get(id);
        for (const auto& [offset, length] : dirty) {
          buf.note_transfer(from, kHostDomain, offset, length);
        }
      }
      std::shared_lock buffers(buffers_mutex_);
      buffers_.get(id).discard_dirty(from);
    }
    if (to != kHostDomain) {
      buffer_instantiate(id, to);  // no-op if already incarnated there
      if (executor_->executes_payloads()) {
        // The host incarnation is the authoritative copy on this
        // host-centric topology; refresh the target from it.
        std::byte* host = buffer_local(id, kHostDomain, 0, size);
        std::byte* sink = buffer_local(id, to, 0, size);
        std::memcpy(sink, host, size);
      }
      std::shared_lock buffers(buffers_mutex_);
      buffers_.get(id).note_transfer(kHostDomain, to, 0, size);
    }
    if (have_from) {
      buffer_deinstantiate(id, from);
    }
    return Status::ok();
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  }
}

// --- Buffers ---------------------------------------------------------------

BufferId Runtime::buffer_create(void* base, std::size_t size,
                                BufferProps props) {
  const std::unique_lock buffers(buffers_mutex_);
  return buffers_.create(base, size, props);
}

void Runtime::buffer_instantiate(BufferId id, DomainId domain) {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  MemKind kind;
  std::size_t size = 0;
  bool resident = false;
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    resident = domain == kHostDomain || buf.instantiated_in(domain);
    kind = buf.props().mem_kind;
    size = buf.size();
  }
  if (resident) {
    // Host incarnation aliases user memory; re-instantiation is a
    // recency touch for the governor's LRU. The buffer lock is dropped
    // first: gov_mu_ sits above it in the lock order. Touch tolerates
    // an incarnation evicted in between.
    if (domain != kHostDomain) {
      const std::scoped_lock gov(gov_mu_);
      governor_.touch(domain, id);
    }
    return;
  }
  // Admission and instantiation must be one governor critical section:
  // otherwise a racing eviction could victimize the fresh (pins == 0)
  // ledger entry before the incarnation exists, leaking the charge.
  const std::scoped_lock gov(gov_mu_);
  govern_admit_locked(id, domain, kind, size, /*pins=*/0, nullptr);
  try {
    std::shared_lock buffers(buffers_mutex_);
    buffers_.get(id).instantiate(domain);
  } catch (...) {
    governor_.release(domain, id);
    throw;
  }
}

void Runtime::buffer_deinstantiate(BufferId id, DomainId domain,
                                   bool discard_dirty) {
  {
    const std::scoped_lock gov(gov_mu_);
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    if (!buf.instantiated_in(domain)) {
      if (domain != kHostDomain && buf.spilled_from(domain)) {
        // The governor already dropped the incarnation (dirty ranges went
        // home at eviction); deinstantiation just withdraws its demand
        // re-fetch eligibility.
        buf.clear_spilled(domain);
        return;
      }
      require(false, "buffer not instantiated there", Errc::not_found);
    }
    if (domain != kHostDomain && !discard_dirty) {
      const auto dirty = buf.dirty_ranges(domain);
      if (!dirty.empty()) {
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        // Mirror of evacuate's contract: dropping device-newer ranges must
        // be explicit. Callers sync_home first or pass discard_dirty.
        throw Error(
            Errc::data_loss,
            "buffer_deinstantiate: " + std::to_string(bytes) +
                " dirty bytes of buffer " + std::to_string(id.value) +
                " exist only on domain " + std::to_string(domain.value) +
                "; sync_home first or pass discard_dirty");
      }
    }
    buf.deinstantiate(domain);
    governor_.release(domain, id);
  }
  // The refund may be the capacity a backpressured dispatch is waiting on.
  retry_deferred();
}

std::pair<void*, std::size_t> Runtime::buffer_extent(const void* proxy) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.find_containing(proxy, 1);
  return {buf.proxy_base(), buf.size()};
}

void Runtime::buffer_destroy_containing(const void* proxy) {
  BufferId id;
  {
    std::shared_lock buffers(buffers_mutex_);
    id = buffers_.find_containing(proxy, 1).id();
  }
  buffer_destroy(id);
}

std::size_t Runtime::memory_available(DomainId domain, MemKind kind) const {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  const auto& budgets = domains_[domain.value].desc().memory_bytes;
  const auto it = budgets.find(kind);
  if (it == budgets.end()) {
    return 0;
  }
  const std::scoped_lock gov(gov_mu_);
  return it->second - governor_.used(domain, kind);
}

void Runtime::buffer_destroy(BufferId id) {
  {
    // gov_mu_ before the exclusive buffers lock (the governor's eviction
    // path holds gov_mu_ while taking buffers_mutex_ shared).
    const std::scoped_lock gov(gov_mu_);
    const std::unique_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    // Refund every device incarnation's budget.
    for (std::size_t d = 1; d < domains_.size(); ++d) {
      const DomainId domain{static_cast<std::uint32_t>(d)};
      if (buf.instantiated_in(domain)) {
        governor_.release(domain, id);
      }
    }
    buffers_.destroy(id);
  }
  // The refund may be the capacity a backpressured dispatch is waiting on.
  retry_deferred();
}

// --- Out-of-core memory governor -------------------------------------------

namespace {

/// Thrown (and caught) only inside this translation unit: dispatch-time
/// admission found the budget full with every victim pinned by *other*
/// in-flight actions. Not an error — Runtime::dispatch parks the action
/// in ooc_deferred_ and retry_deferred() re-dispatches it when those
/// pins release.
struct DeferDispatch {
  BufferId buffer;
  DomainId domain;
  MemKind kind = MemKind::ddr;
  std::size_t bytes = 0;
};

}  // namespace

void Runtime::govern_admit_locked(
    BufferId id, DomainId domain, MemKind kind, std::size_t bytes,
    std::uint32_t pins, double* stall_s,
    const std::vector<std::pair<BufferId, DomainId>>* defer_pins) {
  if (governor_.resident(domain, id)) {
    for (std::uint32_t i = 0; i < pins; ++i) {
      governor_.pin(domain, id);
    }
    if (pins == 0) {
      governor_.touch(domain, id);
    }
    return;
  }
  const auto& budgets = domains_[domain.value].desc().memory_bytes;
  const auto budget_it = budgets.find(kind);
  require(budget_it != budgets.end(),
          "domain has no memory of the requested kind",
          Errc::resource_exhausted);
  // A buffer that exceeds the entire budget can never be made to fit, no
  // matter how much is evicted.
  require(bytes <= budget_it->second,
          "buffer larger than the domain's entire memory budget",
          Errc::resource_exhausted);
  while (governor_.used(domain, kind) + bytes > budget_it->second) {
    require(config_.eviction, "domain memory budget exhausted",
            Errc::resource_exhausted);
    if (defer_pins != nullptr &&
        !governor_.pick_victim(domain, kind).has_value() &&
        governor_.has_external_pins(domain, kind, *defer_pins)) {
      // Backpressure instead of failure: another action's completion
      // will unpin a victim, so parking this dispatch makes progress.
      // (If the only pins in the way are our own, fall through to
      // evict_one_locked's throw — waiting could never help.)
      throw DeferDispatch{id, domain, kind, bytes};
    }
    const double stall = evict_one_locked(domain, kind);
    if (stall_s != nullptr) {
      *stall_s += stall;
    }
  }
  governor_.admit(domain, id, kind, bytes, pins);
}

double Runtime::evict_one_locked(DomainId domain, MemKind kind) {
  const std::optional<BufferId> victim = governor_.pick_victim(domain, kind);
  require(victim.has_value(),
          "domain memory budget exhausted and every resident buffer is "
          "pinned by in-flight actions",
          Errc::resource_exhausted);
  const std::size_t victim_bytes = governor_.bytes_of(domain, *victim);
  std::size_t written = 0;
  std::size_t dropped = 0;
  double stall_s = 0.0;
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer* buf = nullptr;
    try {
      buf = &buffers_.get(*victim);
    } catch (const Error&) {
      buf = nullptr;  // destroyed with a stale ledger entry; just refund
    }
    if (buf != nullptr) {
      // Validity-map-minimized spill: only device-newer (dirty) ranges
      // cost a writeback; everything else the host already has, so the
      // incarnation drops free. No executor quiesce here — the victim is
      // unpinned, so no in-flight body targets it, and a claimed-failed
      // straggler writes into owned storage that lingers until buffer
      // destruction (and whose validity is already garbage).
      const auto dirty = buf->dirty_ranges(domain);
      for (const auto& [offset, length] : dirty) {
        if (executor_->executes_payloads()) {
          std::byte* host = buf->local_address(kHostDomain, offset);
          std::byte* src = buf->local_address(domain, offset);
          std::memcpy(host, src, length);
        }
        written += length;
        stall_s += link_for(domain).transfer_seconds(length);
      }
      for (const auto& [offset, length] : dirty) {
        buf->note_transfer(domain, kHostDomain, offset, length);
      }
      for (const auto& [offset, length] : buf->valid_ranges(domain)) {
        dropped += length;
      }
      dropped -= written > dropped ? dropped : written;
      buf->spill(domain);
    }
  }
  governor_.release(domain, *victim);
  count(Counter::evictions);
  count(Counter::spill_bytes_written, written);
  count(Counter::spill_bytes_dropped_clean, dropped);
  log_debug("evicted buffer %u from domain %u (%zu dirty bytes home, %zu "
            "clean bytes dropped)",
            victim->value, domain.value, written, dropped);
  if (trace_ != nullptr) {
    trace_->on_ooc("evict", *victim, domain, written, executor_->now());
  }
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->on_evict(*victim, domain, victim_bytes);
  }
  return stall_s;
}

void Runtime::govern_release_locked(BufferId id, DomainId domain) {
  governor_.release(domain, id);
}

bool Runtime::release_pins(const std::shared_ptr<ActionRecord>& record) {
  if (record->pins.empty()) {
    return false;
  }
  const std::scoped_lock gov(gov_mu_);
  for (const auto& [buffer, domain] : record->pins) {
    governor_.unpin(domain, buffer);
  }
  record->pins.clear();
  return true;
}

void Runtime::retry_deferred() {
  std::vector<std::shared_ptr<ActionRecord>> parked;
  {
    const std::scoped_lock gov(gov_mu_);
    if (ooc_deferred_.empty()) {
      return;
    }
    parked.swap(ooc_deferred_);
  }
  for (const auto& record : parked) {
    // An action cancelled (or failed by domain loss) while parked has
    // already been completed by its claimant; re-dispatching it would
    // run a body whose completion nobody owns.
    bool stale;
    {
      const std::scoped_lock lock(stream_state(record->stream).mu);
      stale = record->claimed || record->state == ActionRecord::State::done;
    }
    if (stale) {
      continue;
    }
    // Each retry either admits (dispatches), re-parks (still blocked on
    // another action's pins), or fails the action (can never fit).
    dispatch(record);
  }
}

void Runtime::prepare_residency(const std::shared_ptr<ActionRecord>& record) {
  // Residency target: one incarnation this action's effects touch.
  struct Target {
    BufferId buffer;
    DomainId domain;
    std::size_t offset = 0;
    std::size_t length = 0;
    bool reads = false;  ///< restore host-valid ranges before executing
  };
  const DomainId sink = stream_state(record->stream).domain;
  // Each target is handled as the switch below names it, with no list in
  // between: this runs on the dispatching thread once per action.
  const auto reside = [&](const Target& t) {
    if (t.domain == kHostDomain) {
      return;
    }
    MemKind kind;
    std::size_t size = 0;
    {
      std::shared_lock buffers(buffers_mutex_);
      Buffer* buf = nullptr;
      try {
        buf = &buffers_.get(t.buffer);
      } catch (const Error&) {
        return;  // destroyed while queued; the executor's path copes
      }
      kind = buf->props().mem_kind;
      size = buf->size();
    }
    bool admitted = false;
    {
      const std::scoped_lock gov(gov_mu_);
      if (governor_.resident(t.domain, t.buffer)) {
        governor_.pin(t.domain, t.buffer);
      } else {
        // Spilled (or dropped) since enqueue: re-admit with an initial
        // pin so a concurrent dispatch's eviction cannot victimize it
        // before this action completes. Passing our own pin list arms
        // the backpressure path: if the budget is full of operands
        // pinned by *other* in-flight actions, this throws
        // DeferDispatch and the whole dispatch parks instead of
        // failing.
        govern_admit_locked(t.buffer, t.domain, kind, size, /*pins=*/1,
                            &record->ooc_stall_s, &record->pins);
        std::shared_lock buffers(buffers_mutex_);
        buffers_.get(t.buffer).instantiate(t.domain);
        admitted = true;
      }
    }
    record->pins.emplace_back(t.buffer, t.domain);
    if (admitted) {
      if (AdmissionHook* hook =
              admission_hook_.load(std::memory_order_acquire)) {
        try {
          hook->on_refetch(t.buffer, t.domain, size);
        } catch (...) {
          // Vetoed (e.g. residency quota): unwind the fresh admission so
          // the runtime and the hook agree the incarnation is still out.
          const std::scoped_lock gov(gov_mu_);
          {
            std::shared_lock buffers(buffers_mutex_);
            try {
              Buffer& buf = buffers_.get(t.buffer);
              buf.spill(t.domain);
            } catch (const Error&) {
            }
          }
          governor_.release(t.domain, t.buffer);
          record->pins.pop_back();
          throw;
        }
      }
      count(Counter::refetches);
    }
    // Demand re-fetch: restore the ranges this action reads that the
    // host has and the incarnation does not. Ranges the action only
    // writes stay invalid — and a d2h over a restored range now
    // legitimately elides (both endpoints valid), so the "download"
    // degenerates to the upload we just performed instead of copying
    // garbage over good host data.
    //
    // This runs even when the incarnation was already resident, if it
    // was ever rebuilt after a spill: a write-only action (e.g. a beta=0
    // gemm) re-admits a spilled buffer restoring nothing, leaving a
    // resident incarnation that is invalid over everything it didn't
    // write — the next reader must pull its ranges back from the host
    // copy the eviction synced them to. Never-spilled incarnations skip
    // this (reading a range the app never uploaded keeps pre-governor
    // semantics and costs no virtual stall time).
    bool paged = admitted;
    if (!paged && t.reads && t.length > 0) {
      std::shared_lock buffers(buffers_mutex_);
      paged = buffers_.get(t.buffer).demand_paged(t.domain);
    }
    std::size_t restored = 0;
    if (paged && t.reads && t.length > 0) {
      std::vector<std::pair<std::size_t, std::size_t>> need;
      {
        std::shared_lock buffers(buffers_mutex_);
        need = buffers_.get(t.buffer)
                   .refetch_ranges(t.domain, t.offset, t.length);
      }
      for (const auto& [offset, length] : need) {
        if (executor_->executes_payloads()) {
          std::byte* dst = buffer_local(t.buffer, t.domain, offset, length);
          std::byte* src =
              buffer_local(t.buffer, kHostDomain, offset, length);
          std::memcpy(dst, src, length);
        }
        {
          std::shared_lock buffers(buffers_mutex_);
          buffers_.get(t.buffer)
              .note_transfer(kHostDomain, t.domain, offset, length);
        }
        record->ooc_stall_s += link_for(t.domain).transfer_seconds(length);
        restored += length;
      }
    }
    if (admitted || restored > 0) {
      log_debug("refetched buffer %u into domain %u (%zu bytes restored)",
                t.buffer.value, t.domain.value, restored);
      if (trace_ != nullptr) {
        trace_->on_ooc("refetch", t.buffer, t.domain, restored,
                       executor_->now());
      }
    }
  };
  switch (record->type) {
    case ActionType::compute:
      if (sink == kHostDomain) {
        return;  // host operands alias user memory, never governed
      }
      for (const Operand& op : record->operands) {
        const bool reads =
            op.access == Access::in || op.access == Access::inout;
        reside({op.buffer, sink, op.offset, op.length, reads});
      }
      break;
    case ActionType::transfer: {
      if (sink == kHostDomain) {
        return;  // aliased away at enqueue
      }
      const TransferPayload& t = record->transfer;
      // d2h reads the sink incarnation; h2d and d2d write it. A d2d
      // additionally reads the peer incarnation over the same range.
      const bool sink_reads =
          t.peer == kHostDomain && t.dir == XferDir::sink_to_src;
      reside({t.buffer, sink, t.offset, t.length, sink_reads});
      if (t.peer != kHostDomain) {
        reside({t.buffer, t.peer, t.offset, t.length, true});
      }
      break;
    }
    case ActionType::alloc:
      // The incarnation must exist (re-admitting it if evicted since
      // enqueue); nothing is read.
      reside({record->transfer.buffer, sink, 0, 0, false});
      break;
    case ActionType::event_wait:
    case ActionType::event_signal:
      return;  // no incarnation storage touched
  }
}

std::size_t Runtime::buffer_count() const {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.count();
}

void* Runtime::translate(const void* proxy, std::size_t len, DomainId domain) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.find_containing(proxy, len);
  return buf.local_address(domain, buf.offset_of(proxy));
}

std::byte* Runtime::buffer_local(BufferId id, DomainId domain,
                                 std::size_t offset, std::size_t len) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.get(id);
  require(offset + len <= buf.size(), "range escapes buffer",
          Errc::out_of_range);
  return buf.local_address(domain, offset);
}

const LinkModel& Runtime::link_for(DomainId domain) const {
  if (domain == kHostDomain) {
    return topology_.loopback();
  }
  return topology_.link_to_device(domain.value - 1);
}

double Runtime::account_transfer_staging(std::size_t bytes) {
  const std::scoped_lock lock(pool_mutex_);
  const std::size_t block = pool_.block_size();
  const std::size_t blocks = (bytes + block - 1) / block;
  const double before = pool_.stats().modeled_alloc_seconds;
  // Transfers use staging blocks transiently: acquire for the duration of
  // the copy, release after. Steady state with the pool enabled is all
  // hits; with the pool disabled every staging block pays the modeled
  // allocation cost (the §III OmpSs-without-pool configuration).
  std::vector<PoolBlock> held;
  held.reserve(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    held.push_back(pool_.acquire(block));
  }
  for (auto& b : held) {
    pool_.release(std::move(b));
  }
  return pool_.stats().modeled_alloc_seconds - before;
}

// --- Streams ---------------------------------------------------------------

StreamId Runtime::stream_create(DomainId domain, const CpuMask& mask,
                                std::optional<OrderPolicy> policy) {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  require_domain_alive(domain);
  require(!mask.empty(), "stream mask must be non-empty");
  const auto cpus = mask.cpus();
  require(cpus.back() < domains_[domain.value].hw_threads(),
          "stream mask exceeds domain hardware threads");
  const std::unique_lock streams(streams_mutex_);
  const StreamId id{static_cast<std::uint32_t>(streams_.size())};
  auto state = std::make_unique<StreamState>();
  state->id = id;
  state->domain = domain;
  state->mask = mask;
  state->policy = policy.value_or(config_.policy);
  streams_.push_back(std::move(state));
  log_debug("stream %u created on domain %u mask %s", id.value, domain.value,
            mask.to_string().c_str());
  return id;
}

void Runtime::stream_destroy(StreamId id) {
  StreamState& s = stream_state(id);
  const std::scoped_lock lock(s.mu);
  require(s.window.empty(), "stream_destroy on a busy stream");
  s.alive.store(false, std::memory_order_release);
}

std::size_t Runtime::stream_cancel(StreamId id) {
  std::vector<std::shared_ptr<ActionRecord>> victims;
  {
    StreamState& s = stream_state(id);
    lock_counted(s.mu);
    const std::lock_guard<std::mutex> lock(s.mu, std::adopt_lock);
    for (const auto& rec : s.window) {
      if (rec->state == ActionRecord::State::done || rec->claimed) {
        continue;
      }
      const bool undispatched = rec->state == ActionRecord::State::pending;
      // A dispatched event wait holds no thread and has no effects; it is
      // safe to cancel — this is what unwedges a stream parked on an
      // event that will never fire. Dispatched computes/transfers have
      // effects in flight and are left to finish.
      const bool parked_wait =
          rec->state == ActionRecord::State::dispatched &&
          rec->type == ActionType::event_wait;
      if (!undispatched && !parked_wait) {
        continue;
      }
      rec->claimed = true;
      rec->cancelled = true;
      if (undispatched) {
        rec->state = ActionRecord::State::dispatched;
      }
      count(Counter::actions_cancelled);
      victims.push_back(rec);
    }
    // Inside the claiming critical section: the victims finish after the
    // lock drops (or only queue, if another thread is draining), and an
    // admission in that gap must already see the predecessors they
    // pruned.
    if (!victims.empty()) {
      rebuild_dep_index(s);
    }
  }
  const std::size_t count = victims.size();
  for (auto& victim : victims) {
    finish_action(std::move(victim));
  }
  return count;
}

std::size_t Runtime::stream_count() const {
  std::shared_lock streams(streams_mutex_);
  return static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(), [](const auto& s) {
        return s->alive.load(std::memory_order_acquire);
      }));
}

DomainId Runtime::stream_domain(StreamId id) const {
  return stream_state(id).domain;
}

OrderPolicy Runtime::stream_policy(StreamId id) const {
  return stream_state(id).policy;
}

std::size_t Runtime::buffer_size(BufferId id) const {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.get(id).size();
}

CpuMask Runtime::stream_mask(StreamId id) const {
  return stream_state(id).mask;
}

Runtime::StreamState& Runtime::stream_state(StreamId id) const {
  std::shared_lock streams(streams_mutex_);
  require(id.value < streams_.size() &&
              streams_[id.value]->alive.load(std::memory_order_acquire),
          "unknown stream", Errc::not_found);
  return *streams_[id.value];
}

// --- Enqueue ---------------------------------------------------------------
//
// Enqueue front-ends no longer take a runtime-wide lock: stream lookup is
// a shared read, domain liveness is an atomic, operand resolution takes
// the buffer table's shared lock, and admission serializes only on the
// target stream's own mutex. Enqueues on different streams run fully in
// parallel.

std::shared_ptr<EventState> Runtime::enqueue_compute(
    StreamId stream, ComputePayload payload,
    std::span<const OperandRef> operands) {
  require(payload.body != nullptr, "compute task needs a body");
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::compute;
  record->compute = std::move(payload);

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  // Under capture the instantiation check is deferred to replay: a
  // captured alloc node earlier in the graph legalizes this use, and
  // GraphExec instantiates before admitting the launch.
  CaptureSink* sink = capture_for(stream);
  record->stream = stream;
  {
    std::shared_lock buffers(buffers_mutex_);
    for (const OperandRef& ref : operands) {
      Operand op = buffers_.resolve(ref.ptr, ref.len, ref.access);
      const Buffer& buf = buffers_.get(op.buffer);
      // A governor-spilled incarnation still passes: dispatch re-admits
      // and re-uploads it on demand (prepare_residency). usable_in reads
      // both states under one lock so a concurrent eviction can't be
      // observed mid-transition.
      require(sink != nullptr || buf.usable_in(s.domain),
              "compute operand buffer not instantiated in sink domain",
              Errc::buffer_not_instantiated);
      // Enforce the creator's declared usage property (§II: buffers let
      // users "declare usage properties, such as whether it's read only").
      require(!buf.props().read_only || !writes(op.access),
              "write operand on a read-only buffer");
      record->operands.push_back(op);
    }
  }
  return sink != nullptr ? sink->record(std::move(record))
                         : submit(s, std::move(record), nullptr);
}

std::shared_ptr<EventState> Runtime::enqueue_transfer(StreamId stream,
                                                      const void* proxy,
                                                      std::size_t len,
                                                      XferDir dir) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::transfer;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  record->stream = stream;
  const bool aliased = (s.domain == kHostDomain);
  // As in enqueue_compute, capture defers the instantiation check to
  // replay (a captured alloc node may precede this transfer).
  CaptureSink* sink = capture_for(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.find_containing(proxy, len);
    if (!aliased) {
      require(sink != nullptr || buf.usable_in(s.domain),
              "transfer target buffer not instantiated in sink domain",
              Errc::buffer_not_instantiated);
    }
    record->transfer =
        TransferPayload{buf.id(), buf.offset_of(proxy), len, dir};
    // Direction-sensitive dependence encoding: a host->sink transfer writes
    // the sink incarnation (out); a sink->host transfer only reads it (in),
    // so it can overlap later sink-side readers of the same range — the
    // enabling property of the RTM halo pipeline (§V).
    record->operands.push_back(
        Operand{buf.id(), record->transfer.offset, len,
                dir == XferDir::src_to_sink ? Access::out : Access::in});
  }
  return sink != nullptr ? sink->record(std::move(record))
                         : submit(s, std::move(record), nullptr);
}

std::shared_ptr<EventState> Runtime::enqueue_transfer_from(StreamId stream,
                                                           const void* proxy,
                                                           std::size_t len,
                                                           DomainId peer) {
  if (peer == kHostDomain) {
    return enqueue_transfer(stream, proxy, len, XferDir::src_to_sink);
  }
  require(peer.value < domains_.size(), "unknown peer domain",
          Errc::not_found);
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::transfer;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  require(s.domain != kHostDomain,
          "device->device transfer needs a device sink stream "
          "(use enqueue_transfer for device->host)");
  require(peer != s.domain, "peer equals the sink domain");
  record->stream = stream;
  CaptureSink* sink = capture_for(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.find_containing(proxy, len);
    require(sink != nullptr || buf.usable_in(s.domain),
            "transfer target buffer not instantiated in sink domain",
            Errc::buffer_not_instantiated);
    require(sink != nullptr || buf.usable_in(peer),
            "transfer source buffer not instantiated in peer domain",
            Errc::buffer_not_instantiated);
    record->transfer = TransferPayload{buf.id(), buf.offset_of(proxy), len,
                                       XferDir::src_to_sink, peer};
    // Writes the sink incarnation (and, through staging, the host).
    record->operands.push_back(
        Operand{buf.id(), record->transfer.offset, len, Access::out});
  }
  return sink != nullptr ? sink->record(std::move(record))
                         : submit(s, std::move(record), nullptr);
}

std::shared_ptr<EventState> Runtime::enqueue_alloc(StreamId stream,
                                                   BufferId buffer) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::alloc;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  require(s.domain != kHostDomain,
          "alloc targets a device (the host aliases user memory)");
  record->stream = stream;
  CaptureSink* sink = capture_for(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(buffer);
    require(!buf.instantiated_in(s.domain),
            "buffer already instantiated in sink domain",
            Errc::already_initialized);
    record->transfer =
        TransferPayload{buffer, 0, buf.size(), XferDir::src_to_sink};
    record->operands.push_back(Operand{buffer, 0, buf.size(), Access::out});
  }
  if (sink != nullptr) {
    // Budget charge and incarnation bookkeeping are deferred to replay
    // (GraphExec instantiates before admitting the launch).
    return sink->record(std::move(record));
  }
  // Charge budget and declare the incarnation now (enqueue time); the
  // executor pays the modeled allocation latency in stream order.
  buffer_instantiate(buffer, s.domain);
  return submit(s, std::move(record), nullptr);
}

std::shared_ptr<EventState> Runtime::enqueue_event_wait(
    StreamId stream, std::shared_ptr<EventState> event,
    std::span<const OperandRef> operands) {
  require(event != nullptr, "event_wait needs an event");
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::event_wait;
  record->wait_event = std::move(event);
  return enqueue_sync(stream, std::move(record), operands);
}

std::shared_ptr<EventState> Runtime::enqueue_signal(
    StreamId stream, std::span<const OperandRef> operands) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::event_signal;
  return enqueue_sync(stream, std::move(record), operands);
}

std::shared_ptr<EventState> Runtime::enqueue_sync(
    StreamId stream, std::shared_ptr<ActionRecord> record,
    std::span<const OperandRef> operands) {
  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  record->stream = stream;
  {
    std::shared_lock buffers(buffers_mutex_);
    for (const OperandRef& ref : operands) {
      record->operands.push_back(
          buffers_.resolve(ref.ptr, ref.len, ref.access));
    }
  }
  record->full_barrier = record->operands.empty();
  CaptureSink* sink = capture_for(stream);
  return sink != nullptr ? sink->record(std::move(record))
                         : submit(s, std::move(record), nullptr);
}

std::shared_ptr<EventState> Runtime::submit(
    std::shared_ptr<ActionRecord> record,
    std::vector<std::shared_ptr<ActionRecord>>* deferred) {
  StreamState& s = stream_state(record->stream);
  require_domain_alive(s.domain);
  return submit(s, std::move(record), deferred);
}

std::shared_ptr<EventState> Runtime::submit(
    StreamState& stream, std::shared_ptr<ActionRecord> record,
    std::vector<std::shared_ptr<ActionRecord>>* deferred) {
  tag_and_gate(stream, *record,
               record->type == ActionType::transfer ? record->transfer.length
                                                    : 0);
  // One enqueue counter per action type, globally and in the tenant's
  // slice; allocs, waits and signals count as syncs.
  Counter enqueued = Counter::syncs_enqueued;
  if (record->type == ActionType::compute) {
    enqueued = Counter::computes_enqueued;
  } else if (record->type == ActionType::transfer) {
    enqueued = Counter::transfers_enqueued;
  }
  count(enqueued, 1, slice_of(stream));
  if (record->type == ActionType::transfer && stream.domain == kHostDomain) {
    count(Counter::transfers_aliased_away);
  }
  return admit(stream, std::move(record), deferred);
}

void Runtime::dispatch_ready(
    std::span<const std::shared_ptr<ActionRecord>> ready) {
  for (const auto& record : ready) {
    dispatch(record);
  }
}

// --- Scheduling ------------------------------------------------------------

std::vector<ActionId> Runtime::legacy_blockers(
    const StreamState& stream, const ActionRecord& record) const {
  // The pre-index pairwise scan: the oracle reference and the
  // dep_legacy_scan baseline. Window order == seq order == id order within
  // a stream, so the result is sorted by id. Cancelled actions have no
  // effects and finish without waiting, so nothing waits on them.
  std::vector<ActionId> out;
  for (const auto& earlier : stream.window) {
    if (earlier->state == ActionRecord::State::done || earlier->cancelled) {
      continue;
    }
    if (record.conflicts_with(*earlier)) {
      out.push_back(earlier->id);
    }
  }
  count(Counter::dep_scan_steps, stream.window.size());
  return out;
}

std::vector<ActionId> Runtime::indexed_blockers(const StreamState& stream,
                                                const ActionRecord& record) {
  std::vector<ActionId> out;
  if (record.full_barrier) {
    // A barrier conflicts with everything: the window itself is the
    // blocker set; the index cannot beat a linear walk here.
    for (const auto& earlier : stream.window) {
      if (earlier->state != ActionRecord::State::done && !earlier->cancelled) {
        out.push_back(earlier->id);
      }
    }
    count(Counter::dep_scan_steps, stream.window.size());
  } else {
    // Live stream-wide barriers conflict with every later action but
    // carry no operands, so they ride alongside the byte-range index.
    out = stream.barriers;
    std::size_t steps = out.size();
    for (const Operand& op : record.operands) {
      steps += stream.index.collect(op, out);
    }
    count(Counter::dep_scan_steps, steps);
    // One edge per conflicting predecessor no matter how many operand
    // pairs overlap. Id order == admission order within a stream.
    if (out.size() > 1) {
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    count(Counter::dep_index_hits, out.size());
  }
  if (config_.dep_oracle) {
    count(Counter::dep_oracle_checks);
    const std::vector<ActionId> reference = legacy_blockers(stream, record);
    // Closure equivalence: every edge found is a scan edge, and every
    // scan edge left out is implied by a path to an edge found.
    const bool subset = std::includes(reference.begin(), reference.end(),
                                      out.begin(), out.end());
    const bool implied =
        subset && std::all_of(reference.begin(), reference.end(),
                              [this, &out](ActionId pred) {
                                return reaches_any(pred, out);
                              });
    if (!implied) {
      log_error("dep oracle mismatch on stream %u: index found %zu "
                "blockers, legacy scan found %zu (%s)",
                stream.id.value, out.size(), reference.size(),
                subset ? "a scan blocker is not implied"
                       : "an index blocker is not a scan blocker");
      throw Error(Errc::internal,
                  "dependence-index oracle mismatch (dep_oracle)");
    }
  }
  return out;
}

bool Runtime::reaches_any(ActionId from, std::span<const ActionId> targets) {
  if (targets.empty()) {
    return false;
  }
  // Ids grow along every edge (a successor is admitted after its
  // predecessor), so the search stops past the largest target.
  std::vector<ActionId> frontier{from};
  std::unordered_set<std::uint32_t> seen{from.value};
  while (!frontier.empty()) {
    const ActionId at = frontier.back();
    frontier.pop_back();
    if (std::binary_search(targets.begin(), targets.end(), at)) {
      return true;
    }
    const DepState* dep = at < targets.back() ? dep_find(at) : nullptr;
    if (dep == nullptr) {
      continue;
    }
    for (const ActionId next : dep->successors) {
      if (seen.insert(next.value).second) {
        frontier.push_back(next);
      }
    }
  }
  return false;
}

void Runtime::index_insert(StreamState& stream, const ActionRecord& record,
                           std::span<const ActionId> preds) {
  for (const Operand& op : record.operands) {
    stream.index.insert(op, record.id, preds);
  }
  if (record.full_barrier) {
    stream.barriers.push_back(record.id);
  }
}

void Runtime::rebuild_dep_index(StreamState& stream) {
  // Early completion finishes a pending writer while the predecessors it
  // pruned may still run, so its index entries cannot simply be erased
  // later. Re-deriving the index from the live window, unpruned, keeps
  // every admission from here on exact; the victims drop out of it now.
  if (config_.dep_legacy_scan || stream.policy == OrderPolicy::strict_fifo) {
    return;
  }
  stream.index.clear();
  stream.barriers.clear();
  for (const auto& rec : stream.window) {
    if (rec->state != ActionRecord::State::done && !rec->cancelled) {
      index_insert(stream, *rec, {});
    }
  }
}

std::shared_ptr<EventState> Runtime::admit(
    StreamState& stream, std::shared_ptr<ActionRecord> record,
    std::vector<std::shared_ptr<ActionRecord>>* deferred) {
  auto completion = record->completion;
  bool ready = false;
  {
    lock_counted(stream.mu);
    const std::lock_guard<std::mutex> lock(stream.mu, std::adopt_lock);
    // The global atomic keeps ids in enqueue order across streams while
    // the per-stream lock keeps them monotone within each window.
    record->id =
        ActionId{next_action_id_.fetch_add(1, std::memory_order_relaxed)};
    record->seq = stream.next_seq++;
    reserve_pins(*record, stream.domain);
    if (record->type == ActionType::transfer && stream.domain != kHostDomain) {
      // Enqueue-order identity for fault decisions: assigned under the
      // stream lock, so it is the same on every backend and every run no
      // matter which copier thread later runs the attempt.
      record->transfer_seq =
          next_transfer_seq_[stream.domain.value].fetch_add(
              1, std::memory_order_relaxed);
    }

    DepState dep;
    dep.record = record;
    dep.stream = &stream;

    if (stream.policy == OrderPolicy::strict_fifo) {
      // Strict FIFO forms a chain: block on the most recent incomplete
      // action only (completion order is FIFO under this policy).
      std::size_t steps = 0;
      for (auto it = stream.window.rbegin(); it != stream.window.rend();
           ++it) {
        ++steps;
        if ((*it)->state != ActionRecord::State::done) {
          DepState* prev = dep_find((*it)->id);
          require(prev != nullptr, "missing strict-chain predecessor",
                  Errc::internal);
          prev->successors.push_back(record->id);
          dep.blockers = 1;
          break;
        }
      }
      count(Counter::dep_scan_steps, steps);
    } else {
      const std::vector<ActionId> blockers =
          config_.dep_legacy_scan ? legacy_blockers(stream, *record)
                                  : indexed_blockers(stream, *record);
      for (const ActionId pred : blockers) {
        DepState* pd = dep_find(pred);
        require(pd != nullptr, "missing predecessor dep entry",
                Errc::internal);
        pd->successors.push_back(record->id);
      }
      dep.blockers = blockers.size();
      if (!config_.dep_legacy_scan) {
        index_insert(stream, *record, blockers);
      }
    }
    if (record->graph != 0) {
      count(Counter::deps_reused, dep.blockers);
    }

    stream.window.push_back(record);
    if (dep.blockers == 0) {
      record->state = ActionRecord::State::dispatched;
      if (record != stream.window.front()) {
        count(Counter::ooo_dispatches);
      }
      ready = true;
    }
    {
      DepShard& shard = shard_for(record->id);
      lock_counted(shard.mu);
      const std::lock_guard<std::mutex> sl(shard.mu, std::adopt_lock);
      shard.map.emplace(record->id, std::move(dep));
    }
    if (trace_ != nullptr) {
      TraceRecorder::Record tr;
      tr.action = record->id;
      tr.stream = record->stream;
      tr.domain = stream.domain;
      tr.type = record->type;
      tr.graph = record->graph;
      tr.tenant = record->tenant;
      tr.session = record->session;
      if (record->type == ActionType::compute) {
        tr.label = record->compute.kernel;
        tr.flops = record->compute.flops;
      } else if (record->type == ActionType::transfer) {
        tr.label = record->transfer.peer != kHostDomain ? "xfer d2d"
                   : record->transfer.dir == XferDir::src_to_sink
                       ? "xfer h2d"
                       : "xfer d2h";
        tr.bytes = record->transfer.length;
      }
      tr.enqueue_s = executor_->now();
      trace_->on_enqueue(tr);
    }
  }
  // Fair-turn permit release: the admission is done (the record sits in
  // its window), so the gate can hand the turn to the next tenant before
  // this action dispatches or executes.
  if (record->gated) {
    if (AdmissionHook* hook =
            admission_hook_.load(std::memory_order_acquire)) {
      hook->after_admit(record->tenant, record->type);
    }
  }
  if (ready) {
    if (deferred != nullptr) {
      deferred->push_back(std::move(record));
    } else {
      dispatch(record);
    }
  }
  return completion;
}

// --- Task-graph capture & replay -------------------------------------------

CaptureSink* Runtime::capture_for(StreamId stream) const {
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  return sink != nullptr && sink->captures(stream) ? sink : nullptr;
}

void Runtime::set_capture(CaptureSink* sink) {
  const std::scoped_lock lock(mutex_);
  require(sink == nullptr || capture_.load(std::memory_order_relaxed) == nullptr,
          "a graph capture is already active", Errc::already_initialized);
  capture_.store(sink, std::memory_order_release);
}

std::uint32_t Runtime::note_graph_captured() {
  count(Counter::graphs_captured);
  return next_graph_id_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::dispatch(const std::shared_ptr<ActionRecord>& record) {
  log_debug("dispatch action %u (stream %u seq %llu type %d)",
            record->id.value, record->stream.value,
            static_cast<unsigned long long>(record->seq),
            static_cast<int>(record->type));
  // Pin (and, where spilled, re-admit + re-upload) every incarnation the
  // action touches, before the elision decision — a refetch validates
  // exactly the ranges elision then tests. Failure (budget cannot hold
  // the operands, quota veto) fails the action like a thrown task body.
  for (;;) {
    try {
      prepare_residency(record);
      break;
    } catch (const DeferDispatch& defer) {
      // Out-of-core backpressure: the operands cannot be admitted while
      // other in-flight actions pin every victim. Drop the pins taken so
      // far (holding them across the wait would deadlock two parked
      // actions against each other — parked actions hold no pins, so the
      // pins blocking us always belong to executor-submitted work whose
      // completion will call retry_deferred) and park. The park and the
      // blocked-recheck share one governor critical section: a release
      // sneaking in between the defer decision and the push would
      // otherwise retry an empty list and strand this action forever.
      bool parked = false;
      {
        const std::scoped_lock gov(gov_mu_);
        for (const auto& [buffer, domain] : record->pins) {
          governor_.unpin(domain, buffer);
        }
        record->pins.clear();
        // Park iff an externally-pinned resident remains: its release is
        // the wakeup that will retry us, so parking is safe, and retrying
        // before it releases cannot help — the operand set already failed
        // to fit around those pins once, and with our own pins dropped
        // the partial-admit/defer cycle would otherwise spin forever,
        // evicting our own operands to re-admit each other.
        const bool still_blocked =
            governor_.has_external_pins(defer.domain, defer.kind,
                                        record->pins);
        if (still_blocked) {
          ooc_deferred_.push_back(record);
          parked = true;
        }
      }
      if (!parked) {
        continue;  // capacity freed in the race window — redo now
      }
      log_debug("deferred action %u (buffer %u needs %zu bytes on domain %u)",
                record->id.value, defer.buffer.value, defer.bytes,
                defer.domain.value);
      if (trace_ != nullptr) {
        trace_->on_ooc("defer", defer.buffer, defer.domain, defer.bytes,
                       executor_->now());
      }
      return;
    } catch (...) {
      fail_action(record->id, std::current_exception());
      return;
    }
  }
  if (try_elide(record)) {
    // Zero-cost completion through the normal path: the completion event
    // fires, the window/index retire, successors unblock — FIFO and
    // event semantics are exactly those of a real transfer. The executor
    // is never involved, and crucially next_transfer_fault is never
    // consulted: fault decisions stay keyed to the transfers that
    // actually attempt the link, so a ScheduledFault aimed at this
    // transfer id is not consumed by a no-op.
    if (trace_ != nullptr) {
      trace_->on_dispatch(record->id, executor_->now());
      trace_->on_elide(record->id);
    }
    complete_action(record->id);
    return;
  }
  if (trace_ != nullptr) {
    trace_->on_dispatch(record->id, executor_->now());
  }
  executor_->execute(record,
                     [this, id = record->id] { complete_action(id); });
}

bool Runtime::try_elide(const std::shared_ptr<ActionRecord>& record) {
  if (!config_.coherence.elide || record->type != ActionType::transfer) {
    return false;
  }
  const StreamState& estream = stream_state(record->stream);
  const DomainId sink = estream.domain;
  if (sink == kHostDomain) {
    return false;  // host streams alias transfers away already
  }
  const TransferPayload& t = record->transfer;
  if (t.length == 0) {
    return false;
  }
  std::shared_lock buffers(buffers_mutex_);
  Buffer* buf = nullptr;
  try {
    buf = &buffers_.get(t.buffer);
  } catch (const Error&) {
    return false;  // destroyed while queued; let the executor's path cope
  }
  // Both endpoints valid over the range => byte-identical data. For a
  // device->device move the staging would also rewrite the host copy, so
  // the host must be valid too for the elision to be effect-free.
  if (!buf->valid_over(kHostDomain, t.offset, t.length) ||
      !buf->valid_over(sink, t.offset, t.length) ||
      (t.peer != kHostDomain &&
       !buf->valid_over(t.peer, t.offset, t.length))) {
    return false;
  }
  if (config_.coherence.oracle && executor_->executes_payloads()) {
    count(Counter::coherence_oracle_checks);
    const std::byte* host = buf->local_address(kHostDomain, t.offset);
    const std::byte* dev = buf->local_address(sink, t.offset);
    bool match = std::memcmp(host, dev, t.length) == 0;
    if (match && t.peer != kHostDomain) {
      const std::byte* peer = buf->local_address(t.peer, t.offset);
      match = std::memcmp(peer, dev, t.length) == 0;
    }
    if (!match) {
      log_error("coherence oracle: elision of action %u (buffer %u offset "
                "%zu len %zu) would have changed bytes",
                record->id.value, t.buffer.value, t.offset, t.length);
      throw Error(Errc::internal,
                  "transfer-elision oracle mismatch (coherence.oracle): "
                  "an incarnation marked valid holds different bytes — "
                  "likely an untracked host write (see "
                  "Runtime::note_host_write)");
    }
  }
  record->elided = true;
  const std::uint64_t moved =
      t.peer != kHostDomain ? 2 * t.length : t.length;
  CounterArray* slice = slice_of(estream);
  count(Counter::transfers_elided, 1, slice);
  count(Counter::bytes_elided, moved, slice);
  return true;
}

void Runtime::complete_action(ActionId id) {
  // Claim gate: an action can race between its executor `done` callback
  // and an early completion by stream_cancel/mark_domain_lost. Whoever
  // sets `claimed` first (under the action's stream lock) delivers the
  // completion; the loser becomes a no-op here.
  //
  // Lock order note: the shard lookup copies the record out and drops
  // the shard lock *before* taking the stream lock — a shard lock is
  // never held while acquiring a stream lock.
  std::shared_ptr<ActionRecord> record;
  {
    DepShard& shard = shard_for(id);
    lock_counted(shard.mu);
    const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
    const auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return;
    }
    record = it->second.record;
  }
  {
    StreamState* stream = nullptr;
    {
      std::shared_lock streams(streams_mutex_);
      stream = streams_[record->stream.value].get();
    }
    lock_counted(stream->mu);
    const std::lock_guard<std::mutex> lock(stream->mu, std::adopt_lock);
    // claimed==false implies the dep entry still exists: erasure only
    // happens after a claim, under this same stream lock.
    if (record->claimed) {
      return;
    }
    record->claimed = true;
  }
  finish_action(std::move(record));
}

void Runtime::finish_action(std::shared_ptr<ActionRecord> record) {
  // MPSC completion queue: any thread may push; the first pusher becomes
  // the drainer and applies completions one at a time in push (FIFO)
  // order — a single unblocking pass, so successor wakeups stay
  // deterministic, and recursion through completion callbacks (which may
  // chain into another enqueue or another runtime) stays bounded: a
  // callback that re-enters finish_action while a drain is active just
  // enqueues and returns.
  {
    const std::scoped_lock lock(completion_mutex_);
    completion_queue_.push_back(std::move(record));
    if (completion_draining_) {
      return;
    }
    completion_draining_ = true;
  }
  for (;;) {
    {
      const std::scoped_lock lock(completion_mutex_);
      if (completion_queue_.empty()) {
        completion_draining_ = false;
        return;
      }
      // Take the whole backlog: completions pushed while it is applied
      // queue behind it, so push order still holds. Swapping (not
      // popping) keeps both vectors' storage, so draining allocates
      // nothing in steady state.
      drain_batch_.swap(completion_queue_);
    }
    for (const auto& next : drain_batch_) {
      process_completion(next);
    }
    drain_batch_.clear();
  }
}

void Runtime::notify_waiters() {
  // The empty critical section is the fence against lost wakeups: a host
  // waiter evaluates its (self-locking) predicate while holding mutex_,
  // so we cannot complete-and-notify entirely between its predicate
  // check and its cv wait.
  { const std::scoped_lock lock(mutex_); }
  cv_.notify_all();
}

void Runtime::process_completion(const std::shared_ptr<ActionRecord>& record) {
  std::shared_ptr<EventState> completion;
  std::vector<std::shared_ptr<ActionRecord>>& ready = drain_ready_;
  ready.clear();
  const ActionId id = record->id;
  StreamState* stream_ptr = nullptr;
  {
    std::shared_lock streams(streams_mutex_);
    stream_ptr = streams_[record->stream.value].get();
  }
  StreamState& stream = *stream_ptr;
  {
    lock_counted(stream.mu);
    const std::lock_guard<std::mutex> lock(stream.mu, std::adopt_lock);
    DepState dep;
    {
      DepShard& shard = shard_for(id);
      lock_counted(shard.mu);
      const std::lock_guard<std::mutex> sl(shard.mu, std::adopt_lock);
      const auto it = shard.map.find(id);
      require(it != shard.map.end(), "completion of unknown action",
              Errc::internal);
      dep = std::move(it->second);
      shard.map.erase(it);
    }

    ActionRecord& rec = *record;
    rec.state = ActionRecord::State::done;
    completion = rec.completion;
    // Cancelled and failed actions were already counted when they were
    // claimed (stream_cancel / mark_domain_lost / fail_action); counting
    // them here again would break the completed+failed+cancelled ==
    // enqueued invariant the loss-stress tests pin down.
    CounterArray* slice = slice_of(stream);
    if (!rec.cancelled && !rec.failed) {
      count(Counter::actions_completed, 1, slice);
    }
    const DomainId completion_domain = stream.domain;
    if (rec.type == ActionType::transfer && !rec.cancelled && !rec.elided &&
        completion_domain != kHostDomain) {
      // A device->device move is two physical hops through the host.
      const std::uint64_t moved = rec.transfer.peer != kHostDomain
                                      ? 2 * rec.transfer.length
                                      : rec.transfer.length;
      count(Counter::bytes_transferred, moved, slice);
    }
    // Coherence bookkeeping (see Buffer): a compute that ran to
    // completion validates the ranges it wrote in its own domain and
    // invalidates every other incarnation there; a completed transfer
    // copies the source's validity onto the destination over the moved
    // range. Cancelled actions had no effects; a failed body's partial
    // effects are garbage and cost the writer its own validity. Elided
    // transfers moved nothing and change nothing (both ends were already
    // valid). Dirty ranges — the evacuate contract — derive from the
    // same intervals as valid(device) - valid(host).
    if (config_.coherence.track && !rec.cancelled) {
      std::shared_lock buffers(buffers_mutex_);
      try {
        if (rec.type == ActionType::compute) {
          for (const Operand& op : rec.operands) {
            if (!writes(op.access)) {
              continue;
            }
            Buffer& buf = buffers_.get(op.buffer);
            if (rec.failed) {
              buf.note_write_garbage(completion_domain, op.offset,
                                     op.length);
            } else {
              buf.note_compute_write(completion_domain, op.offset,
                                     op.length);
            }
          }
        } else if (rec.type == ActionType::transfer && !rec.failed &&
                   !rec.elided && completion_domain != kHostDomain) {
          Buffer& buf = buffers_.get(rec.transfer.buffer);
          const std::size_t off = rec.transfer.offset;
          const std::size_t len = rec.transfer.length;
          if (rec.transfer.peer != kHostDomain) {
            // Two hops: peer -> host staging, then host -> sink.
            buf.note_transfer(rec.transfer.peer, kHostDomain, off, len);
            buf.note_transfer(kHostDomain, completion_domain, off, len);
          } else if (rec.transfer.dir == XferDir::src_to_sink) {
            buf.note_transfer(kHostDomain, completion_domain, off, len);
          } else {
            buf.note_transfer(completion_domain, kHostDomain, off, len);
          }
        }
      } catch (const Error&) {
        // The buffer was destroyed while this action drained; nothing
        // left to track.
      }
    }

    // Retire the action from the dependence index before unblocking
    // successors (they recompute nothing, but the invariant "the index
    // holds exactly the incomplete window" keeps later admissions exact).
    if (!config_.dep_legacy_scan && stream.policy != OrderPolicy::strict_fifo) {
      for (const Operand& op : rec.operands) {
        stream.index.erase(op, id);
      }
      if (rec.full_barrier) {
        std::erase(stream.barriers, id);
      }
    }

    // Counted in the same critical section that may retire the record,
    // so an idle check sees the window entry or the firing count.
    ++stream.firing;
    auto& window = stream.window;
    while (!window.empty() &&
           window.front()->state == ActionRecord::State::done) {
      window.pop_front();
    }

    for (const ActionId succ_id : dep.successors) {
      // Successors are same-stream (dependences are intra-stream), so
      // this stream's lock covers their DepState fields and the entries
      // cannot be erased from under us.
      DepState* succ = dep_find(succ_id);
      if (succ == nullptr) {
        continue;
      }
      require(succ->blockers > 0, "dependence underflow", Errc::internal);
      if (--succ->blockers == 0 &&
          succ->record->state == ActionRecord::State::pending) {
        succ->record->state = ActionRecord::State::dispatched;
        if (!succ->stream->window.empty() &&
            succ->record != succ->stream->window.front()) {
          count(Counter::ooo_dispatches);
        }
        ready.push_back(succ->record);
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->on_complete(id, executor_->now());
  }
  // Residency pins drop exactly once here — completion, cancellation,
  // failure, and elision all drain through this claim-gated path — so
  // the operands become eviction-eligible again. Freshly unpinned
  // victims are exactly what a backpressure-parked dispatch waits for,
  // so give the deferred queue first claim on the capacity.
  if (release_pins(record)) {
    retry_deferred();
  }
  // Release the admission gate outside every lock (the hook may take its
  // own mutex and wake enqueuers blocked in before_admit). Exactly once
  // per gated action — completion, cancellation, failure, and elision all
  // drain through here behind the claim gate.
  if (record->gated) {
    if (AdmissionHook* hook =
            admission_hook_.load(std::memory_order_acquire)) {
      hook->on_complete(record->tenant, record->type,
                        record->type == ActionType::transfer
                            ? record->transfer.length
                            : 0);
    }
  }
  // Fire the completion event *before* waking host waiters: a host
  // blocked in event_wait_host re-checks fired() on wakeup, so the event
  // must already be visible.
  for (auto& callback : completion->fire()) {
    callback();
  }
  --stream.firing;
  notify_waiters();
  for (const auto& r : ready) {
    dispatch(r);
  }
  ready.clear();
}

// --- Host-side synchronization ----------------------------------------------

void Runtime::fail_action(ActionId id, std::exception_ptr error) {
  std::shared_ptr<ActionRecord> record;
  {
    DepShard& shard = shard_for(id);
    lock_counted(shard.mu);
    const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
    const auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return;  // already failed by cancellation or domain loss
    }
    record = it->second.record;
  }
  {
    StreamState* stream = nullptr;
    {
      std::shared_lock streams(streams_mutex_);
      stream = streams_[record->stream.value].get();
    }
    lock_counted(stream->mu);
    const std::lock_guard<std::mutex> lock(stream->mu, std::adopt_lock);
    if (record->claimed) {
      return;
    }
    record->claimed = true;
    record->failed = true;
  }
  count(Counter::actions_failed);
  {
    const std::scoped_lock lock(mutex_);
    push_pending_error(std::move(error));
  }
  finish_action(std::move(record));
}

void Runtime::push_pending_error(std::exception_ptr error) {
  // Bounded so a fault storm between two sync points cannot grow the
  // queue without limit; one error per failure mode is plenty for
  // diagnosis and the counters hold the totals.
  constexpr std::size_t kMaxPendingErrors = 16;
  if (pending_errors_.size() >= kMaxPendingErrors) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      log_error("pending-error queue full; dropping: %s", e.what());
    }
    return;
  }
  pending_errors_.push_back(std::move(error));
}

bool Runtime::has_pending_error() const {
  const std::scoped_lock lock(mutex_);
  return !pending_errors_.empty();
}

std::size_t Runtime::clear_pending_errors() {
  const std::scoped_lock lock(mutex_);
  const std::size_t dropped = pending_errors_.size();
  pending_errors_.clear();
  return dropped;
}

Status Runtime::take_pending_status() {
  std::exception_ptr error;
  {
    const std::scoped_lock lock(mutex_);
    if (pending_errors_.empty()) {
      return Status::ok();
    }
    error = std::move(pending_errors_.front());
    pending_errors_.pop_front();
  }
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::exception& e) {
    return Status::error(Errc::internal, e.what());
  }
}

namespace {

/// Rethrows (and removes) the oldest captured sink error after a sync
/// point — one per call, so each synchronize reports one failure and a
/// second error captured in between is not lost.
void rethrow_pending(std::mutex& mutex,
                     std::deque<std::exception_ptr>& pending) {
  std::exception_ptr error;
  {
    const std::scoped_lock lock(mutex);
    if (pending.empty()) {
      return;
    }
    error = std::move(pending.front());
    pending.pop_front();
  }
  std::rethrow_exception(error);
}

}  // namespace

bool Runtime::stream_idle(StreamId stream) const {
  const StreamState& s = stream_state(stream);
  const std::scoped_lock lock(s.mu);
  return s.window.empty() && s.firing == 0;
}

bool Runtime::all_streams_idle() const {
  std::shared_lock streams(streams_mutex_);
  for (const auto& s : streams_) {
    const std::scoped_lock lock(s->mu);
    if (!s->window.empty() || s->firing != 0) {
      return false;
    }
  }
  return true;
}

void Runtime::stream_synchronize(StreamId stream) {
  // The predicate self-synchronizes (shared stream lookup + stream
  // lock); the executor's wait only supplies the cv rendezvous.
  executor_->wait([this, stream] { return stream_idle(stream); });
  rethrow_pending(mutex_, pending_errors_);
}

void Runtime::synchronize() {
  executor_->wait([this] { return all_streams_idle(); });
  rethrow_pending(mutex_, pending_errors_);
}

void Runtime::event_wait_host(
    std::span<const std::shared_ptr<EventState>> events, WaitMode mode) {
  executor_->wait([events, mode] {
    if (mode == WaitMode::all) {
      return std::all_of(events.begin(), events.end(),
                         [](const auto& e) { return e->fired(); });
    }
    return std::any_of(events.begin(), events.end(),
                       [](const auto& e) { return e->fired(); });
  });
}

Status Runtime::stream_synchronize(StreamId stream, double timeout_s) {
  const bool drained = executor_->wait_for(
      [this, stream] { return stream_idle(stream); }, timeout_s);
  if (!drained) {
    return Status::error(Errc::timed_out, "stream_synchronize deadline");
  }
  return take_pending_status();
}

Status Runtime::synchronize(double timeout_s) {
  const bool drained =
      executor_->wait_for([this] { return all_streams_idle(); }, timeout_s);
  if (!drained) {
    return Status::error(Errc::timed_out, "synchronize deadline");
  }
  return take_pending_status();
}

Status Runtime::event_wait_host(
    std::span<const std::shared_ptr<EventState>> events, WaitMode mode,
    double timeout_s) {
  const bool fired = executor_->wait_for(
      [events, mode] {
        if (mode == WaitMode::all) {
          return std::all_of(events.begin(), events.end(),
                             [](const auto& e) { return e->fired(); });
        }
        return std::any_of(events.begin(), events.end(),
                           [](const auto& e) { return e->fired(); });
      },
      timeout_s);
  if (!fired) {
    return Status::error(Errc::timed_out, "event_wait_host deadline");
  }
  return Status::ok();
}

// --- Fault hooks (executor interface) ---------------------------------------

FaultDecision Runtime::next_transfer_fault(DomainId domain,
                                           std::uint64_t transfer,
                                           int attempt) {
  if (!injector_.enabled()) {
    return {};  // keep the fault-free transfer hot path lock-free
  }
  const FaultDecision decision = injector_.on_transfer(domain, transfer,
                                                       attempt);
  {
    const std::scoped_lock lock(mutex_);
    switch (decision.kind) {
      case FaultKind::none:
        ++health_[domain.value].successes;
        health_sample(domain, 1.0);
        break;
      case FaultKind::transient_error:
        count(Counter::faults_injected);
        health_sample(domain, 0.0);
        break;
      case FaultKind::link_stall:
        count(Counter::faults_injected);
        ++health_[domain.value].stalls;
        health_sample(domain, 0.5);  // succeeded, but late
        break;
      case FaultKind::device_loss:
        count(Counter::faults_injected);
        // mark_domain_lost (which the executor calls next) pins the
        // health at zero; nothing to sample here.
        break;
    }
  }
  return decision;
}

void Runtime::note_transfer_retry(DomainId domain) {
  const std::scoped_lock lock(mutex_);
  count(Counter::transfers_retried);
  ++health_[domain.value].retries;
}

void Runtime::note_pipeline_span(double serial_s, double actual_s) {
  const auto us = [](double s) {
    return static_cast<std::uint64_t>(std::max(0.0, s) * 1e6);
  };
  count(Counter::pipeline_serial_us, us(serial_s));
  count(Counter::pipeline_actual_us, us(actual_s));
}

void Runtime::note_host_write(const void* proxy, std::size_t len) {
  if (!config_.coherence.track || len == 0) {
    return;
  }
  std::shared_lock buffers(buffers_mutex_);
  try {
    Buffer& buf = buffers_.find_containing(proxy, len);
    buf.note_compute_write(kHostDomain, buf.offset_of(proxy), len);
  } catch (const Error&) {
    // Writes to memory no registered buffer covers are not the coherence
    // layer's business.
  }
}

Status Runtime::sync_home(BufferId id) {
  try {
    // Let executor threads finish in-flight bodies that may still touch
    // incarnation storage; callers have already synchronized, so this is
    // a cheap fence, not a drain.
    executor_->quiesce();
    std::size_t domain_count = 0;
    {
      const std::scoped_lock lock(mutex_);
      domain_count = domains_.size();
    }
    for (std::size_t d = 1; d < domain_count; ++d) {
      const DomainId domain{static_cast<std::uint32_t>(d)};
      std::vector<std::pair<std::size_t, std::size_t>> dirty;
      bool alive = false;
      {
        std::shared_lock buffers(buffers_mutex_);
        Buffer& buf = buffers_.get(id);
        if (!buf.instantiated_in(domain)) {
          continue;
        }
        dirty = buf.dirty_ranges(domain);
        alive = domains_[d].alive();
      }
      if (dirty.empty()) {
        continue;
      }
      if (!alive) {
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        return Status::error(
            Errc::data_loss,
            "sync_home: " + std::to_string(bytes) + " dirty bytes of buffer " +
                std::to_string(id.value) + " had their only current copy on "
                "lost domain " + std::to_string(d));
      }
      if (executor_->executes_payloads()) {
        for (const auto& [offset, length] : dirty) {
          std::byte* host = buffer_local(id, kHostDomain, offset, length);
          std::byte* src = buffer_local(id, domain, offset, length);
          std::memcpy(host, src, length);
        }
      }
      std::shared_lock buffers(buffers_mutex_);
      Buffer& buf = buffers_.get(id);
      for (const auto& [offset, length] : dirty) {
        buf.note_transfer(domain, kHostDomain, offset, length);
      }
    }
    return Status::ok();
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  }
}

std::vector<std::pair<std::size_t, std::size_t>> Runtime::take_ckpt_dirty(
    BufferId id) {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.get(id).take_ckpt_dirty();
}

void Runtime::mark_ckpt_dirty(BufferId id, std::size_t offset,
                              std::size_t len) {
  std::shared_lock buffers(buffers_mutex_);
  buffers_.get(id).mark_ckpt_dirty(offset, len);
}

void Runtime::health_sample(DomainId id, double outcome) {
  if (health_[id.value].sample(outcome, config_.health)) {
    count(Counter::links_degraded);
    log_error("link to domain %u degraded (health %.3f); steering new work "
              "away", id.value, health_[id.value].score);
  }
}

LinkHealth Runtime::link_health(DomainId id) const {
  const std::scoped_lock lock(mutex_);
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return health_[id.value];
}

bool Runtime::link_degraded(DomainId id) const {
  const std::scoped_lock lock(mutex_);
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return health_[id.value].degraded;
}

DomainId Runtime::pick_healthy(std::span<const DomainId> candidates) {
  require(!candidates.empty(), "pick_healthy needs candidates");
  const std::scoped_lock lock(mutex_);
  const DomainId preferred = candidates.front();
  const DomainId* fallback = nullptr;
  for (const DomainId& c : candidates) {
    require(c.value < domains_.size(), "unknown domain", Errc::not_found);
    if (!domains_[c.value].alive()) {
      continue;
    }
    if (!health_[c.value].degraded) {
      if (c != preferred) {
        count(Counter::placements_steered);
      }
      return c;
    }
    if (fallback == nullptr) {
      fallback = &c;  // degraded beats dead
    }
  }
  if (fallback != nullptr) {
    if (*fallback != preferred) {
      count(Counter::placements_steered);
    }
    return *fallback;
  }
  throw Error(Errc::device_lost, "pick_healthy: no candidate domain alive");
}

// --- Multi-tenant service mode ----------------------------------------------

std::uint32_t Runtime::tenant_register() {
  const std::unique_lock lock(tenants_mutex_);
  tenant_slices_.emplace_back();
  return static_cast<std::uint32_t>(tenant_slices_.size());
}

std::size_t Runtime::tenant_count() const {
  const std::shared_lock lock(tenants_mutex_);
  return tenant_slices_.size();
}

TenantStatsSlice Runtime::tenant_slice(std::uint32_t tenant) const {
  const std::shared_lock lock(tenants_mutex_);
  require(tenant >= 1 && tenant <= tenant_slices_.size(),
          "unknown tenant id", Errc::not_found);
  const CounterArray& slice = tenant_slices_[tenant - 1];
  TenantStatsSlice out;
  for_each_counter([&](const CounterInfo& c) {
    if (c.slice != nullptr) {
      out.*c.slice = slice[static_cast<std::size_t>(c.id)].load(
          std::memory_order_relaxed);
    }
  });
  return out;
}

void Runtime::stream_bind_tenant(StreamId stream, std::uint32_t tenant,
                                 std::uint32_t session) {
  StreamState& s = stream_state(stream);
  CounterArray* slice = nullptr;
  if (tenant != 0) {
    const std::shared_lock lock(tenants_mutex_);
    require(tenant <= tenant_slices_.size(), "unknown tenant id",
            Errc::not_found);
    slice = &tenant_slices_[tenant - 1];
  }
  s.tenant.store(tenant, std::memory_order_relaxed);
  s.session.store(session, std::memory_order_relaxed);
  s.slice.store(slice, std::memory_order_release);
}

std::uint32_t Runtime::stream_tenant(StreamId stream) const {
  return stream_state(stream).tenant.load(std::memory_order_relaxed);
}

void Runtime::tag_and_gate(const StreamState& stream, ActionRecord& record,
                           std::size_t bytes) {
  const std::uint32_t tenant = stream.tenant.load(std::memory_order_relaxed);
  if (tenant == 0) {
    return;
  }
  record.tenant = tenant;
  record.session = stream.session.load(std::memory_order_relaxed);
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->before_admit(tenant, record.type, bytes);
    record.gated = true;
  }
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  for_each_counter([&](const CounterInfo& c) {
    out.*c.total =
        stats_[static_cast<std::size_t>(c.id)].load(std::memory_order_relaxed);
  });
  return out;
}

// --- TaskContext -------------------------------------------------------------

void* TaskContext::translate(const void* proxy, std::size_t len) const {
  return runtime_.translate(proxy, len, domain_);
}

std::size_t TaskContext::operand_count() const noexcept {
  return action_ == nullptr ? 0 : action_->operands.size();
}

void* TaskContext::operand_local(std::size_t index) const {
  require(action_ != nullptr, "no executing action bound to this context",
          Errc::invalid_argument);
  require(index < action_->operands.size(), "operand index out of range",
          Errc::out_of_range);
  const Operand& op = action_->operands[index];
  return runtime_.buffer_local(op.buffer, domain_, op.offset, op.length);
}

}  // namespace hs
