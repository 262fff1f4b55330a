// BatchScheduler — maps admitted client traffic onto CRCW rounds.
//
// Lifecycle of one batch (the admission→round→commit diagram in
// docs/architecture.md):
//
//   clients ──enqueue──▶ RequestQueue lanes
//                           │ size trigger (pending ≥ max_batch) or
//                           │ deadline trigger (oldest wait ≥ max_wait_us)
//                           ▼
//                    drain → slice into rounds of ≤ max_batch
//                           ▼ per slice:
//          WriteArbiter::next_round (round r opens)
//          phase A  lookups read state committed in rounds < r
//          ── barrier ──
//          phase B  upserts/erases race the per-bucket CAS-LT at round r
//          ── barrier ──
//          phase C  every write op reads the value round r committed,
//                   publishes Result{value, won, r} into its OpFuture
//
// The barriers give the committed-read contract for free: a lookup
// admitted into round r can never observe a round-r write, and every
// loser of a round-r race observes the winner's value — the paper's
// wait-free loser guarantee lifted to the request API.
//
// Concurrency shape: clients only touch the queue and their futures; the
// table, arbiter and histograms are touched only between pump_lock_
// acquire/release, so any number of threads may call submit_batch()/
// flush() concurrently and exactly one executes. With exec_threads == 1
// the three phases run serially with no OpenMP region at all — the mode
// the raw-thread TSan stress tier drives (OpenMP barriers are invisible
// to TSan).
//
// BatchScheduler is the single-table ServiceBackend; the key-sharded
// sibling is ShardedScheduler (sharded_scheduler.hpp). BasicServeSession
// templates over either through the concept in service_backend.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/service_backend.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "util/backoff.hpp"

namespace crcw::serve {

class BatchScheduler {
 public:
  /// Payload is the bare value: liveness lives in the table itself (the
  /// bucket's LiveTag), so a phase-B erase is a real table erase racing
  /// same-round upserts on one CAS — not a value write carrying a
  /// side-channel `live` flag that find() callers must re-check.
  using Table = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

  BatchScheduler(const ServeConfig& cfg, RequestQueue& queue, ServeMetrics& metrics)
      : cfg_(cfg.batch),
        threads_(cfg.batch.resolved_threads()),
        queue_(queue),
        metrics_(metrics),
        map_(cfg.table.expected_keys, cfg.table.hash_config("serve-table")) {}

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// How many queue lanes this backend wants for `cfg` (the session sizes
  /// the RequestQueue before constructing the backend).
  [[nodiscard]] static int queue_lanes(const ServeConfig& cfg) noexcept {
    return cfg.batch.resolved_lanes();
  }

  /// Runs one batch if an admission trigger fired (size or deadline).
  /// Returns true iff this call executed at least one round. Safe to call
  /// from any number of threads; losers of the pump race return false.
  bool submit_batch() { return run_batch(false); }

  /// Unconditionally drains and executes everything pending (one call =
  /// one drain; callers loop while clients are still enqueuing).
  bool flush() { return run_batch(true); }

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// The committed value for `key`, or nullptr if absent or erased —
  /// find() is already live-qualified, erased keys are simply not found.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return map_.find(key);
  }
  [[nodiscard]] const Table& table() const noexcept { return map_; }
  [[nodiscard]] Table& table() noexcept { return map_; }

  // -- routing (trivial: one shard, no lane preference) ---------------------
  [[nodiscard]] int shard_count() const noexcept { return 1; }
  [[nodiscard]] int shard_of(std::uint64_t) const noexcept { return 0; }
  [[nodiscard]] std::size_t route(std::uint64_t) const noexcept {
    return RequestQueue::kAnyLane;
  }

  // -- snapshots (src/snap): cuts, cut-predicated scans, restore ------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindKv;

  /// Mints a consistent cut: parks the pump just long enough to read the
  /// round (no batch in flight while the lock is held, so every write
  /// <= that round is committed and visible), registers the hold, and
  /// lets the pump resume. Scans against the cut then run CONCURRENTLY
  /// with later batches — the hold only parks grow/reclaim (the batch
  /// epilog checks cuts_held()), never writers. Pair with release_cut()
  /// or snap::HeldCut.
  [[nodiscard]] snap::SnapshotCut mint_cut() {
    const std::lock_guard<util::SpinLock> lock(pump_lock_);
    cuts_held_.fetch_add(1, std::memory_order_acq_rel);
    return {arbiter_.round(), 1};
  }

  void release_cut() noexcept { cuts_held_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Cuts currently held against this backend (maintenance parks on > 0).
  [[nodiscard]] std::uint64_t cuts_held() const noexcept {
    return cuts_held_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t snapshot_shards() const noexcept { return 1; }

  /// Backend shape baked into snapshot headers; restore refuses files from
  /// a differently-shaped server.
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return ds::mix64(kSnapshotKind + 1) ^ ds::mix64(1);
  }

  /// Cut-predicated scan of this backend's single shard; fn(key, value,
  /// round). Safe concurrently with later rounds while the cut is held.
  template <typename Fn>
  void scan_shard_at(std::uint32_t, round_t cut_round, Fn&& fn) const {
    map_.for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Serial restore of one snapshot entry (before serving starts).
  bool restore_entry(std::uint32_t, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    return map_.restore_slot(key, value, round);
  }

  /// Serial: continues the committed round sequence after restore.
  void reseed_round(round_t r) { arbiter_.reseed_round(r); }

  // -- stats ----------------------------------------------------------------
  [[nodiscard]] round_t round() const noexcept { return arbiter_.round(); }
  [[nodiscard]] std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t deadline_batches() const noexcept {
    return deadline_batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ops_served() const noexcept {
    return ops_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int exec_threads() const noexcept { return threads_; }

  [[nodiscard]] BackendStats stats() const noexcept {
    BackendStats s;
    s.rounds = round();
    s.batches = batches();
    s.deadline_batches = deadline_batches();
    s.ops_served = ops_served();
    s.full_refusals = full_refusals_.load(std::memory_order_relaxed);
    s.keys = map_.size();
    s.shards = 1;
    return s;
  }

 private:
  bool run_batch(bool force) {
    bool by_deadline = false;
    if (!force && !trigger_fired(by_deadline)) return false;
    const std::unique_lock<util::SpinLock> lock(pump_lock_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    scratch_.clear();
    const std::uint64_t drained = queue_.drain_into(scratch_);
    if (drained == 0) return false;
    // A drain larger than max_batch becomes several rounds — batch
    // boundaries are deterministic in admission order, which is what
    // tests/test_serve.cpp pins.
    for (std::size_t begin = 0; begin < scratch_.size(); begin += cfg_.max_batch) {
      const std::size_t n = std::min<std::size_t>(cfg_.max_batch, scratch_.size() - begin);
      execute_round(&scratch_[begin], n);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (by_deadline) deadline_batches_.fetch_add(1, std::memory_order_relaxed);
    ops_served_.fetch_add(drained, std::memory_order_relaxed);
    metrics_.batch_closed();
    // Batch boundary = step boundary: if churn tombstoned enough of the
    // table (reclaim_ratio watermark) — or its own probe telemetry says
    // walks degraded past the signal thresholds — rebuild it now: no
    // round is in flight, the pump lock is held, and the next batch
    // starts against a table sized for its live keys. Parked while any
    // snapshot cut is held: reclaim frees the bucket array a concurrent
    // scan_shard_at may still be walking.
    if (cuts_held() == 0) {
      map_.maybe_reclaim_parallel(threads_, map_.telemetry_signal());
    }
    return true;
  }

  [[nodiscard]] bool trigger_fired(bool& by_deadline) const noexcept {
    const std::uint64_t pending = queue_.pending();
    if (pending == 0) return false;
    if (pending >= cfg_.max_batch) return true;
    const std::uint64_t oldest = queue_.oldest_enqueue_ns();
    by_deadline = oldest != 0 && now_ns() - oldest >= cfg_.max_wait_us * 1000;
    return by_deadline;
  }

  /// One CRCW round over records[0..n): partition, reserve, arbitrate,
  /// commit. Runs entirely under pump_lock_.
  void execute_round(Record* records, std::size_t n) {
    admit_ns_ = now_ns();
    lookups_.clear();
    writes_.clear();
    // Admission pass: latency sample, sentinel rejection, and — only for
    // the parallel path — the index partition the omp loops need. The
    // serial path sweeps `records` directly and just counts.
    const bool parallel = threads_ > 1;
    std::size_t lookup_count = 0;
    std::size_t write_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (records[i].enqueue_ns != 0) {  // sampled (see BatchConfig)
        metrics_.record_admit(records[i].enqueue_ns, admit_ns_);
      }
      if (records[i].op.key == Table::kEmptyKey || is_stream_op(records[i].op.kind) ||
          is_snapshot_op(records[i].op.kind)) {
        // The reserved sentinel key can never live in the table, the
        // stream vocabulary belongs to the streaming backend, and the
        // snapshot kinds are answered by the wire server without entering
        // a round — fail all three here instead of letting the table
        // throw mid-region.
        publish(records[i], Result{0, false, arbiter_.round() + 1});
        continue;
      }
      if (records[i].op.kind == OpKind::kLookup) {
        ++lookup_count;
        if (parallel) lookups_.push_back(i);
      } else {
        ++write_count;
        if (parallel) writes_.push_back(i);
      }
    }
    metrics_.ops_admitted(n);

    // Backlog-sized reservation: one grow big enough for every write in
    // this round (ROADMAP "resize-storm tail"), so phase B cannot see
    // kFull. Parked while a snapshot cut is held (grow frees the old
    // bucket array under a live scan); a write that then finds the table
    // full is refused (won=false, counted in full_refusals) and may retry
    // in a later round. Callers sizing tables for checkpoint workloads
    // pre-size via TableConfig::expected_keys.
    if (cuts_held() == 0) map_.maybe_grow_for_backlog(write_count, threads_);

    const auto scope = arbiter_.next_round(ResetMode::kNone);
    const round_t r = scope.round();
    std::atomic<std::uint64_t> full{0};
    std::uint64_t wins = 0;

    if (!parallel) {
      if (lookup_count > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          const Record& rec = records[i];
          if (rec.op.kind != OpKind::kLookup || rec.op.key == Table::kEmptyKey) {
            continue;
          }
          const std::uint64_t* v = map_.find(rec.op.key);
          publish(rec, Result{v != nullptr ? *v : 0, v != nullptr, r});
        }
      }
      // Serial fold of phases B+C: in admission order the first same-key
      // write is the (key, round) winner and the committed outcome never
      // changes again within the round, so every op can publish the moment
      // its write returns — the separate commit sweep (and its second
      // probe per op) exists only to cross the parallel barrier.
      for (std::size_t i = 0; i < n; ++i) {
        const Record& rec = records[i];
        if (rec.op.kind != OpKind::kUpsert && rec.op.kind != OpKind::kErase) continue;
        if (rec.op.key == Table::kEmptyKey) continue;
        const bool is_erase = rec.op.kind == OpKind::kErase;
        const ds::MapUpsert outcome = is_erase
                                          ? map_.erase(r, rec.op.key)
                                          : map_.upsert(r, rec.op.key, rec.op.value);
        switch (outcome) {
          case ds::MapUpsert::kWon:
            ++wins;
            publish(rec, Result{is_erase ? 0 : rec.op.value, true, r});
            break;
          case ds::MapUpsert::kLost: {
            const std::uint64_t* v = map_.find(rec.op.key);
            publish(rec, Result{v != nullptr ? *v : 0, false, r});
            break;
          }
          case ds::MapUpsert::kFull:
            full.fetch_add(1, std::memory_order_relaxed);
            publish(rec, Result{0, false, r});
            break;
        }
      }
    } else {
      won_.assign(writes_.size(), 0);
      const auto n_lookup = static_cast<std::ptrdiff_t>(lookups_.size());
      const auto n_write = static_cast<std::ptrdiff_t>(writes_.size());
#pragma omp parallel num_threads(threads_)
      {
#pragma omp for schedule(static)
        for (std::ptrdiff_t i = 0; i < n_lookup; ++i) {
          do_lookup(records, static_cast<std::size_t>(i), r);
        }
        // implicit barrier: phase A's committed reads are closed
#pragma omp for schedule(static)
        for (std::ptrdiff_t i = 0; i < n_write; ++i) {
          do_write(records, static_cast<std::size_t>(i), r, full);
        }
        // implicit barrier: round r is committed, losers may read
#pragma omp for schedule(static)
        for (std::ptrdiff_t i = 0; i < n_write; ++i) {
          do_commit(records, static_cast<std::size_t>(i), r);
        }
      }
      for (const unsigned char w : won_) wins += w;
    }
    if (const std::uint64_t refused = full.load(std::memory_order_relaxed); refused != 0) {
      full_refusals_.fetch_add(refused, std::memory_order_relaxed);
    }

    metrics_.write_wins(wins);
    metrics_.flush_round();
    map_.flush_round();
  }

  /// Phase A: committed read — everything visible here was committed in
  /// rounds < r (the round-r writes are behind a barrier).
  void do_lookup(Record* records, std::size_t i, round_t r) {
    const Record& rec = records[lookups_[i]];
    const std::uint64_t* v = map_.find(rec.op.key);
    publish(rec, Result{v != nullptr ? *v : 0, v != nullptr, r});
  }

  /// Phase B: the concurrent-write step — same-key upserts AND erases race
  /// the bucket's one CAS-LT, so an erase/upsert pair on one key resolves
  /// to exactly one committed outcome (the paper's arbitrary-CW pick).
  void do_write(Record* records, std::size_t i, round_t r,
                std::atomic<std::uint64_t>& full) {
    const Record& rec = records[writes_[i]];
    const ds::MapUpsert outcome = rec.op.kind == OpKind::kErase
                                      ? map_.erase(r, rec.op.key)
                                      : map_.upsert(r, rec.op.key, rec.op.value);
    switch (outcome) {
      case ds::MapUpsert::kWon:
        won_[i] = 1;
        break;
      case ds::MapUpsert::kLost:
        break;
      case ds::MapUpsert::kFull:
        full.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  /// Phase C: every write op — winner or loser — observes what round r
  /// committed for its key, and its future completes. An erased key is
  /// simply absent (find() is live-qualified).
  void do_commit(Record* records, std::size_t i, round_t r) {
    const Record& rec = records[writes_[i]];
    const std::uint64_t* v = map_.find(rec.op.key);
    publish(rec, Result{v != nullptr ? *v : 0, won_[i] != 0, r});
  }

  void publish(const Record& rec, const Result& result) {
    if (rec.enqueue_ns != 0) {  // sampled (see BatchConfig)
      metrics_.record_commit(rec.enqueue_ns, admit_ns_, now_ns());
    }
    rec.future->publish(result);
  }

  BatchConfig cfg_;
  int threads_;
  RequestQueue& queue_;
  ServeMetrics& metrics_;
  Table map_;
  // Zero tags: the arbiter is the round authority only — per-key tags live
  // inside the table's buckets. CAS-LT never needs a reset sweep
  // (kNeedsRoundReset == false), so next_round(kNone) is one increment.
  WriteArbiter<CasLtPolicy> arbiter_{0};
  util::SpinLock pump_lock_;
  // Snapshot cuts currently held (mint_cut/release_cut). While > 0 the
  // batch epilog skips reclaim and backlog grow — both free the bucket
  // array that concurrent cut-predicated scans are walking.
  std::atomic<std::uint64_t> cuts_held_{0};

  // Pump-private scratch (only touched under pump_lock_).
  std::vector<Record> scratch_;
  std::vector<std::size_t> lookups_;
  std::vector<std::size_t> writes_;
  std::vector<unsigned char> won_;
  std::uint64_t admit_ns_ = 0;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> full_refusals_{0};
};

}  // namespace crcw::serve
