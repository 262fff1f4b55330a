// ShardedScheduler — the key-sharded ServiceBackend: N ConcurrentHashMap
// shards behind one logical CRCW round.
//
// Routing (the ShardedTable idea): a key's shard is taken from the HIGH
// bits of ds::mix64(key) — the tables probe with the low bits, so shard
// choice and in-shard bucket placement stay decorrelated. Lanes are laid
// out shard-major (shard s owns lanes [s·L, (s+1)·L)), and route(key)
// returns a lane of the key's own shard, so a drained lane is already
// shard-local: the pump moves each lane's records straight into its
// shard's pending list and only re-routes strays (ops enqueued without
// routing — counted as `foreign`, the routing hit-rate's denominator).
//
// Round structure: ONE WriteArbiter issues the round id for all shards,
// so a logical round r is the same number everywhere and every shard's
// LiveTag rounds stay strictly increasing. Per slice of ≤ max_batch ops
// per shard:
//
//   serial prolog   admission (latency sample, sentinel rejection) and
//                   per-shard backlog-sized grow reservation
//   ┌ omp for over shards:  phase A — committed-read lookups     ┐
//   ├ implicit barrier — the cross-shard round boundary:          │
//   │   no lookup of round r can observe any round-r write,       │
//   │   on its own shard or any other                             │
//   └ omp for over shards:  phases B+C fused — writes + publish  ┘
//
// Inside one shard the slice executes on ONE thread (omp schedule
// static,1 over shards), so the serial fused-B+C argument of
// batch_scheduler.hpp applies per shard: the first same-key write in
// admission order is the (key, round) winner and can publish immediately.
// Parallelism comes from shard independence, not intra-shard fan-out.
// With exec_threads == 1 both phases run serially with no OpenMP region
// (the raw-thread TSan stress tier's mode, tests/stress/stress_sharded).
//
// Grow/reclaim stay per-shard decisions: each shard reserves capacity for
// its own slice backlog before the round, and at batch close each shard
// independently checks its tombstone watermark and rebuilds itself
// (maybe_reclaim_parallel) — a churn-heavy shard shrinks while a hot one
// grows, no global stop-the-world.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/service_backend.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace crcw::serve {

class ShardedScheduler {
 public:
  using Table = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

  ShardedScheduler(const ServeConfig& cfg, RequestQueue& queue, ServeMetrics& metrics)
      : cfg_(cfg.validated()),
        threads_(cfg_.batch.resolved_threads()),
        shard_mask_(static_cast<std::uint64_t>(cfg_.shards.count) - 1),
        lanes_per_shard_(lanes_per_shard(cfg_)),
        queue_(queue),
        metrics_(metrics) {
    const int count = cfg_.shards.count;
    const std::uint64_t per_shard_keys =
        std::max<std::uint64_t>(1, cfg_.table.expected_keys / static_cast<std::uint64_t>(count));
    shards_.reserve(static_cast<std::size_t>(count));
    for (int s = 0; s < count; ++s) {
      const std::string suffix = s == 0 ? "" : "-s" + std::to_string(s);
      shards_.push_back(std::make_unique<Shard>(
          per_shard_keys, cfg_.table.hash_config("serve-table" + suffix)));
      if (cfg_.batch.counters) {
        shards_.back()->site =
            std::make_unique<obs::ContentionSite>("serve-shard-" + std::to_string(s));
      }
    }
  }

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Shard-major lane layout: every shard owns the same number of lanes
  /// (resolved_lanes rounded up to a multiple of the shard count).
  [[nodiscard]] static int queue_lanes(const ServeConfig& cfg) noexcept {
    const ServeConfig v = cfg.validated();
    return v.shards.count * lanes_per_shard(v);
  }

  bool submit_batch() { return run_batch(false); }
  bool flush() { return run_batch(true); }

  // -- committed state (serial / quiescent-pump reads) ----------------------
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return shards_[static_cast<std::size_t>(shard_of(key))]->table.find(key);
  }

  // -- routing --------------------------------------------------------------
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>((ds::mix64(key) >> 32) & shard_mask_);
  }
  /// A lane of the key's own shard; distinct client threads spread over
  /// the shard's lanes by a dense thread-local slot (the RequestQueue
  /// lane_index idiom, applied within the shard's lane block).
  [[nodiscard]] std::size_t route(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(shard_of(key)) *
               static_cast<std::size_t>(lanes_per_shard_) +
           client_slot() % static_cast<std::size_t>(lanes_per_shard_);
  }

  // -- snapshots (src/snap): cuts, cut-predicated scans, restore ------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindKv;

  /// Mints a consistent cut: the single shared arbiter is the round
  /// authority for every shard, so one parked read of its counter is a
  /// cross-shard-consistent cut — every shard has committed exactly the
  /// rounds <= cut.round and nothing later. The pump resumes immediately;
  /// only grow/reclaim park while the cut is held (the batch epilog
  /// checks cuts_held()).
  [[nodiscard]] snap::SnapshotCut mint_cut() {
    const std::lock_guard<util::SpinLock> lock(pump_lock_);
    cuts_held_.fetch_add(1, std::memory_order_acq_rel);
    return {arbiter_.round(), static_cast<std::uint32_t>(shards_.size())};
  }

  void release_cut() noexcept { cuts_held_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Cuts currently held against this backend (maintenance parks on > 0).
  [[nodiscard]] std::uint64_t cuts_held() const noexcept {
    return cuts_held_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t snapshot_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Backend shape baked into snapshot headers; restore refuses files from
  /// a differently-sharded server (shard_of would route keys elsewhere).
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return ds::mix64(kSnapshotKind + 1) ^ ds::mix64(shards_.size());
  }

  /// Cut-predicated scan of shard s; fn(key, value, round). Safe
  /// concurrently with later rounds while the cut is held.
  template <typename Fn>
  void scan_shard_at(std::uint32_t s, round_t cut_round, Fn&& fn) const {
    shards_[s]->table.for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Serial restore of one snapshot entry into shard s (before serving
  /// starts). Refuses keys the router would place on a different shard.
  bool restore_entry(std::uint32_t s, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    if (static_cast<int>(s) != shard_of(key)) return false;
    return shards_[s]->table.restore_slot(key, value, round);
  }

  /// Serial: continues the committed round sequence after restore.
  void reseed_round(round_t r) { arbiter_.reseed_round(r); }

  // -- introspection --------------------------------------------------------
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
  [[nodiscard]] const Table& shard_table(int s) const {
    return shards_[static_cast<std::size_t>(s)]->table;
  }
  /// Ops this shard executed since construction (pump-serial counter).
  [[nodiscard]] std::uint64_t shard_ops(int s) const {
    return shards_[static_cast<std::size_t>(s)]->ops_total;
  }

  [[nodiscard]] BackendStats stats() const noexcept {
    BackendStats st;
    st.rounds = round();
    st.batches = batches();
    st.deadline_batches = deadline_batches();
    st.ops_served = ops_served();
    st.full_refusals = full_refusals_.load(std::memory_order_relaxed);
    st.shards = shard_count();
    for (const auto& s : shards_) st.keys += s->table.size();
    st.shard_local_ops = metrics_.route_local();
    st.shard_foreign_ops = metrics_.route_foreign();
    return st;
  }

 private:
  // One shard: its table, its optional contention site, and the pump's
  // per-batch working state. Padded so two shards' slice-local fields
  // (wins/refused, written by different omp threads) never share a line.
  struct alignas(util::kCacheLineSize) Shard {
    Shard(std::uint64_t expected_keys, ds::HashConfig hc)
        : table(expected_keys, std::move(hc)) {}

    Table table;
    std::unique_ptr<obs::ContentionSite> site;
    std::vector<Record> pending;     // drained this batch (pump-private)
    std::uint64_t ops_total = 0;     // lifetime executed ops (pump-serial)
    std::uint64_t wins = 0;          // this slice (owning thread only)
    std::uint64_t refused = 0;       // kFull writes, this slice (owning thread only)
  };

  [[nodiscard]] static int lanes_per_shard(const ServeConfig& v) noexcept {
    const int lanes = v.batch.resolved_lanes();
    const int count = v.shards.count;
    return std::max(1, (lanes + count - 1) / count);
  }

  [[nodiscard]] static std::size_t client_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  [[nodiscard]] bool trigger_fired(bool& by_deadline) const noexcept {
    const std::uint64_t pending = queue_.pending();
    if (pending == 0) return false;
    if (pending >= cfg_.batch.max_batch) return true;
    const std::uint64_t oldest = queue_.oldest_enqueue_ns();
    by_deadline = oldest != 0 && now_ns() - oldest >= cfg_.batch.max_wait_us * 1000;
    return by_deadline;
  }

  bool run_batch(bool force) {
    bool by_deadline = false;
    if (!force && !trigger_fired(by_deadline)) return false;
    const std::unique_lock<util::SpinLock> lock(pump_lock_, std::try_to_lock);
    if (!lock.owns_lock()) return false;

    // Drain lane-by-lane: a routed lane lands wholesale in its shard's
    // pending list (local); strays — raw enqueues that bypassed route()
    // — are re-routed here and counted foreign. The lists are cleared here
    // rather than after the batch, so a batch that threw cannot leave its
    // records to be executed again.
    for (auto& s : shards_) s->pending.clear();
    std::uint64_t drained = 0;
    std::uint64_t local = 0;
    std::uint64_t foreign = 0;
    const std::size_t lanes = queue_.lanes();
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto lane_shard =
          std::min(l / static_cast<std::size_t>(lanes_per_shard_), shards_.size() - 1);
      scratch_.clear();
      drained += queue_.drain_lane_into(l, scratch_);
      for (const Record& rec : scratch_) {
        // The sentinel key is rejected at admission without touching any
        // table; charge it to the lane's own shard.
        const std::size_t s = rec.op.key == Table::kEmptyKey
                                  ? lane_shard
                                  : static_cast<std::size_t>(shard_of(rec.op.key));
        if (s == lane_shard) {
          ++local;
        } else {
          ++foreign;
        }
        shards_[s]->pending.push_back(rec);
      }
    }

    if (drained == 0) return false;
    std::size_t slices = 0;
    for (const auto& s : shards_) {
      const std::size_t need =
          (s->pending.size() + cfg_.batch.max_batch - 1) / cfg_.batch.max_batch;
      slices = std::max(slices, need);
    }
    for (std::size_t j = 0; j < slices; ++j) execute_slice(j);

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (by_deadline) deadline_batches_.fetch_add(1, std::memory_order_relaxed);
    ops_served_.fetch_add(drained, std::memory_order_relaxed);
    metrics_.batch_closed();
    metrics_.routed(local, foreign);
    // Batch boundary = step boundary: each shard decides its own
    // grow/reclaim fate — a tombstone-heavy shard rebuilds toward its
    // live count while its neighbours stay put. The shard's own probe
    // telemetry feeds the trigger, so with reclaim_probe_p99 /
    // reclaim_fp_rate set a shard also rebuilds when its walks
    // demonstrably degrade, ahead of the static tombstone watermark.
    // Parked while any snapshot cut is held: reclaim frees a shard's
    // bucket array while a concurrent scan_shard_at may be walking it.
    if (cuts_held() == 0) {
      for (auto& s : shards_) {
        (void)s->table.maybe_reclaim_parallel(threads_, s->table.telemetry_signal());
      }
    }
    return true;
  }

  /// Window of shard s in slice j: [j·max_batch, …) clamped to pending.
  [[nodiscard]] std::pair<std::size_t, std::size_t> window(std::size_t s,
                                                           std::size_t j) const {
    const auto& pending = shards_[s]->pending;
    const std::size_t begin = std::min(pending.size(), j * cfg_.batch.max_batch);
    const std::size_t end = std::min(pending.size(), begin + cfg_.batch.max_batch);
    return {begin, end};
  }

  /// One logical round across every shard.
  void execute_slice(std::size_t j) {
    admit_ns_ = now_ns();

    // Serial prolog: admission bookkeeping and the per-shard backlog
    // reservation (grow runs its own OpenMP region, so it cannot live
    // inside the execution region below).
    std::uint64_t admitted = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      shard.wins = 0;
      shard.refused = 0;
      const auto [begin, end] = window(s, j);
      if (begin == end) continue;
      std::uint64_t write_count = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const Record& rec = shard.pending[i];
        if (rec.enqueue_ns != 0) metrics_.record_admit(rec.enqueue_ns, admit_ns_);
        if (rec.op.key == Table::kEmptyKey || is_stream_op(rec.op.kind) ||
            is_snapshot_op(rec.op.kind)) {
          // Sentinel keys, stream-vocabulary ops and snapshot kinds are
          // rejected at admission without touching any table (stream ops
          // belong to the streaming backend; snapshot kinds are answered
          // by the wire server without entering a round).
          publish(rec, Result{0, false, arbiter_.round() + 1});
        } else if (rec.op.kind != OpKind::kLookup) {
          ++write_count;
        }
      }
      const auto ops = static_cast<std::uint64_t>(end - begin);
      admitted += ops;
      shard.ops_total += ops;
      if (shard.site) shard.site->add_attempts(ops);
      // Backlog grow parks too while a cut is held (grow frees the old
      // bucket array under a live scan); snapshot workloads pre-size via
      // TableConfig::expected_keys. A write that then finds its shard full
      // is refused (won=false, counted in full_refusals) and may retry.
      if (cuts_held() == 0) shard.table.maybe_grow_for_backlog(write_count, threads_);
    }
    metrics_.ops_admitted(admitted);

    const auto scope = arbiter_.next_round(ResetMode::kNone);
    const round_t r = scope.round();
    const auto n_shards = static_cast<std::ptrdiff_t>(shards_.size());

    if (threads_ == 1) {
      // Strictly serial, no OpenMP region (the TSan stress tier's mode):
      // every shard's lookups run before any shard's writes, preserving
      // the same cross-shard round boundary the barrier gives below.
      for (std::ptrdiff_t s = 0; s < n_shards; ++s) {
        lookup_pass(static_cast<std::size_t>(s), j, r);
      }
      for (std::ptrdiff_t s = 0; s < n_shards; ++s) {
        write_pass(static_cast<std::size_t>(s), j, r);
      }
    } else {
#pragma omp parallel num_threads(threads_)
      {
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < n_shards; ++s) {
          lookup_pass(static_cast<std::size_t>(s), j, r);
        }
        // implicit barrier — the cross-shard round boundary: every
        // committed read of round r (on every shard) closed before any
        // round-r write begins anywhere.
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < n_shards; ++s) {
          write_pass(static_cast<std::size_t>(s), j, r);
        }
        // implicit barrier — round r committed atomically across shards
      }
    }

    std::uint64_t wins = 0;
    std::uint64_t refused = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      wins += shard.wins;
      refused += shard.refused;
      const auto [begin, end] = window(s, j);
      if (begin != end) metrics_.record_shard_round_ops(end - begin);
      if (shard.site) {
        if (shard.wins != 0) shard.site->add_wins(shard.wins);
        shard.site->flush_round();
      }
      shard.table.flush_round();
    }
    if (refused != 0) full_refusals_.fetch_add(refused, std::memory_order_relaxed);
    metrics_.write_wins(wins);
    metrics_.flush_round();
  }

  /// Phase A on one shard: committed reads of rounds < r.
  void lookup_pass(std::size_t s, std::size_t j, round_t r) {
    Shard& shard = *shards_[s];
    const auto [begin, end] = window(s, j);
    for (std::size_t i = begin; i < end; ++i) {
      const Record& rec = shard.pending[i];
      if (rec.op.kind != OpKind::kLookup || rec.op.key == Table::kEmptyKey) continue;
      const std::uint64_t* v = shard.table.find(rec.op.key);
      publish(rec, Result{v != nullptr ? *v : 0, v != nullptr, r});
    }
  }

  /// Phases B+C fused on one shard (serial within the shard): in
  /// admission order the first same-key write wins its (key, round)
  /// arbitration and the committed outcome never changes again within the
  /// round, so every op publishes the moment its write returns.
  void write_pass(std::size_t s, std::size_t j, round_t r) {
    Shard& shard = *shards_[s];
    const auto [begin, end] = window(s, j);
    for (std::size_t i = begin; i < end; ++i) {
      const Record& rec = shard.pending[i];
      if (rec.op.kind != OpKind::kUpsert && rec.op.kind != OpKind::kErase) continue;
      if (rec.op.key == Table::kEmptyKey) continue;
      const bool is_erase = rec.op.kind == OpKind::kErase;
      const ds::MapUpsert outcome =
          is_erase ? shard.table.erase(r, rec.op.key)
                   : shard.table.upsert(r, rec.op.key, rec.op.value);
      switch (outcome) {
        case ds::MapUpsert::kWon:
          ++shard.wins;
          publish(rec, Result{is_erase ? 0 : rec.op.value, true, r});
          break;
        case ds::MapUpsert::kLost: {
          const std::uint64_t* v = shard.table.find(rec.op.key);
          publish(rec, Result{v != nullptr ? *v : 0, false, r});
          break;
        }
        case ds::MapUpsert::kFull:
          ++shard.refused;
          publish(rec, Result{0, false, r});
          break;
      }
    }
  }

  void publish(const Record& rec, const Result& result) {
    if (rec.enqueue_ns != 0) {  // sampled (see BatchConfig)
      metrics_.record_commit(rec.enqueue_ns, admit_ns_, now_ns());
    }
    rec.future->publish(result);
  }

  ServeConfig cfg_;
  int threads_;
  std::uint64_t shard_mask_;
  int lanes_per_shard_;
  RequestQueue& queue_;
  ServeMetrics& metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // One arbiter = one logical round id for every shard; zero tags because
  // per-key arbitration lives in the shards' buckets (CAS-LT needs no
  // reset sweep, so next_round(kNone) is one increment).
  WriteArbiter<CasLtPolicy> arbiter_{0};
  util::SpinLock pump_lock_;
  // Snapshot cuts currently held (mint_cut/release_cut). While > 0 every
  // shard's epilog skips reclaim and backlog grow — both free bucket
  // arrays that concurrent cut-predicated scans are walking.
  std::atomic<std::uint64_t> cuts_held_{0};

  // Pump-private scratch (only touched under pump_lock_).
  std::vector<Record> scratch_;
  std::uint64_t admit_ns_ = 0;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> full_refusals_{0};
};

}  // namespace crcw::serve
