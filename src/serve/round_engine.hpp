// RoundEngine — the one round lifecycle every serve backend runs on. It is
// the CRTP base of ShardedScheduler (N key-sharded tables) and
// stream::StreamScheduler (one edge table and forest, striped execution),
// and owns everything round-shaped — the admission queue and the serve
// metrics included; a backend keeps only its own state.
//
// Lifecycle of one batch (docs/architecture.md, "The round engine"):
//
//   clients ──try_enqueue──▶ RequestQueue lanes, shard-major: shard s owns
//                           │ lanes [s·L, (s+1)·L), and every op lands in a
//                           │ lane of its key's own shard
//                           │ size trigger (pending ≥ max_batch) or
//                           │ deadline trigger (oldest wait ≥ max_wait_us)
//                           ▼
//   drain each lane straight into its shard's pending list, then slice into
//   rounds of ≤ max_batch ops per shard.
//   Per slice, ONE WriteArbiter round r for every shard:
//
//   serial prolog   enqueue→admit tallies against the slice's one clock
//                   read; admission (rejects publish round()+1);
//                   backlog reservation, parked while a cut is held
//   ┌ omp for over shards: phase A — committed reads of rounds < r      ┐
//   ├ implicit barrier — the cross-shard round boundary: no read of     │
//   │   round r observes any round-r write, on its shard or any other   │
//   │ omp for over shards: phase B — arbitrated writes + publish, then  │
//   └   one clock read stamps the window's enqueue→commit tallies       ┘
//   serial epilog   wins, kFull refusals, the backend's end_round, and the
//                   round's latency tallies folded into the histograms
//   batch close     the backend's end_batch (grow/reclaim maintenance),
//                   skipped while a cut is held
//
// A shard's slice always runs on ONE thread, so within a shard the first
// same-key write in admission order wins its (key, round) arbitration and
// every op can publish the moment its write returns. Parallel rounds come
// from shards: the team is min(exec_threads, shard count), and a team of
// one runs both phases as plain loops with no OpenMP region — the mode the
// raw-thread TSan stress tier drives. A 1-shard session therefore runs its
// rounds on one thread whatever exec_threads says.
//
// Concurrency shape: clients touch only the queue and their futures; the
// tables, the arbiter and the histograms are touched only under pump_lock_,
// so any number of threads may call try_enqueue()/submit_batch()/flush()
// and exactly one executes.
//
// What a backend supplies, through static calls only:
//   Admit admit(op)                       reject, read or write
//   void reserve(writes per shard)        backlog-sized grow before a round
//   void read_pass(s, records, n, r)      phase A over shard s's window
//   WriteTally write_pass(s, records, n, r)   phase B; {wins, refused}
//   void end_round()                      per-round flushes after phase B
//   void end_batch()                      maintenance; only with no cut held
//   uint64_t keys()                       live committed keys, for stats()
//   uint32_t snapshot_shards()            segments a snapshot cut covers
// Both passes complete their records through publish().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_metrics.hpp"
#include "snap/cut.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace crcw::serve {

/// What admission decides for one record.
enum class Admit : std::uint8_t {
  kReject,  ///< answered won=false at round()+1 without touching any table
  kRead,    ///< phase A: a committed read of rounds < r
  kWrite,   ///< phase B: an arbitrated write at round r
};

/// One snapshot of a backend's service counters (relaxed reads; exact
/// once clients quiesce).
struct BackendStats {
  round_t rounds = 0;
  std::uint64_t batches = 0;
  std::uint64_t deadline_batches = 0;
  std::uint64_t ops_served = 0;
  /// Writes refused because their table was full (MapUpsert::kFull). Only
  /// a held snapshot cut, which parks the backlog grow, makes this
  /// reachable; a refused op answers won=false and may be retried.
  std::uint64_t full_refusals = 0;
  std::uint64_t keys = 0;  ///< live committed keys across all shards
  int shards = 1;
};

/// One shard's phase-B outcome.
struct WriteTally {
  std::uint64_t wins = 0;
  std::uint64_t refused = 0;  ///< writes that found their table full (kFull)
};

template <typename Backend>
class RoundEngine {
 public:
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  /// Non-blocking admission into a lane of the key's own shard; distinct
  /// client threads spread over the shard's lanes by a dense thread-local
  /// slot. Refuses (returns false) when that lane is at its watermark —
  /// BasicServeSession::submit relieves the pressure by helping drain. The
  /// future must stay pinned until it completes.
  [[nodiscard]] bool try_enqueue(const Op& op, OpFuture& future) {
    const std::size_t lane = static_cast<std::size_t>(shard_of(op.key)) * lanes_per_shard_ +
                             client_slot() % lanes_per_shard_;
    return queue_.try_enqueue(op, future, lane);
  }

  /// Approximate backlog (relaxed reads; exact once clients quiesce).
  [[nodiscard]] std::uint64_t pending() const noexcept { return queue_.pending(); }

  /// When the deadline trigger fires next, in now_ns() time: the oldest
  /// pending op's enqueue time plus max_wait_us; 0 with nothing pending
  /// (advisory, like pending()). The background pump sleeps until then.
  [[nodiscard]] std::uint64_t next_deadline_ns() const noexcept {
    const std::uint64_t oldest = queue_.oldest_enqueue_ns();
    return oldest == 0 ? 0 : oldest + cfg_.batch.max_wait_us * 1000;
  }

  /// Runs one batch if an admission trigger fired (size or deadline).
  /// Returns true iff this call executed at least one round. Safe to call
  /// from any number of threads; losers of the pump race return false.
  bool submit_batch() { return run_batch(false); }

  /// Unconditionally drains and executes everything pending (one call =
  /// one drain; callers loop while clients are still enqueuing).
  bool flush() { return run_batch(true); }

  // -- routing --------------------------------------------------------------
  [[nodiscard]] int shard_count() const noexcept { return static_cast<int>(work_.size()); }
  /// The HIGH bits of ds::mix64(key): the tables probe with the low bits,
  /// so shard choice and in-shard bucket placement stay decorrelated.
  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>((ds::mix64(key) >> 32) & shard_mask_);
  }

  // -- snapshot cuts (src/snap) ---------------------------------------------
  /// Mints a consistent cut: parks the pump just long enough to read the
  /// round. The one arbiter is the round authority for every shard, so
  /// every shard has committed exactly the rounds <= cut.round. Scans
  /// against the cut then run concurrently with later batches; the hold
  /// parks only the backlog reservation and end_batch, both of which may
  /// free a bucket array a scan is walking. Pair with release_cut() or
  /// snap::HeldCut.
  [[nodiscard]] snap::SnapshotCut mint_cut() {
    const std::lock_guard<util::SpinLock> lock(pump_lock_);
    cuts_held_.fetch_add(1, std::memory_order_acq_rel);
    return {arbiter_.round(), self().snapshot_shards()};
  }

  void release_cut() noexcept { cuts_held_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Cuts currently held against this backend (maintenance parks on > 0).
  [[nodiscard]] std::uint64_t cuts_held() const noexcept {
    return cuts_held_.load(std::memory_order_acquire);
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
  /// The configured executor width. Grow, reclaim and the backends' own
  /// maintenance use all of it; a round's team is min(this, shards).
  [[nodiscard]] int exec_threads() const noexcept { return threads_; }
  /// Ops shard s executed since construction (pump-serial counter).
  [[nodiscard]] std::uint64_t shard_ops(int s) const {
    return work_[static_cast<std::size_t>(s)].ops_total;
  }

  [[nodiscard]] BackendStats stats() const noexcept {
    BackendStats st;
    st.rounds = round();
    st.batches = batches();
    st.deadline_batches = deadline_batches();
    st.ops_served = ops_served();
    st.full_refusals = full_refusals_.load(std::memory_order_relaxed);
    st.keys = self().keys();
    st.shards = shard_count();
    return st;
  }

  [[nodiscard]] ServeMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServeMetrics& metrics() const noexcept { return metrics_; }

 protected:
  explicit RoundEngine(const ServeConfig& cfg)
      : cfg_(cfg.validated()),
        threads_(cfg_.batch.resolved_threads()),
        team_(std::min(threads_, cfg_.shards.count)),
        shard_mask_(static_cast<std::uint64_t>(cfg_.shards.count) - 1),
        lanes_per_shard_(lanes_per_shard(cfg_)),
        queue_(cfg_.shards.count * static_cast<int>(lanes_per_shard_),
               cfg_.batch.resolved_lane_backlog(), cfg_.batch.sample_mask()),
        metrics_(cfg_.batch.counters),
        work_(static_cast<std::size_t>(cfg_.shards.count)),
        writes_(work_.size()) {}

  ~RoundEngine() = default;

  /// The validated config the engine runs on.
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }

  /// Held by the pump for a whole batch; a backend that must see the state
  /// between batches (the stream's capture_snapshot) takes it too.
  [[nodiscard]] util::SpinLock& pump_lock() noexcept { return pump_lock_; }

  /// Completes one op. It reads no clock: write_shard stamps the commit
  /// latency of the shard's whole window once, after its write pass.
  void publish(const Record& rec, const Result& result) { rec.future->publish(result); }

 private:
  // One shard's pump-private working state. Padded so two shards' tallies
  // (written by different omp threads) never share a line.
  struct alignas(util::kCacheLineSize) ShardWork {
    std::vector<Record> pending;       // drained this batch
    std::uint64_t ops_total = 0;       // lifetime executed ops (pump-serial)
    WriteTally tally;                  // this slice (owning thread only)
    obs::Histogram::Counts commits{};  // this slice's enqueue→commit tallies
  };

  [[nodiscard]] Backend& self() noexcept { return static_cast<Backend&>(*this); }
  [[nodiscard]] const Backend& self() const noexcept {
    return static_cast<const Backend&>(*this);
  }

  /// Every shard owns the same number of lanes: resolved_lanes rounded
  /// up to a multiple of the shard count.
  [[nodiscard]] static std::size_t lanes_per_shard(const ServeConfig& v) noexcept {
    const int lanes = v.batch.resolved_lanes();
    const int count = v.shards.count;
    return static_cast<std::size_t>(std::max(1, (lanes + count - 1) / count));
  }

  [[nodiscard]] static std::size_t client_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  [[nodiscard]] bool trigger_fired(bool& by_deadline) const noexcept {
    const std::uint64_t backlog = queue_.pending();
    if (backlog == 0) return false;
    if (backlog >= cfg_.batch.max_batch) return true;
    const std::uint64_t due = next_deadline_ns();
    by_deadline = due != 0 && now_ns() >= due;
    return by_deadline;
  }

  bool run_batch(bool force) {
    bool by_deadline = false;
    if (!force && !trigger_fired(by_deadline)) return false;
    const std::unique_lock<util::SpinLock> lock(pump_lock_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    const std::uint64_t drained = drain();
    if (drained == 0) return false;

    // A shard's drain larger than max_batch becomes several rounds, so
    // round boundaries are deterministic in admission order per shard.
    const std::uint64_t max_batch = cfg_.batch.max_batch;
    std::size_t slices = 0;
    for (const ShardWork& w : work_) {
      slices = std::max<std::size_t>(slices, (w.pending.size() + max_batch - 1) / max_batch);
    }
    for (std::size_t j = 0; j < slices; ++j) execute_slice(j);

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (by_deadline) deadline_batches_.fetch_add(1, std::memory_order_relaxed);
    ops_served_.fetch_add(drained, std::memory_order_relaxed);
    metrics_.batch_closed();
    // Batch boundary = step boundary: no round is in flight and the pump
    // lock is held, so the backend may rebuild its tables. Parked while
    // any cut is held: a rebuild frees the bucket array a concurrent
    // scan_shard_at may still be walking.
    if (cuts_held() == 0) self().end_batch();
    return true;
  }

  /// Drains lane by lane: try_enqueue put every op in a lane of its key's
  /// shard, so each lane appends wholesale, in lane order, to its shard's
  /// pending list. The lists are cleared here rather than after the batch,
  /// so a batch that threw cannot leave its records to be executed again.
  std::uint64_t drain() {
    for (ShardWork& w : work_) w.pending.clear();
    std::uint64_t drained = 0;
    for (std::size_t l = 0; l < queue_.lanes(); ++l) {
      drained += queue_.drain_lane_into(l, work_[l / lanes_per_shard_].pending);
    }
    return drained;
  }

  /// Shard s's window in slice j: {begin, size}, clamped to its pending list.
  [[nodiscard]] std::pair<std::size_t, std::size_t> window(std::size_t s,
                                                           std::size_t j) const {
    const std::size_t size = work_[s].pending.size();
    const std::size_t begin = std::min<std::size_t>(size, j * cfg_.batch.max_batch);
    return {begin, std::min<std::size_t>(size - begin, cfg_.batch.max_batch)};
  }

  /// One logical round across every shard.
  void execute_slice(std::size_t j) {
    const std::uint64_t admit_ns = now_ns();

    // Serial prolog: enqueue→admit tallies, admission, and the backlog
    // reservation (a grow runs its own OpenMP region, so it cannot live
    // inside the execution region below).
    obs::Histogram::Counts admits{};
    std::uint64_t admitted = 0;
    for (std::size_t s = 0; s < work_.size(); ++s) {
      ShardWork& w = work_[s];
      w.tally = {};
      w.commits = {};
      writes_[s] = 0;
      const auto [begin, n] = window(s, j);
      for (const Record& rec : std::span(w.pending).subspan(begin, n)) {
        count_latency(admits, rec, admit_ns);
        switch (self().admit(rec.op)) {
          case Admit::kReject:
            publish(rec, Result{0, false, arbiter_.round() + 1});
            break;
          case Admit::kWrite:
            ++writes_[s];
            break;
          case Admit::kRead:
            break;
        }
      }
      admitted += n;
      w.ops_total += n;
    }
    metrics_.ops_admitted(admitted);
    // Parked while a cut is held (a grow frees the bucket array a scan is
    // walking); snapshot workloads pre-size their tables instead. A write
    // that then finds its table full is refused (won=false, counted in
    // full_refusals) and may retry in a later round.
    if (cuts_held() == 0) self().reserve(std::span<const std::uint64_t>(writes_));

    const auto scope = arbiter_.next_round(ResetMode::kNone);
    const round_t r = scope.round();
    const auto shards = static_cast<std::ptrdiff_t>(work_.size());
    if (team_ == 1) {
      // Every shard's reads close before any shard's write: the same round
      // boundary the barrier gives below.
      for (std::ptrdiff_t s = 0; s < shards; ++s) read_shard(s, j, r);
      for (std::ptrdiff_t s = 0; s < shards; ++s) write_shard(s, j, r);
    } else {
#pragma omp parallel num_threads(team_)
      {
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < shards; ++s) read_shard(s, j, r);
        // implicit barrier — the cross-shard round boundary: every
        // committed read of round r closed before any round-r write.
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < shards; ++s) write_shard(s, j, r);
        // implicit barrier — round r committed across every shard
      }
    }

    // Serial epilog: the round's tallies, its latency samples folded into
    // the shared histograms once.
    WriteTally total;
    obs::Histogram::Counts commits{};
    for (const ShardWork& w : work_) {
      total.wins += w.tally.wins;
      total.refused += w.tally.refused;
      for (std::size_t i = 0; i < commits.size(); ++i) commits[i] += w.commits[i];
    }
    self().end_round();
    if (total.refused != 0) full_refusals_.fetch_add(total.refused, std::memory_order_relaxed);
    metrics_.add_latencies(admits, commits);
    metrics_.write_wins(total.wins);
    metrics_.flush_round();
  }

  void read_shard(std::ptrdiff_t shard, std::size_t j, round_t r) {
    const auto s = static_cast<std::size_t>(shard);
    const auto [begin, n] = window(s, j);
    self().read_pass(s, work_[s].pending.data() + begin, n, r);
  }

  /// Phase B over shard s's window, then one clock read stamps the commit
  /// of every stamped record in it: each was published by now (rejects in
  /// the prolog, reads in phase A, writes in this pass), so the sample is
  /// an upper bound, late by at most this slice's passes.
  void write_shard(std::ptrdiff_t shard, std::size_t j, round_t r) {
    const auto s = static_cast<std::size_t>(shard);
    const auto [begin, n] = window(s, j);
    ShardWork& w = work_[s];
    const Record* records = w.pending.data() + begin;
    w.tally = self().write_pass(s, records, n, r);
    if (n == 0) return;
    const std::uint64_t commit_ns = now_ns();
    for (const Record& rec : std::span(records, n)) count_latency(w.commits, rec, commit_ns);
  }

  /// Counts a stamped record's latency up to `t`; unstamped ones (enqueue_ns
  /// 0, see BatchConfig::latency_sample_shift) are skipped.
  static void count_latency(obs::Histogram::Counts& counts, const Record& rec,
                            std::uint64_t t) noexcept {
    if (rec.enqueue_ns != 0) ++counts[obs::Histogram::bucket_index(t - rec.enqueue_ns)];
  }

  ServeConfig cfg_;
  int threads_;
  int team_;
  std::uint64_t shard_mask_;
  std::size_t lanes_per_shard_;  // queue_ holds shard_count() of these blocks
  RequestQueue queue_;
  ServeMetrics metrics_;
  // One arbiter = one logical round id for every shard. Zero tags: per-key
  // arbitration lives in the backends' buckets, and CAS-LT needs no reset
  // sweep, so next_round(kNone) is one increment.
  WriteArbiter<CasLtPolicy> arbiter_{0};
  util::SpinLock pump_lock_;
  std::atomic<std::uint64_t> cuts_held_{0};

  // Pump-private (only touched under pump_lock_).
  std::vector<ShardWork> work_;
  std::vector<std::uint64_t> writes_;  // this slice's writes per shard

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> full_refusals_{0};
};

}  // namespace crcw::serve
