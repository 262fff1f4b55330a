// StreamScheduler — the streaming ServiceBackend: batched edge updates and
// incremental connectivity over ONE DynamicGraph + ONE IncrementalCc,
// behind the same five-method surface the KV schedulers implement (so
// BasicServeSession, BasicWireServer and WireClient drive it unchanged).
//
// Stripes, not shards. Connectivity is global — there is no way to
// partition the vertex set so queries stay local — so the backend keeps
// one shared edge table and one shared forest, and its "shards" are
// execution STRIPES: a key's stripe is the high bits of ds::mix64(key),
// every record of a stripe executes on one thread (omp schedule static,1
// over stripes), and therefore all writes to one edge key are serialized
// on one thread. That per-key serialization is what legalises the
// mid-round reads below; cross-stripe parallelism is safe because the
// table's probe chains are atomic words and the forest's hook is a CAS.
//
// Round structure (one logical round per slice, one arbiter):
//
//   serial prolog   admission, vocabulary/bounds validation (KV kinds and
//                   malformed edges rejected without touching anything),
//                   ONE backlog-sized grow reservation on the edge table
//   ┌ omp for over stripes: phase A — connectivity queries + edge-weight ┐
//   │                        lookups against the COMMITTED pre-round      │
//   │                        state (the forest is quiescent: nothing      │
//   │                        links in phase A)                            │
//   ├ implicit barrier — the round boundary                               │
//   └ omp for over stripes: phase B — edge writes + hooks + publish      ┘
//   serial epilog   deletion fallback (IncrementalCc::rebuild over the
//                   killed endpoints), compaction sweep, win accounting
//
// Phase B per record: the table's round arbitration collapses all
// same-(edge, round) inserts/erases to one winner. A winning insert of an
// edge that was NOT live pre-round hooks the forest (cc_.link — the
// arbitrary-CW write; concurrent hooks on one root resolve by CAS, losers
// retry against the new root). A winning erase of a live edge only
// records its endpoints — the forest cannot un-merge, so deletions batch
// into the epilog's bounded rebuild. `was_live` is a mid-round read of a
// key only this stripe writes, which the table's ownership rule permits.
//
// Queries answer from the state committed by the previous round's epilog
// (hooks + rebuild + compact all happened-before the next round's phase
// A), so a round-r query result is exact for the prefix of writes with
// round < r — the same committed-read semantics the KV lookups give.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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
#include "serve/service_backend.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/incremental_cc.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace crcw::stream {

class StreamScheduler {
 public:
  using Table = DynamicGraph::Table;

  StreamScheduler(const serve::ServeConfig& cfg, serve::RequestQueue& queue,
                  serve::ServeMetrics& metrics)
      : cfg_(cfg.validated()),
        threads_(cfg_.batch.resolved_threads()),
        stripe_mask_(static_cast<std::uint64_t>(cfg_.shards.count) - 1),
        lanes_per_stripe_(lanes_per_stripe(cfg_)),
        queue_(queue),
        metrics_(metrics),
        graph_(cfg_.stream.vertices,
               cfg_.stream.expected_edges != 0 ? cfg_.stream.expected_edges
                                               : cfg_.table.expected_keys,
               cfg_.table.hash_config("stream-edges")),
        cc_(cfg_.stream.vertices, cfg_.batch.counters) {
    stripes_.reserve(static_cast<std::size_t>(cfg_.shards.count));
    for (int s = 0; s < cfg_.shards.count; ++s) {
      stripes_.push_back(std::make_unique<Stripe>());
    }
  }

  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  /// Stripe-major lane layout, mirroring ShardedScheduler's shard-major
  /// one: every stripe owns the same number of lanes.
  [[nodiscard]] static int queue_lanes(const serve::ServeConfig& cfg) noexcept {
    const serve::ServeConfig v = cfg.validated();
    return v.shards.count * lanes_per_stripe(v);
  }

  bool submit_batch() { return run_batch(false); }
  bool flush() { return run_batch(true); }

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// Weight of the packed edge `key`, or null if not live.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return graph_.find_key(key);
  }

  // -- routing --------------------------------------------------------------
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(stripes_.size());
  }
  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>((ds::mix64(key) >> 32) & stripe_mask_);
  }
  [[nodiscard]] std::size_t route(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(shard_of(key)) *
               static_cast<std::size_t>(lanes_per_stripe_) +
           client_slot() % static_cast<std::size_t>(lanes_per_stripe_);
  }

  // -- snapshots (src/snap): cuts, capture, restore -------------------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindStream;

  /// Mints a consistent cut (round-only, for scan_digest). The edge scan
  /// that follows runs concurrently with later rounds under the held-cut
  /// discipline; whole-state checkpoints go through capture_snapshot
  /// instead so the forest agrees with the edge set.
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

  /// Backend shape baked into snapshot headers: a stream snapshot from a
  /// server with a different vertex universe must not restore here (cc
  /// parents would land out of range or, worse, silently in range).
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return ds::mix64(kSnapshotKind + 1) ^ ds::mix64(graph_.vertices());
  }

  /// Cut-predicated scan over the edge table (the digest surface; the
  /// forest is derived state and stays out of the fold).
  template <typename Fn>
  void scan_shard_at(std::uint32_t, round_t cut_round, Fn&& fn) const {
    graph_.table().for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Whole-state capture for checkpoints: edge triples AND union-find
  /// parents taken together under the parked pump, so the forest agrees
  /// with the edge set exactly — a restored server answers same_component
  /// identically at the cut. Blocks the pump for the capture's duration
  /// (the stream backend trades checkpoint concurrency for forest
  /// consistency; the KV backends keep the concurrent path).
  template <typename EdgeFn, typename ParentFn>
  [[nodiscard]] snap::SnapshotCut capture_snapshot(EdgeFn&& on_edge,
                                                   ParentFn&& on_parent) {
    const std::lock_guard<util::SpinLock> lock(pump_lock_);
    const snap::SnapshotCut cut{arbiter_.round(), 1};
    graph_.table().for_each_at(cut.round, std::forward<EdgeFn>(on_edge));
    cc_.for_each_parent(std::forward<ParentFn>(on_parent));
    return cut;
  }

  /// Serial restore of one edge entry (before serving starts). Refuses
  /// keys that do not unpack to a valid edge of THIS graph — the same
  /// validation admission applies to live traffic.
  bool restore_entry(std::uint32_t, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    const ds::EdgeKey e = ds::unpack_edge(key);
    if (!graph_.valid_edge(e.u, e.v)) return false;
    return graph_.table().restore_slot(key, value, round);
  }

  /// Serial restore of one union-find parent (monotone parent <= v is
  /// enforced inside IncrementalCc).
  bool restore_cc_entry(std::uint32_t v, std::uint32_t parent) {
    return cc_.restore_parent(v, parent);
  }

  /// Serial: recounts components and compacts paths once every parent is
  /// in place.
  void finish_restore() { cc_.finish_restore(); }

  /// Serial: continues the committed round sequence after restore.
  void reseed_round(round_t r) { arbiter_.reseed_round(r); }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] round_t round() const noexcept { return arbiter_.round(); }
  [[nodiscard]] int exec_threads() const noexcept { return threads_; }
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] IncrementalCc& cc() noexcept { return cc_; }
  [[nodiscard]] const IncrementalCc& cc() const noexcept { return cc_; }
  /// Edge-table reclaim sweeps triggered at batch close (watermark- or
  /// telemetry-driven).
  [[nodiscard]] std::uint64_t reclaims() const noexcept {
    return reclaims_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] serve::BackendStats stats() const noexcept {
    serve::BackendStats st;
    st.rounds = round();
    st.batches = batches_.load(std::memory_order_relaxed);
    st.deadline_batches = deadline_batches_.load(std::memory_order_relaxed);
    st.ops_served = ops_served_.load(std::memory_order_relaxed);
    st.full_refusals = full_refusals_.load(std::memory_order_relaxed);
    st.keys = graph_.edges();
    st.shards = shard_count();
    st.shard_local_ops = metrics_.route_local();
    st.shard_foreign_ops = metrics_.route_foreign();
    return st;
  }

 private:
  // One execution stripe: the pump's per-batch working state. Padded so
  // two stripes' slice-local fields (written by different omp threads)
  // never share a line.
  struct alignas(util::kCacheLineSize) Stripe {
    std::vector<serve::Record> pending;   // drained this batch (pump-private)
    std::vector<std::uint32_t> deleted;   // killed-edge endpoints, this slice
    std::uint64_t ops_total = 0;          // lifetime executed ops (pump-serial)
    std::uint64_t wins = 0;               // this slice (owning thread only)
    std::uint64_t hooks = 0;              // forest links, this slice
    std::uint64_t refused = 0;            // kFull writes, this slice (owning thread only)
  };

  /// Admission vocabulary: what this backend does with a record. KV kinds
  /// (kUpsert/kErase) are rejected — this backend serves the graph, and a
  /// raw u64 upsert could forge the sentinel or a self-loop the edge
  /// validation exists to keep out.
  enum class Admit : std::uint8_t { kReject, kLookup, kQuery, kWrite };

  [[nodiscard]] Admit classify(const serve::Op& op) const noexcept {
    switch (op.kind) {
      case serve::OpKind::kLookup:
        return op.key == Table::kEmptyKey ? Admit::kReject : Admit::kLookup;
      case serve::OpKind::kEdgeInsert:
      case serve::OpKind::kEdgeErase: {
        const ds::EdgeKey e = ds::unpack_edge(op.key);
        return graph_.valid_edge(e.u, e.v) ? Admit::kWrite : Admit::kReject;
      }
      case serve::OpKind::kSameComponent:
        return op.key < graph_.vertices() && op.value < graph_.vertices()
                   ? Admit::kQuery
                   : Admit::kReject;
      case serve::OpKind::kComponentSize:
        return op.key < graph_.vertices() ? Admit::kQuery : Admit::kReject;
      case serve::OpKind::kUpsert:
      case serve::OpKind::kErase:
      case serve::OpKind::kSnapshotCreate:  // answered by the wire server,
      case serve::OpKind::kSnapshotScan:    // never inside a round
        return Admit::kReject;
    }
    return Admit::kReject;
  }

  [[nodiscard]] static int lanes_per_stripe(const serve::ServeConfig& v) noexcept {
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
    by_deadline =
        oldest != 0 && serve::now_ns() - oldest >= cfg_.batch.max_wait_us * 1000;
    return by_deadline;
  }

  bool run_batch(bool force) {
    bool by_deadline = false;
    if (!force && !trigger_fired(by_deadline)) return false;
    const std::unique_lock<util::SpinLock> lock(pump_lock_, std::try_to_lock);
    if (!lock.owns_lock()) return false;

    // Cleared here rather than after the batch, so a batch that threw
    // cannot leave its records to be executed again.
    for (auto& s : stripes_) s->pending.clear();
    std::uint64_t drained = 0;
    std::uint64_t local = 0;
    std::uint64_t foreign = 0;
    const std::size_t lanes = queue_.lanes();
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto lane_stripe =
          std::min(l / static_cast<std::size_t>(lanes_per_stripe_), stripes_.size() - 1);
      scratch_.clear();
      drained += queue_.drain_lane_into(l, scratch_);
      for (const serve::Record& rec : scratch_) {
        const auto s = static_cast<std::size_t>(shard_of(rec.op.key));
        if (s == lane_stripe) {
          ++local;
        } else {
          ++foreign;
        }
        stripes_[s]->pending.push_back(rec);
      }
    }

    if (drained == 0) return false;
    std::size_t slices = 0;
    for (const auto& s : stripes_) {
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
    // Batch boundary = step boundary: the edge table reclaims when its
    // tombstone watermark OR its own probe telemetry says the churn has
    // degraded walks (the signal-driven trigger). Parked while any
    // snapshot cut is held — reclaim frees the bucket array a concurrent
    // cut-predicated scan may still be walking.
    if (cuts_held() == 0 && graph_.maybe_reclaim(threads_)) {
      reclaims_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> window(std::size_t s,
                                                           std::size_t j) const {
    const auto& pending = stripes_[s]->pending;
    const std::size_t begin = std::min(pending.size(), j * cfg_.batch.max_batch);
    const std::size_t end = std::min(pending.size(), begin + cfg_.batch.max_batch);
    return {begin, end};
  }

  /// One logical round across every stripe.
  void execute_slice(std::size_t j) {
    admit_ns_ = serve::now_ns();

    // Serial prolog: admission bookkeeping, vocabulary/bounds rejection,
    // and ONE backlog reservation on the shared edge table (grow runs its
    // own OpenMP region, so it cannot live inside the execution region).
    std::uint64_t admitted = 0;
    std::uint64_t write_count = 0;
    for (std::size_t s = 0; s < stripes_.size(); ++s) {
      Stripe& stripe = *stripes_[s];
      stripe.wins = 0;
      stripe.hooks = 0;
      stripe.refused = 0;
      stripe.deleted.clear();
      const auto [begin, end] = window(s, j);
      if (begin == end) continue;
      for (std::size_t i = begin; i < end; ++i) {
        const serve::Record& rec = stripe.pending[i];
        if (rec.enqueue_ns != 0) metrics_.record_admit(rec.enqueue_ns, admit_ns_);
        switch (classify(rec.op)) {
          case Admit::kReject:
            publish(rec, serve::Result{0, false, arbiter_.round() + 1});
            break;
          case Admit::kWrite:
            ++write_count;
            break;
          default:
            break;
        }
      }
      const auto ops = static_cast<std::uint64_t>(end - begin);
      admitted += ops;
      stripe.ops_total += ops;
    }
    metrics_.ops_admitted(admitted);
    // Backlog grow parks while a cut is held (grow frees the old bucket
    // array under a live scan); stream checkpoint workloads pre-size via
    // StreamConfig::expected_edges. A write that then finds the table
    // full is refused (won=false, counted in full_refusals).
    if (cuts_held() == 0) graph_.maybe_grow_for_backlog(write_count, threads_);

    const auto scope = arbiter_.next_round(ResetMode::kNone);
    const round_t r = scope.round();
    const auto n_stripes = static_cast<std::ptrdiff_t>(stripes_.size());

    if (threads_ == 1) {
      // Strictly serial, no OpenMP region (the raw-thread TSan stress
      // tier's mode): all queries before any write, same round boundary.
      for (std::ptrdiff_t s = 0; s < n_stripes; ++s) {
        query_pass(static_cast<std::size_t>(s), j, r);
      }
      for (std::ptrdiff_t s = 0; s < n_stripes; ++s) {
        write_pass(static_cast<std::size_t>(s), j, r);
      }
    } else {
#pragma omp parallel num_threads(threads_)
      {
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < n_stripes; ++s) {
          query_pass(static_cast<std::size_t>(s), j, r);
        }
        // implicit barrier — the round boundary: every committed-state
        // query of round r closed before any round-r write or hook begins.
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t s = 0; s < n_stripes; ++s) {
          write_pass(static_cast<std::size_t>(s), j, r);
        }
        // implicit barrier — edge commits and hooks of round r are done
      }
    }

    // Serial epilog: deletions batched by the write phase take the
    // bounded fallback — rebuild the affected components from live edges,
    // then one compaction sweep refreshes paths and sizes for the next
    // round's queries.
    std::uint64_t wins = 0;
    std::uint64_t hooks = 0;
    std::uint64_t refused = 0;
    touched_.clear();
    for (std::size_t s = 0; s < stripes_.size(); ++s) {
      Stripe& stripe = *stripes_[s];
      wins += stripe.wins;
      hooks += stripe.hooks;
      refused += stripe.refused;
      touched_.insert(touched_.end(), stripe.deleted.begin(), stripe.deleted.end());
      const auto [begin, end] = window(s, j);
      if (begin != end) metrics_.record_shard_round_ops(end - begin);
    }
    if (!touched_.empty()) {
      cc_.rebuild(
          touched_,
          [this](auto&& fn) {
            graph_.for_each_edge(
                [&fn](std::uint32_t u, std::uint32_t v, std::uint64_t) { fn(u, v); });
          },
          threads_);
    }
    if (hooks != 0 || !touched_.empty()) cc_.compact(threads_);
    cc_.flush_round();
    graph_.table().flush_round();
    if (refused != 0) full_refusals_.fetch_add(refused, std::memory_order_relaxed);
    metrics_.write_wins(wins);
    metrics_.flush_round();
  }

  /// Phase A on one stripe: connectivity queries and edge-weight lookups
  /// against the committed pre-round state.
  void query_pass(std::size_t s, std::size_t j, round_t r) {
    Stripe& stripe = *stripes_[s];
    const auto [begin, end] = window(s, j);
    for (std::size_t i = begin; i < end; ++i) {
      const serve::Record& rec = stripe.pending[i];
      switch (classify(rec.op)) {
        case Admit::kLookup: {
          const std::uint64_t* v = graph_.find_key(rec.op.key);
          publish(rec, serve::Result{v != nullptr ? *v : 0, v != nullptr, r});
          break;
        }
        case Admit::kQuery:
          if (rec.op.kind == serve::OpKind::kSameComponent) {
            const bool same = cc_.same_component(static_cast<std::uint32_t>(rec.op.key),
                                                 static_cast<std::uint32_t>(rec.op.value));
            publish(rec, serve::Result{same ? 1u : 0u, true, r});
          } else {  // kComponentSize
            publish(rec, serve::Result{
                             cc_.component_size(static_cast<std::uint32_t>(rec.op.key)),
                             true, r});
          }
          break;
        default:
          break;
      }
    }
  }

  /// Phase B on one stripe (serial within the stripe): round-arbitrated
  /// edge writes, forest hooks for fresh inserts, endpoint capture for
  /// killed edges. `was_live` reads a key only this stripe writes —
  /// legal mid-round under the table's ownership rule.
  void write_pass(std::size_t s, std::size_t j, round_t r) {
    Stripe& stripe = *stripes_[s];
    const auto [begin, end] = window(s, j);
    for (std::size_t i = begin; i < end; ++i) {
      const serve::Record& rec = stripe.pending[i];
      if (classify(rec.op) != Admit::kWrite) continue;
      const ds::EdgeKey e = ds::unpack_edge(rec.op.key);
      const bool was_live = graph_.has_edge(e.u, e.v);
      if (rec.op.kind == serve::OpKind::kEdgeInsert) {
        switch (graph_.insert(r, e.u, e.v, rec.op.value)) {
          case ds::MapUpsert::kWon:
            ++stripe.wins;
            if (!was_live) {
              if (cc_.link(e.u, e.v)) ++stripe.hooks;
            }
            publish(rec, serve::Result{rec.op.value, true, r});
            break;
          case ds::MapUpsert::kLost: {
            const std::uint64_t* v = graph_.find(e.u, e.v);
            publish(rec, serve::Result{v != nullptr ? *v : 0, false, r});
            break;
          }
          case ds::MapUpsert::kFull:
            ++stripe.refused;
            publish(rec, serve::Result{0, false, r});
            break;
        }
      } else {  // kEdgeErase
        const ds::MapUpsert outcome = graph_.erase(r, e.u, e.v);
        if (outcome == ds::MapUpsert::kWon) {
          ++stripe.wins;
          if (was_live) {
            stripe.deleted.push_back(e.u);
            stripe.deleted.push_back(e.v);
          }
        } else if (outcome == ds::MapUpsert::kFull) {
          ++stripe.refused;
        }
        publish(rec, serve::Result{0, outcome == ds::MapUpsert::kWon, r});
      }
    }
  }

  void publish(const serve::Record& rec, const serve::Result& result) {
    if (rec.enqueue_ns != 0) {  // sampled (see BatchConfig)
      metrics_.record_commit(rec.enqueue_ns, admit_ns_, serve::now_ns());
    }
    rec.future->publish(result);
  }

  serve::ServeConfig cfg_;
  int threads_;
  std::uint64_t stripe_mask_;
  int lanes_per_stripe_;
  serve::RequestQueue& queue_;
  serve::ServeMetrics& metrics_;
  DynamicGraph graph_;
  IncrementalCc cc_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // One arbiter = one logical round id for the whole graph (CAS-LT needs
  // no reset sweep, so next_round(kNone) is one increment).
  WriteArbiter<CasLtPolicy> arbiter_{0};
  util::SpinLock pump_lock_;
  // Snapshot cuts currently held (mint_cut/release_cut). While > 0 the
  // batch epilog skips edge-table reclaim and backlog grow — both free
  // the bucket array concurrent cut-predicated scans are walking.
  std::atomic<std::uint64_t> cuts_held_{0};

  // Pump-private scratch (only touched under pump_lock_).
  std::vector<serve::Record> scratch_;
  std::vector<std::uint32_t> touched_;
  std::uint64_t admit_ns_ = 0;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> reclaims_{0};
  std::atomic<std::uint64_t> full_refusals_{0};
};

}  // namespace crcw::stream
