// StreamScheduler — the streaming serve backend: batched edge updates and
// incremental connectivity over ONE DynamicGraph + ONE IncrementalCc, on
// the same RoundEngine (serve/round_engine.hpp) as the KV backend, so
// BasicServeSession, BasicWireServer and WireClient drive it unchanged.
//
// Stripes, not shards. Connectivity is global — there is no way to
// partition the vertex set so queries stay local — so the backend keeps
// one shared edge table and one shared forest, and the engine's "shards"
// are execution STRIPES: a key's stripe is the high bits of ds::mix64(key),
// every record of a stripe executes on one thread, and therefore all
// writes to one edge key are serialized on one thread. That per-key
// serialization is what legalises the mid-round reads below; cross-stripe
// parallelism is safe because the table's probe chains are atomic words
// and the forest's hook is a CAS.
//
// What this backend adds to the engine's round:
//
//   admission   vocabulary and bounds: KV kinds, snapshot kinds and
//               malformed edges are rejected without touching anything
//   reserve     ONE backlog-sized grow on the shared edge table
//   phase A     connectivity queries and edge-weight lookups against the
//               COMMITTED pre-round state (nothing links in phase A)
//   phase B     edge writes + hooks + publish
//   end_round   deletion fallback (IncrementalCc::rebuild over the killed
//               endpoints), then one compaction sweep
//   end_batch   edge-table reclaim
//
// Phase B per record: the table's round arbitration collapses all
// same-(edge, round) inserts/erases to one winner. A winning insert of an
// edge that was NOT live pre-round hooks the forest (cc_.link — the
// arbitrary-CW write; concurrent hooks on one root resolve by CAS, losers
// retry against the new root). A winning erase of a live edge only
// records its endpoints — the forest cannot un-merge, so deletions batch
// into end_round's bounded rebuild. `was_live` is a mid-round read of a
// key only this stripe writes, which the table's ownership rule permits.
//
// Queries answer from the state committed by the previous round's
// end_round (hooks + rebuild + compact all happened-before the next
// round's phase A), so a round-r query result is exact for the prefix of
// writes with round < r — the same committed-read semantics the KV
// lookups give.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "ds/hash_common.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/round_engine.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/incremental_cc.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace crcw::stream {

class StreamScheduler : public serve::RoundEngine<StreamScheduler> {
 public:
  using Table = DynamicGraph::Table;

  explicit StreamScheduler(const serve::ServeConfig& cfg)
      : RoundEngine(cfg),
        graph_(config().stream.vertices,
               config().stream.expected_edges != 0 ? config().stream.expected_edges
                                                   : config().table.expected_keys,
               config().table.hash_config("stream-edges")),
        cc_(config().stream.vertices, config().batch.counters),
        stripes_(static_cast<std::size_t>(config().shards.count)) {}

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// Weight of the packed edge `key`, or null if not live.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return graph_.find_key(key);
  }

  // -- snapshots (src/snap): cut-predicated scans, capture, restore ---------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindStream;

  /// One segment: the stripes share one edge table. The engine's mint_cut
  /// (round-only, for scan_digest) asks for this rather than the stripe
  /// count; whole-state checkpoints go through capture_snapshot instead so
  /// the forest agrees with the edge set.
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
  /// consistency; the KV backend keeps the concurrent path).
  template <typename EdgeFn, typename ParentFn>
  [[nodiscard]] snap::SnapshotCut capture_snapshot(EdgeFn&& on_edge,
                                                   ParentFn&& on_parent) {
    const std::lock_guard<util::SpinLock> lock(pump_lock());
    const snap::SnapshotCut cut{round(), 1};
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

  // -- introspection --------------------------------------------------------
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] IncrementalCc& cc() noexcept { return cc_; }
  [[nodiscard]] const IncrementalCc& cc() const noexcept { return cc_; }
  /// Edge-table reclaim sweeps triggered at batch close (by the tombstone
  /// watermark; see end_batch).
  [[nodiscard]] std::uint64_t reclaims() const noexcept {
    return reclaims_.load(std::memory_order_relaxed);
  }

 private:
  friend class serve::RoundEngine<StreamScheduler>;

  // One stripe's round-local phase-B output, gathered and cleared by
  // end_round. Padded so two stripes (written by different omp threads)
  // never share a line.
  struct alignas(util::kCacheLineSize) Stripe {
    std::vector<std::uint32_t> deleted;  // killed-edge endpoints
    std::uint64_t hooks = 0;             // forest links
  };

  /// Admission vocabulary. KV writes (kUpsert/kErase) are rejected — this
  /// backend serves the graph, and a raw u64 upsert could forge the
  /// sentinel or a self-loop the edge validation exists to keep out.
  [[nodiscard]] serve::Admit admit(const serve::Op& op) const noexcept {
    switch (op.kind) {
      case serve::OpKind::kLookup:
        return op.key == Table::kEmptyKey ? serve::Admit::kReject : serve::Admit::kRead;
      case serve::OpKind::kEdgeInsert:
      case serve::OpKind::kEdgeErase: {
        const ds::EdgeKey e = ds::unpack_edge(op.key);
        return graph_.valid_edge(e.u, e.v) ? serve::Admit::kWrite : serve::Admit::kReject;
      }
      case serve::OpKind::kSameComponent:
        return op.key < graph_.vertices() && op.value < graph_.vertices()
                   ? serve::Admit::kRead
                   : serve::Admit::kReject;
      case serve::OpKind::kComponentSize:
        return op.key < graph_.vertices() ? serve::Admit::kRead : serve::Admit::kReject;
      case serve::OpKind::kUpsert:
      case serve::OpKind::kErase:
      case serve::OpKind::kSnapshotCreate:  // answered by the wire server,
      case serve::OpKind::kSnapshotScan:    // never inside a round
        return serve::Admit::kReject;
    }
    return serve::Admit::kReject;
  }

  /// Stream checkpoint workloads pre-size via StreamConfig::expected_edges
  /// (the engine parks this while a cut is held).
  void reserve(std::span<const std::uint64_t> writes) {
    std::uint64_t total = 0;
    for (const std::uint64_t w : writes) total += w;
    graph_.maybe_grow_for_backlog(total, exec_threads());
  }

  /// Phase A: connectivity queries and edge-weight lookups against the
  /// committed pre-round state.
  void read_pass(std::size_t, const serve::Record* records, std::size_t n, round_t r) {
    for (const serve::Record& rec : std::span(records, n)) {
      if (admit(rec.op) != serve::Admit::kRead) continue;
      const auto u = static_cast<std::uint32_t>(rec.op.key);
      switch (rec.op.kind) {
        case serve::OpKind::kLookup: {
          const std::uint64_t* v = graph_.find_key(rec.op.key);
          publish(rec, serve::Result{v != nullptr ? *v : 0, v != nullptr, r});
          break;
        }
        case serve::OpKind::kSameComponent: {
          const bool same = cc_.same_component(u, static_cast<std::uint32_t>(rec.op.value));
          publish(rec, serve::Result{same ? 1u : 0u, true, r});
          break;
        }
        default:  // kComponentSize
          publish(rec, serve::Result{cc_.component_size(u), true, r});
          break;
      }
    }
  }

  /// Phase B on one stripe (serial within the stripe): round-arbitrated
  /// edge writes, forest hooks for fresh inserts, endpoint capture for
  /// killed edges. `was_live` reads a key only this stripe writes — legal
  /// mid-round under the table's ownership rule.
  serve::WriteTally write_pass(std::size_t s, const serve::Record* records, std::size_t n,
                               round_t r) {
    Stripe& stripe = stripes_[s];
    serve::WriteTally tally;
    for (const serve::Record& rec : std::span(records, n)) {
      if (admit(rec.op) != serve::Admit::kWrite) continue;
      const ds::EdgeKey e = ds::unpack_edge(rec.op.key);
      const bool was_live = graph_.has_edge(e.u, e.v);
      if (rec.op.kind == serve::OpKind::kEdgeInsert) {
        switch (graph_.insert(r, e.u, e.v, rec.op.value)) {
          case ds::MapUpsert::kWon:
            ++tally.wins;
            if (!was_live && cc_.link(e.u, e.v)) ++stripe.hooks;
            publish(rec, serve::Result{rec.op.value, true, r});
            break;
          case ds::MapUpsert::kLost: {
            const std::uint64_t* v = graph_.find(e.u, e.v);
            publish(rec, serve::Result{v != nullptr ? *v : 0, false, r});
            break;
          }
          case ds::MapUpsert::kFull:
            ++tally.refused;
            publish(rec, serve::Result{0, false, r});
            break;
        }
      } else {  // kEdgeErase
        const ds::MapUpsert outcome = graph_.erase(r, e.u, e.v);
        if (outcome == ds::MapUpsert::kWon) {
          ++tally.wins;
          if (was_live) {
            stripe.deleted.push_back(e.u);
            stripe.deleted.push_back(e.v);
          }
        } else if (outcome == ds::MapUpsert::kFull) {
          ++tally.refused;
        }
        publish(rec, serve::Result{0, outcome == ds::MapUpsert::kWon, r});
      }
    }
    return tally;
  }

  /// Deletions batched by phase B take the bounded fallback — rebuild the
  /// affected components from live edges — then one compaction sweep
  /// refreshes paths and sizes for the next round's queries.
  void end_round() {
    std::uint64_t hooks = 0;
    touched_.clear();
    for (Stripe& stripe : stripes_) {
      hooks += stripe.hooks;
      touched_.insert(touched_.end(), stripe.deleted.begin(), stripe.deleted.end());
      stripe.hooks = 0;
      stripe.deleted.clear();
    }
    if (!touched_.empty()) {
      cc_.rebuild(
          touched_,
          [this](auto&& fn) {
            graph_.for_each_edge(
                [&fn](std::uint32_t u, std::uint32_t v, std::uint64_t) { fn(u, v); });
          },
          exec_threads());
    }
    if (hooks != 0 || !touched_.empty()) cc_.compact(exec_threads());
    cc_.flush_round();
    graph_.table().flush_round();
  }

  /// The edge table reclaims when its tombstone watermark says the churn
  /// has degraded walks.
  void end_batch() {
    if (graph_.maybe_reclaim(exec_threads())) {
      reclaims_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t keys() const noexcept { return graph_.edges(); }

  DynamicGraph graph_;
  IncrementalCc cc_;
  std::vector<Stripe> stripes_;
  std::vector<std::uint32_t> touched_;  // end_round scratch (pump-private)
  std::atomic<std::uint64_t> reclaims_{0};
};

}  // namespace crcw::stream
