// ShardedScheduler — the key-value serve backend: N ConcurrentHashMap
// shards behind one logical CRCW round. `shards.count = 1` is the
// one-table shape (ServeSession).
//
// Everything round-shaped (queue, routing, pump, triggers, slicing, the
// two-phase dispatch, cuts, stats, metrics) is the RoundEngine's
// (round_engine.hpp). This
// backend keeps only its tables and what it does with one shard's window:
//
//   admission   the sentinel key, stream-vocabulary ops and snapshot kinds
//               are rejected without touching any table
//   reserve     each shard grows once for its own slice backlog, so phase
//               B cannot see kFull while no cut is held
//   phase A     lookups: committed reads of rounds < r
//   phase B     upserts and erases race the bucket's one CAS-LT; in
//               admission order the first same-key write wins its (key,
//               round) arbitration and the committed outcome never changes
//               again within the round, so every op publishes the moment
//               its write returns
//   batch close each shard checks its own tombstone watermark and rebuilds
//               itself (maybe_reclaim_parallel): a churn-heavy shard
//               shrinks while a hot one grows, with no global stop-the-
//               world
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/hash_common.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/round_engine.hpp"
#include "snap/snapshot_file.hpp"
#include "util/cacheline.hpp"

namespace crcw::serve {

class ShardedScheduler : public RoundEngine<ShardedScheduler> {
 public:
  /// Payload is the bare value: liveness lives in the table itself (the
  /// bucket's LiveTag), so a phase-B erase is a real table erase racing
  /// same-round upserts on one CAS.
  using Table = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

  explicit ShardedScheduler(const ServeConfig& cfg) : RoundEngine(cfg) {
    const ServeConfig& v = config();
    const int count = v.shards.count;
    const std::uint64_t per_shard_keys =
        std::max<std::uint64_t>(1, v.table.expected_keys / static_cast<std::uint64_t>(count));
    shards_.reserve(static_cast<std::size_t>(count));
    for (int s = 0; s < count; ++s) {
      const std::string suffix = s == 0 ? "" : "-s" + std::to_string(s);
      shards_.push_back(std::make_unique<Table>(per_shard_keys,
                                                v.table.hash_config("serve-table" + suffix)));
    }
  }

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// The committed value for `key`, or nullptr if absent or erased —
  /// find() is already live-qualified, erased keys are simply not found.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return shard_table(shard_of(key)).find(key);
  }
  [[nodiscard]] const Table& shard_table(int s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  // -- snapshots (src/snap): cut-predicated scans, restore ------------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindKv;

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
    shards_[s]->for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Serial restore of one snapshot entry into shard s (before serving
  /// starts). Refuses keys the router would place on a different shard.
  bool restore_entry(std::uint32_t s, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    if (static_cast<int>(s) != shard_of(key)) return false;
    return shards_[s]->restore_slot(key, value, round);
  }

 private:
  friend class RoundEngine<ShardedScheduler>;

  // One table per shard, each its own line-aligned allocation (so its size
  // is a whole number of lines): two shards written by different omp
  // threads never share a line.
  static_assert(alignof(Table) >= util::kCacheLineSize);

  [[nodiscard]] static Admit admit(const Op& op) noexcept {
    if (op.key == Table::kEmptyKey || is_stream_op(op.kind) || is_snapshot_op(op.kind)) {
      return Admit::kReject;
    }
    return op.kind == OpKind::kLookup ? Admit::kRead : Admit::kWrite;
  }

  void reserve(std::span<const std::uint64_t> writes) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->maybe_grow_for_backlog(writes[s], exec_threads());
    }
  }

  void read_pass(std::size_t s, const Record* records, std::size_t n, round_t r) {
    const Table& table = *shards_[s];
    for (const Record& rec : std::span(records, n)) {
      if (admit(rec.op) != Admit::kRead) continue;
      const std::uint64_t* v = table.find(rec.op.key);
      publish(rec, Result{v != nullptr ? *v : 0, v != nullptr, r});
    }
  }

  WriteTally write_pass(std::size_t s, const Record* records, std::size_t n, round_t r) {
    Table& table = *shards_[s];
    WriteTally tally;
    for (const Record& rec : std::span(records, n)) {
      if (admit(rec.op) != Admit::kWrite) continue;
      const bool is_erase = rec.op.kind == OpKind::kErase;
      const ds::MapUpsert outcome = is_erase ? table.erase(r, rec.op.key)
                                             : table.upsert(r, rec.op.key, rec.op.value);
      switch (outcome) {
        case ds::MapUpsert::kWon:
          ++tally.wins;
          publish(rec, Result{is_erase ? 0 : rec.op.value, true, r});
          break;
        case ds::MapUpsert::kLost: {
          const std::uint64_t* v = table.find(rec.op.key);
          publish(rec, Result{v != nullptr ? *v : 0, false, r});
          break;
        }
        case ds::MapUpsert::kFull:
          ++tally.refused;
          publish(rec, Result{0, false, r});
          break;
      }
    }
    return tally;
  }

  void end_round() {
    for (const auto& table : shards_) table->flush_round();
  }

  void end_batch() {
    for (const auto& table : shards_) (void)table->maybe_reclaim_parallel(exec_threads());
  }

  [[nodiscard]] std::uint64_t keys() const noexcept {
    std::uint64_t total = 0;
    for (const auto& table : shards_) total += table->size();
    return total;
  }

  std::vector<std::unique_ptr<Table>> shards_;
};

}  // namespace crcw::serve
