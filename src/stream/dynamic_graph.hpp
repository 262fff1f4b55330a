// DynamicGraph — the mutable edge store of the streaming subsystem: an
// undirected multigraph-free edge set over ONE CW-arbitrated
// ConcurrentHashMap, keyed by ds::pack_edge's canonical (min,max) packing.
//
// Everything hard is inherited from the table. Insert/erase are the map's
// round-arbitrated upsert/erase, so N concurrent inserts and erases of the
// same edge in one round collapse to exactly one committed CAS-LT winner
// (one CAS per (edge, round)) and every loser observes the committed
// outcome wait-free. Erases commit tombstones whose buckets the
// cooperative reclaim sweep drops, so the footprint under insert/erase
// churn stays bounded by the live edge count, not the op count — the
// ext_churn claim, now for edges. Values are plain payloads (edge weights)
// published by the step barrier: read them from serial code or after the
// barrier that closed the writing round, except for keys the reading
// thread itself owns within the round (the stream scheduler's per-stripe
// serialization leans on this: a stripe may re-read keys only it writes,
// because probe chains are atomic words and nobody else touches those
// buckets' values).
//
// The reclaim trigger is the tombstone watermark
// (HashConfig::reclaim_ratio), checked by maybe_reclaim(threads).
#pragma once

#include <cstdint>
#include <utility>

#include "core/round_tag.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "ds/hash_common.hpp"

namespace crcw::stream {

class DynamicGraph {
 public:
  using Table = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

  /// `vertices` bounds the vertex-id universe [0, vertices);
  /// `expected_edges` sizes the initial table.
  DynamicGraph(std::uint32_t vertices, std::uint64_t expected_edges,
               ds::HashConfig cfg = {})
      : vertices_(vertices),
        table_(expected_edges < 1 ? 1 : expected_edges, std::move(cfg)) {}

  [[nodiscard]] std::uint32_t vertices() const noexcept { return vertices_; }

  /// A storable edge: both endpoints in-universe and no self-loop (the
  /// packed self-loop at 0xffffffff would be the table's reserved
  /// sentinel; rejecting ALL self-loops keeps it unreachable and the
  /// connectivity structure loop-free).
  [[nodiscard]] static constexpr bool valid_edge(std::uint32_t u, std::uint32_t v,
                                                 std::uint32_t vertices) noexcept {
    return u != v && u < vertices && v < vertices;
  }
  [[nodiscard]] constexpr bool valid_edge(std::uint32_t u, std::uint32_t v) const noexcept {
    return valid_edge(u, v, vertices_);
  }

  // -- round-arbitrated writes (inside a round; rounds strictly increase) ----

  /// Insert {u, v} with weight `value`; one winner per (edge, round)
  /// across inserts AND erases. The caller validates the edge.
  ds::MapUpsert insert(round_t round, std::uint32_t u, std::uint32_t v,
                       std::uint64_t value) {
    return table_.upsert(round, ds::pack_edge(u, v), value);
  }

  /// Erase {u, v} — commits a tombstone; same arbitration as insert.
  ds::MapUpsert erase(round_t round, std::uint32_t u, std::uint32_t v) {
    return table_.erase(round, ds::pack_edge(u, v));
  }

  // -- committed reads (serial / post-barrier / owned-key mid-round) ---------

  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const noexcept {
    return table_.contains(ds::pack_edge(u, v));
  }
  [[nodiscard]] const std::uint64_t* find(std::uint32_t u, std::uint32_t v) const noexcept {
    return table_.find(ds::pack_edge(u, v));
  }
  [[nodiscard]] const std::uint64_t* find_key(std::uint64_t packed) const noexcept {
    return table_.find(packed);
  }

  /// Live edges (committed inserts minus committed erases).
  [[nodiscard]] std::uint64_t edges() const noexcept { return table_.size(); }

  /// Serial/post-barrier sweep over live edges: fn(u, v, weight) with
  /// u < v (the canonical unpacking).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    table_.for_each([&fn](std::uint64_t key, const std::uint64_t& value) {
      const ds::EdgeKey e = ds::unpack_edge(key);
      fn(e.u, e.v, value);
    });
  }

  // -- step-boundary maintenance (serial, no round in flight) ----------------

  bool maybe_grow_for_backlog(std::uint64_t backlog, int threads = 0) {
    return table_.maybe_grow_for_backlog(backlog, threads);
  }

  /// Reclaim gated on the tombstone watermark. Returns true iff a rebuild
  /// ran.
  bool maybe_reclaim(int threads = 0) { return table_.maybe_reclaim_parallel(threads); }

  [[nodiscard]] Table& table() noexcept { return table_; }
  [[nodiscard]] const Table& table() const noexcept { return table_; }

 private:
  std::uint32_t vertices_;
  Table table_;
};

}  // namespace crcw::stream
