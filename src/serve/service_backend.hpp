// ServiceBackend — the backend-agnostic contract BasicServeSession
// templates over.
//
// The session owns the client-facing machinery (queue, futures, pump
// thread, backpressure) and delegates everything round-shaped to a
// backend: the key-value ShardedScheduler and the streaming
// stream::StreamScheduler both run on RoundEngine (round_engine.hpp), so
// every session feature (submit/wait/call/flush, background pump,
// destructor drain) works identically over both. A backend is constructed from
// (ServeConfig, RequestQueue&, ServeMetrics&) — the session wires them —
// and additionally tells the session how wide the queue must be
// (queue_lanes) and which lane an op belongs in (route), which is where
// lane→shard affinity lives.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "core/round_tag.hpp"
#include "serve/config.hpp"

namespace crcw::serve {

class RequestQueue;
class ServeMetrics;

/// One snapshot of a backend's service counters (relaxed reads; exact
/// once clients quiesce). The routing pair: `shard_local_ops` counts ops
/// drained from a lane of their key's own shard, `shard_foreign_ops` ops
/// that had to cross shards at execution — the affinity quality the bench
/// reports as a hit rate. With one shard every drained op is local.
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
  std::uint64_t shard_local_ops = 0;
  std::uint64_t shard_foreign_ops = 0;

  /// Fraction of executed ops that landed shard-local; 1.0 when nothing
  /// was drained yet.
  [[nodiscard]] double routing_hit_rate() const noexcept {
    const std::uint64_t total = shard_local_ops + shard_foreign_ops;
    return total == 0 ? 1.0
                      : static_cast<double>(shard_local_ops) / static_cast<double>(total);
  }
};

/// The contract: trigger-gated and unconditional pumping, quiescent
/// committed reads, a stats snapshot, and the routing surface the session
/// (and read-your-writes clients) need. `route` may be called from any
/// client thread; `committed_read`/`stats` are advisory under a live pump
/// and exact once it quiesces, like the queue's own counters.
template <typename B>
concept ServiceBackend =
    std::constructible_from<B, const ServeConfig&, RequestQueue&, ServeMetrics&> &&
    requires(B& b, const B& cb, std::uint64_t key, const ServeConfig& cfg) {
      { b.submit_batch() } -> std::same_as<bool>;
      { b.flush() } -> std::same_as<bool>;
      { cb.committed_read(key) } -> std::same_as<const std::uint64_t*>;
      { cb.stats() } -> std::same_as<BackendStats>;
      { cb.shard_count() } -> std::same_as<int>;
      { cb.shard_of(key) } -> std::same_as<int>;
      { cb.route(key) } -> std::same_as<std::size_t>;
      { B::queue_lanes(cfg) } -> std::same_as<int>;
    };

}  // namespace crcw::serve
