// The request vocabulary of src/serve: client operations, per-op results,
// and the completion slot a client waits on.
//
// The serving layer maps client traffic onto the paper's round structure:
// every operation admitted into a batch executes inside one CRCW round, so
// N concurrent upserts of the same key collapse to exactly one committed
// write (the arbitrary-CW winner) and every loser still observes the
// committed value wait-free — the idempotent-write semantics a
// high-fan-in upsert service needs.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/round_tag.hpp"
#include "ds/hash_common.hpp"

namespace crcw::serve {

/// Monotonic wall clock in nanoseconds — the timestamp base of the
/// enqueue→admit→commit latency histograms (see serve_metrics.hpp).
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// What a client asks the engine to do with one key.
///
/// The first three are the KV vocabulary every backend serves. The stream
/// kinds (kEdgeInsert and later) are served only by the streaming backend
/// (stream::StreamScheduler) — KV backends reject them at admission, the
/// same wait-free way they reject the sentinel key. Stream ops reuse the
/// same 25-byte wire frame: edge ops carry the canonical packed edge
/// (ds::pack_edge) in `key`; kSameComponent carries the two vertices in
/// `key`/`value`; kComponentSize carries its vertex in `key`.
enum class OpKind : std::uint8_t {
  kUpsert,  ///< write `value` under `key`; one winner per (key, round)
  kLookup,  ///< committed read: sees every write of rounds < its own round
  kErase,   ///< logical tombstone; arbitrates against same-round upserts
  kEdgeInsert,     ///< stream: insert edge pack_edge(u,v) with weight `value`
  kEdgeErase,      ///< stream: erase edge pack_edge(u,v)
  kSameComponent,  ///< stream query: are vertices `key` and `value` connected?
  kComponentSize,  ///< stream query: |component of vertex `key`|
  kSnapshotCreate,  ///< snap: checkpoint the committed state to disk
  kSnapshotScan,    ///< snap: consistent-scan digest at a fresh cut
};

/// Stream-vocabulary ops — the kinds only stream::StreamScheduler executes.
[[nodiscard]] constexpr bool is_stream_op(OpKind k) noexcept {
  return k >= OpKind::kEdgeInsert && k <= OpKind::kComponentSize;
}

/// Snapshot-vocabulary ops. These never enter a round: the wire server
/// answers them on the connection's handler thread (src/snap holds the
/// cut while batches keep committing), and the schedulers reject them at
/// admission like any other foreign vocabulary.
[[nodiscard]] constexpr bool is_snapshot_op(OpKind k) noexcept {
  return k == OpKind::kSnapshotCreate || k == OpKind::kSnapshotScan;
}

/// Read-only kinds: executed in a round's phase A, before any same-round
/// write — the kinds read-your-writes clients re-issue when stale.
[[nodiscard]] constexpr bool is_read_op(OpKind k) noexcept {
  return k == OpKind::kLookup || k == OpKind::kSameComponent ||
         k == OpKind::kComponentSize;
}

/// The read-your-writes rule, held by ClientSession and WireClient alike:
/// the client's last committed write round per shard and on any shard.
/// Reads (is_read_op) must execute in a round later than the writes they
/// could observe, and are re-issued otherwise; snapshot kinds are answered
/// outside any round and neither read nor write; every other kind is a
/// write whose committed round advances the tracker.
class ReadYourWrites {
 public:
  /// Folds one completed op, executed in `round` on `shard`, into the
  /// tracker. Returns false iff it is a stale read, which the client
  /// re-issues.
  bool accept(OpKind kind, std::uint32_t shard, round_t round) {
    if (is_read_op(kind)) return round > stale_bound(kind, shard);
    // Snapshot kinds never commit in a round (schedulers reject them, the
    // wire server answers them outside any): folding their round in would
    // wedge every later read behind a round this client never wrote.
    if (!is_snapshot_op(kind)) note_write(shard, round);
    return true;
  }

  void note_write(std::uint32_t shard, round_t round) {
    if (shard >= last_write_round_.size()) last_write_round_.resize(shard + 1, 0);
    if (round > last_write_round_[shard]) last_write_round_[shard] = round;
    if (round > max_write_round_) max_write_round_ = round;
  }

  [[nodiscard]] round_t last_write_round(std::uint32_t shard) const noexcept {
    return shard < last_write_round_.size() ? last_write_round_[shard] : 0;
  }
  [[nodiscard]] round_t max_write_round() const noexcept { return max_write_round_; }

 private:
  /// The round a read must exceed to be RYW-fresh. Lookups compare against
  /// this client's last write on the key's own shard; the connectivity
  /// queries read GLOBAL state (a hook executed on any stripe can connect
  /// any two vertices), so they compare against the last write round on
  /// any shard — comparable because one arbiter issues every round id.
  [[nodiscard]] round_t stale_bound(OpKind kind, std::uint32_t shard) const noexcept {
    return kind == OpKind::kLookup ? last_write_round(shard) : max_write_round_;
  }

  std::vector<round_t> last_write_round_;
  round_t max_write_round_ = 0;
};

/// One client operation. Keys live in the ds/ tables' uint64 key space
/// (string keys go through ds::string_key); the all-ones key is reserved.
struct Op {
  OpKind kind = OpKind::kLookup;
  std::uint64_t key = 0;
  std::uint64_t value = 0;

  [[nodiscard]] static constexpr Op upsert(std::uint64_t key, std::uint64_t value) noexcept {
    return {OpKind::kUpsert, key, value};
  }
  [[nodiscard]] static constexpr Op lookup(std::uint64_t key) noexcept {
    return {OpKind::kLookup, key, 0};
  }
  [[nodiscard]] static constexpr Op erase(std::uint64_t key) noexcept {
    return {OpKind::kErase, key, 0};
  }
  [[nodiscard]] static constexpr Op edge_insert(std::uint32_t u, std::uint32_t v,
                                                std::uint64_t weight = 1) noexcept {
    return {OpKind::kEdgeInsert, ds::pack_edge(u, v), weight};
  }
  [[nodiscard]] static constexpr Op edge_erase(std::uint32_t u, std::uint32_t v) noexcept {
    return {OpKind::kEdgeErase, ds::pack_edge(u, v), 0};
  }
  [[nodiscard]] static constexpr Op same_component(std::uint32_t u, std::uint32_t v) noexcept {
    return {OpKind::kSameComponent, u, v};
  }
  [[nodiscard]] static constexpr Op component_size(std::uint32_t v) noexcept {
    return {OpKind::kComponentSize, v, 0};
  }
  [[nodiscard]] static constexpr Op snapshot_create() noexcept {
    return {OpKind::kSnapshotCreate, 0, 0};
  }
  [[nodiscard]] static constexpr Op snapshot_scan() noexcept {
    return {OpKind::kSnapshotScan, 0, 0};
  }
};

/// Per-op outcome.
///   * kUpsert/kErase: `won` is true iff this op was the round's arbitration
///     winner for its key; `value` is the value the round *committed* for
///     the key (the winner's value — losers observe it, paper §5).
///   * kLookup: `won` is true iff the key was live before this op's round;
///     `value` is that committed value (0 on a miss).
struct Result {
  std::uint64_t value = 0;
  bool won = false;
  round_t round = 0;  ///< the round this op executed in
};

template <typename Backend>
class RoundEngine;

/// Completion slot for one in-flight op. The client owns the storage and
/// must keep it pinned (neither moved nor destroyed) from submit until
/// ready(); the engine publishes the Result with a release store that the
/// client's ready() acquires, so reading result() after ready() is
/// race-free even across raw threads.
class OpFuture {
 public:
  OpFuture() noexcept = default;
  OpFuture(const OpFuture&) = delete;
  OpFuture& operator=(const OpFuture&) = delete;

  [[nodiscard]] bool ready() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Valid only once ready() returned true (or after the publishing pump
  /// was joined).
  [[nodiscard]] const Result& result() const noexcept {
    assert(ready() && "OpFuture::result before completion");
    return result_;
  }

  /// Re-arms the slot for reuse. The previous op must have completed.
  void reset() noexcept { done_.store(false, std::memory_order_relaxed); }

 private:
  // Only the round engine may publish (the engine side of the contract).
  template <typename Backend>
  friend class RoundEngine;

  void publish(const Result& r) noexcept {
    result_ = r;
    done_.store(true, std::memory_order_release);
  }

  Result result_;
  std::atomic<bool> done_{false};
};

/// Bounded-spin-then-yield waiter — the admission/backpressure move from
/// "Lightweight Contention Management for Efficient Compare-and-Swap
/// Operations" (PAPERS.md) applied at the serving edge: a blocked client
/// burns a few speculative spins (cheap when the queue drains fast), then
/// yields the core so the pump can actually run — essential when clients
/// oversubscribe the machine.
class BackoffState {
 public:
  explicit BackoffState(int spins) noexcept : spins_(spins) {}

  void pause() noexcept {
    if (count_ < spins_) {
      ++count_;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

 private:
  int spins_;
  int count_ = 0;
};

}  // namespace crcw::serve
