// BasicServeSession — the embeddable front door of src/serve, templated
// over any RoundEngine backend (ShardedScheduler, stream::StreamScheduler).
//
// Owns the backend (whose round engine holds the queue, the metrics and
// the table shards) and gives clients three ways to drive it:
//   * submit(op, future) + wait(future): raw async, for callers running
//     their own pump (poll()/flush()) or the background pump;
//   * call(op): synchronous convenience — submits, then self-pumps until
//     the result lands, so a single-threaded caller never deadlocks
//     waiting for a pump that does not exist;
//   * start_pump()/stop_pump(): a background thread that sleeps until the
//     oldest pending op's deadline — the "service" deployment shape.
//
// Every submit goes through the engine's try_enqueue, which routes by key:
// an op lands in a lane owned by its key's shard, so the drained batch is
// shard-local without any re-sort.
//
// Ownership contract: OpFuture storage belongs to the client and must
// stay pinned from submit until ready() (the engine holds a raw pointer
// across the round). The destructor stops the pump and flushes, so no
// submitted op is ever left unpublished.
#pragma once

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/round_engine.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/sharded_scheduler.hpp"
#include "snap/checkpointer.hpp"

namespace crcw::serve {

template <typename Backend>
  requires std::derived_from<Backend, RoundEngine<Backend>>
class BasicServeSession {
 public:
  explicit BasicServeSession(const ServeConfig& cfg = {})
      : cfg_(cfg.validated()), backend_(cfg_) {}

  BasicServeSession(const BasicServeSession&) = delete;
  BasicServeSession& operator=(const BasicServeSession&) = delete;

  ~BasicServeSession() {
    stop_pump();
    flush();
  }

  // -- async client API -----------------------------------------------------

  /// Re-arms `future` and admits `op` into a lane of its key's shard. A
  /// full lane blocks but never deadlocks: the submitter helps pump
  /// (force-closing a batch) until its lane has room, so even a pump-less
  /// session stays live under arbitrary backlog.
  void submit(const Op& op, OpFuture& future) {
    future.reset();
    BackoffState backoff(cfg_.batch.backoff_spins);
    while (!backend_.try_enqueue(op, future)) {
      if (backend_.flush()) {
        backoff.reset();
      } else {
        backoff.pause();  // another pump holds the lock; wait for its drain
      }
    }
  }

  /// Blocks until `future` completes. Requires a live pump (background
  /// pump, or another thread calling poll()/flush()) — a lone thread
  /// should use call() instead.
  const Result& wait(const OpFuture& future) const {
    BackoffState backoff(cfg_.batch.backoff_spins);
    while (!future.ready()) backoff.pause();
    return future.result();
  }

  /// Synchronous round trip: submit, then pump until the result lands.
  /// Works with or without other pumps; the deadline trigger bounds how
  /// long a lone op waits for a round (≤ max_wait_us per poll pass).
  Result call(const Op& op) {
    OpFuture future;
    submit(op, future);
    BackoffState backoff(cfg_.batch.backoff_spins);
    while (!future.ready()) {
      if (backend_.submit_batch()) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    return future.result();
  }

  // -- pump -----------------------------------------------------------------

  /// One admission check; true iff a batch ran (any thread may call).
  bool poll() { return backend_.submit_batch(); }

  /// Drains until the queue is empty (loops: clients may still be adding).
  /// Backs off while another pump holds the lock instead of spinning hot.
  void flush() {
    BackoffState backoff(cfg_.batch.backoff_spins);
    for (;;) {
      if (backend_.flush()) {
        backoff.reset();
        continue;
      }
      if (backend_.pending() == 0) return;
      backoff.pause();
    }
  }

  /// Starts the background pump, so batches close by max_wait_us even with
  /// no client-side pumping. After a poll that ran nothing it sleeps until
  /// the engine's next deadline, or for an idle period of max_wait_us/2
  /// with nothing pending; a deadline already past means another thread
  /// holds the pump, so it backs off max_wait_us/16 instead of spinning.
  /// On Linux its timer slack is 1 µs, so a wake lands on the deadline,
  /// not the default 50 µs after it. Idempotent.
  void start_pump() {
    if (pump_.joinable()) return;
    pump_stop_.store(false, std::memory_order_relaxed);
    pump_ = std::thread([this] {
#ifdef __linux__
      (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // ns, this thread only
#endif
      const std::uint64_t idle_ns = cfg_.batch.max_wait_us * 1000 / 2;
      const std::uint64_t busy_ns =
          std::max<std::uint64_t>(cfg_.batch.max_wait_us * 1000 / 16, 1000);
      while (!pump_stop_.load(std::memory_order_relaxed)) {
        if (backend_.submit_batch()) continue;
        const std::uint64_t due = backend_.next_deadline_ns();
        const std::uint64_t now = now_ns();
        const std::uint64_t sleep_ns =
            due == 0 ? idle_ns : (due > now ? std::min(due - now, idle_ns) : busy_ns);
        std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
      }
    });
  }

  /// Stops the background pump and flushes the residue. Idempotent.
  void stop_pump() {
    if (!pump_.joinable()) return;
    pump_stop_.store(true, std::memory_order_relaxed);
    pump_.join();
    flush();
  }

  [[nodiscard]] bool pump_running() const noexcept { return pump_.joinable(); }

  // -- committed state & introspection (serial / quiescent-pump) ------------

  /// The committed value for `key` after the rounds so far (post-flush);
  /// nullopt if the key is absent or erased.
  [[nodiscard]] std::optional<std::uint64_t> committed(std::uint64_t key) const {
    const std::uint64_t* v = backend_.committed_read(key);
    return v == nullptr ? std::nullopt : std::optional<std::uint64_t>(*v);
  }

  [[nodiscard]] std::uint64_t pending() const noexcept { return backend_.pending(); }
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServeMetrics& metrics() noexcept { return backend_.metrics(); }
  [[nodiscard]] const ServeMetrics& metrics() const noexcept { return backend_.metrics(); }
  [[nodiscard]] Backend& backend() noexcept { return backend_; }
  [[nodiscard]] const Backend& backend() const noexcept { return backend_; }
  [[nodiscard]] BackendStats stats() const noexcept { return backend_.stats(); }

 private:
  ServeConfig cfg_;
  Backend backend_;
  std::thread pump_;
  std::atomic<bool> pump_stop_{false};
};

/// The key-value session: ShardConfig::count tables (1 by default, the
/// one-table shape) with lane→shard affinity. Both names are the same type.
using ServeSession = BasicServeSession<ShardedScheduler>;
using ShardedServeSession = ServeSession;

/// ClientSession — a per-client read-your-writes view over any session.
//
// Tracks the client's last committed WRITE round per shard (from the
// Results it observes) and guarantees that every read it returns executed
// in a strictly later round than the writes it must see — a lookup, this
// client's writes on the key's shard; a connectivity query, its writes on
// any shard (the ReadYourWrites rule, op.hpp). The sync call() path
// already gets this ordering from the batch lifecycle (a lookup submitted
// after a write completed can only drain into a later round); the tracked
// round makes the guarantee *checked*, and for pipelined wire clients
// (wire_client.hpp applies the same rule to Response frames) the retry is
// load-bearing: a lookup racing its own write into one round gets
// re-submitted until it lands later.
//
// One ClientSession per client thread (it is plain mutable state); many
// may share one session.
template <typename Session>
class ClientSession {
 public:
  explicit ClientSession(Session& session) : session_(session) {}

  /// Synchronous round trip with read-your-writes: writes record their
  /// committed round; reads retry (stale_retries() counts) until their
  /// round is strictly later than the writes they must see.
  Result call(const Op& op) {
    const auto shard = static_cast<std::uint32_t>(session_.backend().shard_of(op.key));
    for (;;) {
      const Result r = session_.call(op);
      if (ryw_.accept(op.kind, shard, r.round)) return r;
      ++stale_retries_;
    }
  }

  /// Consistent-scan digest of the session's committed state at a fresh
  /// cut — the in-process twin of WireClient::snapshot_scan (same fold,
  /// same digest for the same committed state).
  [[nodiscard]] snap::ScanDigest snapshot_scan() {
    return snap::scan_digest(session_.backend());
  }

  /// Folds an asynchronously-completed write Result into the tracker (for
  /// clients that pipeline through submit/wait and only need the tracked
  /// rounds, not the retry loop).
  void observe_write(std::uint64_t key, const Result& r) {
    ryw_.note_write(static_cast<std::uint32_t>(session_.backend().shard_of(key)), r.round);
  }

  /// The last committed write round this client observed on `shard`.
  [[nodiscard]] round_t last_write_round(int shard) const {
    return ryw_.last_write_round(static_cast<std::uint32_t>(shard));
  }
  /// Reads that had to retry because they landed in a round at or before
  /// a write of this client they must see (0 on the sync path by design).
  [[nodiscard]] std::uint64_t stale_retries() const noexcept { return stale_retries_; }

 private:
  Session& session_;
  ReadYourWrites ryw_;
  std::uint64_t stale_retries_ = 0;
};

}  // namespace crcw::serve
