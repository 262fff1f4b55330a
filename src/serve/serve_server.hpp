// WireServer — the TCP accept-loop front end over a serve session.
//
// Deployment shape: one BasicWireServer wraps one session (usually
// ShardedServeSession). start() binds (WireConfig::port; 0 = ephemeral,
// port() reports the bound one), spins the accept loop, and starts the
// session's background pump, which closes the batches of in-process
// clients by max_wait_us. Each accepted connection gets a handler thread:
//
//   read chunk → RequestDecoder → submit burst (≤ io_batch ops, futures
//   pinned on the handler's stack) → close the batch on this thread →
//   encode replies IN REQUEST ORDER → write_all
//
// The connection submits nothing more until it has replied, so the
// handler does not wait for the size or deadline trigger: it runs forced
// batches (backend flush()) until its own futures are ready. Those rounds
// still drain every lane under the one pump lock, so connections and
// in-process clients share them. With exec_threads > 1 a handler that
// closes a batch leads its own OpenMP team, as help-pumping in-process
// clients already do.
//
// A burst's ops ride ordinary session rounds — the wire adds no second
// consistency mechanism; Response carries {round, shard} so clients can
// implement read-your-writes exactly like in-process ClientSessions. Any
// framing error (DecodeStatus::kError) drops the connection; there is no
// resync.
//
// Connection bookkeeping: a handler erases its fd from the live set
// before closing it, so stop() never shuts down a recycled fd number, and
// the accept loop joins finished handlers as new connections arrive.
//
// The snapshot kinds are the one exception to "every op rides a round":
// kSnapshotScan and kSnapshotCreate are answered on the handler thread
// itself via src/snap (a consistent cut held while the pump keeps
// committing), so a slow scan blocks only its own connection, never the
// round pipeline. Scan replies carry the fold digest in `value` and the
// cut round in `round`; create replies carry the published checkpoint's
// cut round (won=false if SnapConfig::dir is empty or the write failed).
// Threads-per-connection is deliberate: the expected clients are
// a handful of load generators pipelining thousands of ops, not ten
// thousand idle sockets (an epoll reactor composes later without touching
// the protocol).
//
// Raw POSIX socket plumbing lives in serve_server.cpp (the one compiled
// TU of crcw_serve); this header stays template-friendly for any backend.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/config.hpp"
#include "serve/round_engine.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire.hpp"
#include "snap/checkpointer.hpp"

namespace crcw::serve {

namespace net {

/// Binds + listens on 127.0.0.1 (or all interfaces with `bind_any`);
/// `port` 0 picks an ephemeral port, reported through `bound_port`.
/// Returns the listening fd, or -1 (errno holds the cause).
int tcp_listen(std::uint16_t port, int backlog, bool bind_any,
               std::uint16_t& bound_port);

/// Blocking accept; -1 once the listener is shut down or on error.
int tcp_accept(int listen_fd);

/// Blocking connect to host:port; -1 on failure. `host` is a dotted quad
/// ("127.0.0.1") — the serve wire has no name resolution.
int tcp_connect(const char* host, std::uint16_t port);

/// Blocking read of up to n bytes; >0 bytes read, 0 peer closed, -1 error.
std::ptrdiff_t read_some(int fd, void* buf, std::size_t n);

/// Writes all n bytes (looping over short writes); false on error.
bool write_all(int fd, const void* buf, std::size_t n);

/// shutdown(2) both directions — unblocks a peer's blocked read/accept.
void shutdown_fd(int fd);

void close_fd(int fd);

}  // namespace net

template <typename Backend>
  requires std::derived_from<Backend, RoundEngine<Backend>>
class BasicWireServer {
 public:
  /// The server borrows the session; the caller keeps it alive (and may
  /// keep using it in-process — wire and local clients share rounds).
  BasicWireServer(BasicServeSession<Backend>& session, const WireConfig& cfg)
      : session_(session), cfg_(cfg) {}

  BasicWireServer(const BasicWireServer&) = delete;
  BasicWireServer& operator=(const BasicWireServer&) = delete;

  ~BasicWireServer() { stop(); }

  /// Binds, listens, starts the accept loop and the session pump.
  /// Throws std::runtime_error if the socket cannot be bound.
  void start() {
    if (accept_thread_.joinable()) return;
    std::uint16_t bound = 0;
    listen_fd_ = net::tcp_listen(cfg_.port, cfg_.listen_backlog, cfg_.bind_any, bound);
    if (listen_fd_ < 0) throw std::runtime_error("serve: wire listen/bind failed");
    port_ = bound;
    stopping_.store(false, std::memory_order_relaxed);
    session_.start_pump();
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  /// Stops accepting, drops live connections, joins every handler.
  /// Idempotent; the destructor calls it. The session (and its pump) are
  /// left running — they belong to the caller.
  void stop() {
    if (!accept_thread_.joinable()) return;
    stopping_.store(true, std::memory_order_relaxed);
    net::shutdown_fd(listen_fd_);
    accept_thread_.join();
    net::close_fd(listen_fd_);
    listen_fd_ = -1;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      for (const Connection& c : conns_) net::shutdown_fd(c.fd);
    }
    for (Connection& c : conns_) c.thread.join();
    conns_.clear();
  }

  /// The bound port (== WireConfig::port unless that was 0/ephemeral).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept { return accept_thread_.joinable(); }
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections whose handler has not yet closed its fd.
  [[nodiscard]] std::uint64_t live_connections() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  // One accepted connection. Its handler sets fd to -1 (under conn_mu_)
  // before closing it; after that the entry only awaits a join.
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int fd = net::tcp_accept(listen_fd_);
      if (fd < 0) {
        if (stopping_.load(std::memory_order_relaxed)) return;
        continue;  // transient accept failure (e.g. aborted handshake)
      }
      accepted_.fetch_add(1, std::memory_order_relaxed);
      live_.fetch_add(1, std::memory_order_relaxed);
      reap();
      const std::lock_guard<std::mutex> lock(conn_mu_);
      Connection& c = conns_.emplace_back();
      c.fd = fd;
      c.thread = std::thread([this, &c, fd] {
        serve_connection(fd);
        release(c, fd);
      });
    }
  }

  /// Joins the handlers that have released their connection; they only
  /// have to return. Run before a new handler starts, so that it can reuse
  /// their stack and malloc arena.
  void reap() {
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->fd >= 0) {
          ++it;
          continue;
        }
        finished.push_back(std::move(it->thread));
        it = conns_.erase(it);
      }
    }
    for (std::thread& t : finished) t.join();
  }

  /// Erases the connection's fd from the live set, then closes it, so
  /// stop() never shuts down the number once another socket reuses it.
  void release(Connection& c, int fd) {
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      c.fd = -1;
    }
    net::close_fd(fd);
    live_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Serves one connection until the peer closes, an I/O error, a framing
  /// error or stop(). The caller closes the fd.
  void serve_connection(int fd) {
    wire::RequestDecoder decoder(cfg_.max_frame_bytes);
    std::vector<std::uint8_t> chunk(64 * 1024);
    std::vector<wire::Request> burst;
    std::vector<std::uint8_t> out;
    const auto io_batch = static_cast<std::size_t>(cfg_.io_batch);
    // OpFuture is pinned (atomics, raw pointer held by the engine), so the
    // pool is sized once and never reallocated; submit() re-arms each slot.
    std::vector<OpFuture> futures(io_batch);

    for (;;) {
      const std::ptrdiff_t n = net::read_some(fd, chunk.data(), chunk.size());
      if (n <= 0) return;  // peer closed, error, or stop()'s shutdown
      decoder.feed(chunk.data(), static_cast<std::size_t>(n));
      for (;;) {
        // Decode up to io_batch requests, run them as one submit burst,
        // reply in request order, repeat until the chunk is exhausted.
        burst.clear();
        wire::Request req;
        wire::DecodeStatus st = wire::DecodeStatus::kNeedMore;
        while (burst.size() < io_batch &&
               (st = decoder.next(req)) == wire::DecodeStatus::kFrame) {
          burst.push_back(req);
        }
        if (st == wire::DecodeStatus::kError) return;  // garbage framing: never resync
        if (burst.empty()) break;  // kNeedMore with nothing decoded
        requests_.fetch_add(burst.size(), std::memory_order_relaxed);

        for (std::size_t i = 0; i < burst.size(); ++i) {
          if (!is_snapshot_op(burst[i].op.kind)) session_.submit(burst[i].op, futures[i]);
        }
        close_batch(burst, futures);
        out.clear();
        for (std::size_t i = 0; i < burst.size(); ++i) {
          if (is_snapshot_op(burst[i].op.kind)) {
            // Answered here, in request order, without entering a round —
            // the cut machinery keeps the view consistent while later
            // batches commit underneath the scan.
            wire::encode_response(handle_snapshot(burst[i]), out);
            continue;
          }
          const Result& r = futures[i].result();
          wire::encode_response(
              {burst[i].id, r.won, r.value, r.round,
               static_cast<std::uint32_t>(session_.backend().shard_of(burst[i].op.key))},
              out);
        }
        if (!net::write_all(fd, out.data(), out.size())) return;
        if (st == wire::DecodeStatus::kNeedMore) break;
      }
    }
  }

  /// Runs forced batches on this thread until every round op of the burst
  /// is ready. Another thread may hold the pump lock (flush() then returns
  /// false); its batch publishes what it drained, so back off and recheck.
  void close_batch(const std::vector<wire::Request>& burst,
                   const std::vector<OpFuture>& futures) {
    BackoffState backoff(session_.config().batch.backoff_spins);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      if (is_snapshot_op(burst[i].op.kind)) continue;
      while (!futures[i].ready()) {
        if (session_.backend().flush()) {
          backoff.reset();
        } else {
          backoff.pause();
        }
      }
    }
  }

  /// kSnapshotScan: digest the committed state at a fresh cut, concurrent
  /// with later rounds. kSnapshotCreate: publish a checkpoint file into
  /// SnapConfig::dir (serialized — one checkpoint at a time; the handler
  /// blocks until its file is durable so won=true means published).
  wire::Response handle_snapshot(const wire::Request& req) {
    wire::Response resp;
    resp.id = req.id;
    if (req.op.kind == OpKind::kSnapshotScan) {
      const snap::ScanDigest d = snap::scan_digest(session_.backend());
      resp.won = true;
      resp.value = d.digest;
      resp.round = d.cut.round;
      return resp;
    }
    const std::string& dir = session_.config().snap.dir;
    if (dir.empty()) return resp;  // snapshots not provisioned: won=false
    const std::lock_guard<std::mutex> lock(snap_mu_);
    if (!checkpointer_) {
      checkpointer_ =
          std::make_unique<snap::Checkpointer<Backend>>(session_.backend(), dir);
    }
    std::string err;
    const auto cut = checkpointer_->begin(&err);
    if (!cut.has_value()) return resp;
    resp.won = checkpointer_->wait(&err);
    resp.round = cut->round;
    return resp;
  }

  BasicServeSession<Backend>& session_;
  WireConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  // guarded by conn_mu_; a list, so a handler's entry never moves
  std::list<Connection> conns_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::mutex snap_mu_;  // serializes kSnapshotCreate across connections
  std::unique_ptr<snap::Checkpointer<Backend>> checkpointer_;
};

/// The deployment default: a wire front end over the sharded backend.
using WireServer = BasicWireServer<ShardedScheduler>;

}  // namespace crcw::serve
