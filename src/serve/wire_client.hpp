// WireClient — a blocking TCP client for the serve wire protocol, with
// the same read-your-writes contract ClientSession gives in-process
// callers, reconstructed from Response frames.
//
// Two driving modes:
//   * call(op): one request, one reply. Reads that land in a round at or
//     before a write of this client they must see are re-issued
//     (stale_retries() counts them; the rule is ReadYourWrites, op.hpp) —
//     so call() is RYW-safe even when the server batches this client's
//     ops with thousands of others.
//   * pipeline(ops, window): keeps up to `window` requests in flight,
//     matching replies by correlation id. Writes update the per-shard
//     round tracker; stale lookups are re-queued at the BACK of the
//     pending work (they get a fresh id), so a pipelined mixed workload
//     converges without head-of-line blocking.
//
// Requests are not sent one frame per syscall: every frame of a window
// refill, and every re-issued lookup, is appended to one buffer that
// leaves in a single write just before the client blocks on a read. The
// bytes on the wire are the same; the server sees whole bursts.
//
// One WireClient per thread; it owns one connection and is not
// thread-safe (open several clients for concurrent load).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/op.hpp"
#include "serve/serve_server.hpp"
#include "serve/wire.hpp"

namespace crcw::serve {

class WireClient {
 public:
  WireClient(const std::string& host, std::uint16_t port,
             std::uint32_t max_frame_bytes = 64 * 1024)
      : fd_(net::tcp_connect(host.c_str(), port)), decoder_(max_frame_bytes) {
    if (fd_ < 0) throw std::runtime_error("serve: wire connect failed");
  }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  ~WireClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      net::shutdown_fd(fd_);
      net::close_fd(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  // -- synchronous -----------------------------------------------------------

  /// One RYW-safe round trip. Throws on connection loss or protocol error.
  wire::Response call(const Op& op) {
    for (;;) {
      const wire::Response r = call_raw(op);
      if (ryw_.accept(op.kind, r.shard, r.round)) return r;
      ++stale_retries_;  // raced our own write into its round — re-issue
    }
  }

  /// One round trip with no RYW tracking (what the session returned, raw).
  wire::Response call_raw(const Op& op) {
    queue_request(next_id_++, op);
    wire::Response resp;
    recv_response(resp);
    return resp;
  }

  // -- snapshots -------------------------------------------------------------

  /// Consistent-scan digest of the server's committed state at a fresh
  /// cut: `value` is the fold digest, `round` the cut round. Two servers
  /// holding identical committed state answer with identical digests —
  /// the wire-level equality witness of the kill/restore audit.
  wire::Response snapshot_scan() { return call_raw(Op::snapshot_scan()); }

  /// Asks the server to publish a checkpoint file (SnapConfig::dir).
  /// `won` is true iff the file is durable; `round` is the cut it holds.
  wire::Response snapshot_create() { return call_raw(Op::snapshot_create()); }

  // -- pipelined -------------------------------------------------------------

  /// Runs `ops` with up to `window` in flight; returns one Response per op,
  /// in op order. RYW holds per shard: stale lookups are transparently
  /// re-issued (appended to the in-flight window with a fresh id).
  std::vector<wire::Response> pipeline(const std::vector<Op>& ops,
                                       std::size_t window) {
    if (window == 0) window = 1;
    std::vector<wire::Response> results(ops.size());
    // id → index into ops/results; re-issues get a fresh id, same index.
    std::unordered_map<std::uint64_t, std::size_t> in_flight;
    in_flight.reserve(window * 2);
    std::size_t sent = 0;
    std::size_t done = 0;

    while (done < ops.size()) {
      while (sent < ops.size() && in_flight.size() < window) {
        const std::uint64_t id = next_id_++;
        in_flight.emplace(id, sent);
        queue_request(id, ops[sent]);
        ++sent;
      }
      wire::Response resp;
      recv_response_raw(resp);
      const auto it = in_flight.find(resp.id);
      if (it == in_flight.end()) {
        throw std::runtime_error("serve: wire response with unknown id");
      }
      const std::size_t idx = it->second;
      in_flight.erase(it);
      const Op& op = ops[idx];
      if (!ryw_.accept(op.kind, resp.shard, resp.round)) {
        ++stale_retries_;
        const std::uint64_t id = next_id_++;  // re-issue, stay in the window
        in_flight.emplace(id, idx);
        queue_request(id, op);
        continue;
      }
      results[idx] = resp;
      ++done;
    }
    return results;
  }

  // -- read-your-writes state ------------------------------------------------

  [[nodiscard]] round_t last_write_round(std::uint32_t shard) const noexcept {
    return ryw_.last_write_round(shard);
  }
  /// Last write round on ANY shard — the stale bound of the connectivity
  /// queries, which read global state.
  [[nodiscard]] round_t max_write_round() const noexcept { return ryw_.max_write_round(); }
  /// Reads re-issued because they executed at or before a write of this
  /// client they must see.
  [[nodiscard]] std::uint64_t stale_retries() const noexcept { return stale_retries_; }

 private:
  /// Appends a request frame to the send buffer; the next blocking read
  /// sends it (recv_response_raw).
  void queue_request(std::uint64_t id, const Op& op) { wire::encode_request({id, op}, out_); }

  /// Next response, id-checked against nothing (pipeline matches ids).
  /// Sends every queued request before it blocks, so the server always
  /// holds what this client waits on.
  void recv_response_raw(wire::Response& resp) {
    for (;;) {
      switch (decoder_.next(resp)) {
        case wire::DecodeStatus::kFrame:
          return;
        case wire::DecodeStatus::kError:
          throw std::runtime_error("serve: wire protocol error from server");
        case wire::DecodeStatus::kNeedMore: {
          if (!out_.empty()) {
            if (!net::write_all(fd_, out_.data(), out_.size())) {
              throw std::runtime_error("serve: wire send failed");
            }
            out_.clear();
          }
          const std::ptrdiff_t n = net::read_some(fd_, chunk_, sizeof(chunk_));
          if (n <= 0) throw std::runtime_error("serve: wire connection closed");
          decoder_.feed(chunk_, static_cast<std::size_t>(n));
          break;
        }
      }
    }
  }

  void recv_response(wire::Response& resp) {
    recv_response_raw(resp);
    if (resp.id != next_id_ - 1) {
      throw std::runtime_error("serve: wire response id mismatch");
    }
  }

  int fd_ = -1;
  wire::ResponseDecoder decoder_;
  std::uint64_t next_id_ = 1;
  std::uint64_t stale_retries_ = 0;
  ReadYourWrites ryw_;
  std::vector<std::uint8_t> out_;  // queued request frames, not yet sent
  std::uint8_t chunk_[16 * 1024];
};

}  // namespace crcw::serve
