// wire — the length-prefixed binary protocol of the serve front end.
//
// Framing: every message is `u32 payload_len | payload`, all integers
// little-endian regardless of host order (encoded byte-by-byte, so the
// codec is portable and never type-puns). Payloads are fixed-size per
// direction:
//
//   request   u8 kind | u64 id | u64 key | u64 value          (25 bytes)
//   response  u8 status | u64 id | u64 value | u64 round | u32 shard
//                                                            (29 bytes)
//
// `id` is a client-chosen correlation id echoed back verbatim (the server
// answers a connection's requests in order, but pipelined clients still
// match on id). `status` bit 0 is Result::won; higher bits are reserved
// and must be zero. `round`/`shard` let a client implement read-your-
// writes over the wire: track the last write round per shard, re-issue
// lookups that landed at or before it (wire_client.hpp).
//
// The stream kinds ride the same frames with no codec change: edge ops
// put the packed edge in the key field, the connectivity queries their
// vertices in key/value (OpKind docs). The snapshot kinds
// (kSnapshotCreate/kSnapshotScan) ride them too — key/value are ignored
// on request; the response carries the cut round in `round` and the scan
// digest (or 0 for create) in `value`. Only the decoder's kind bound
// moves; kinds past kSnapshotScan still poison.
//
// The decoder is incremental and chunk-boundary agnostic: feed() arbitrary
// byte slices, next() yields complete frames. Garbage framing (oversized
// or undersized length prefix, bad kind/status byte) is reported as
// kError and poisons the decoder — the connection owner must drop the
// connection, never resynchronise. Decoding arbitrary bytes is safe
// (no UB, no allocation beyond the cap), which is what makes the codec
// fuzz-friendly and unit-testable without sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/round_tag.hpp"
#include "serve/op.hpp"

namespace crcw::serve::wire {

inline constexpr std::size_t kLenBytes = 4;
inline constexpr std::size_t kRequestPayloadBytes = 1 + 8 + 8 + 8;
inline constexpr std::size_t kResponsePayloadBytes = 1 + 8 + 8 + 8 + 4;
inline constexpr std::size_t kRequestFrameBytes = kLenBytes + kRequestPayloadBytes;
inline constexpr std::size_t kResponseFrameBytes = kLenBytes + kResponsePayloadBytes;

/// One client request on the wire: a correlation id plus the op.
struct Request {
  std::uint64_t id = 0;
  Op op;
};

/// One server reply. `won` mirrors Result::won; `round` and `shard` are
/// the read-your-writes coordinates of the executing round.
struct Response {
  std::uint64_t id = 0;
  bool won = false;
  std::uint64_t value = 0;
  round_t round = 0;
  std::uint32_t shard = 0;
};

// -- little-endian primitives (byte-wise: portable, alias-safe) -------------

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// -- encoding ----------------------------------------------------------------

inline void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(kRequestPayloadBytes));
  out.push_back(static_cast<std::uint8_t>(req.op.kind));
  put_u64(out, req.id);
  put_u64(out, req.op.key);
  put_u64(out, req.op.value);
}

inline void encode_response(const Response& resp, std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(kResponsePayloadBytes));
  out.push_back(static_cast<std::uint8_t>(resp.won ? 1 : 0));
  put_u64(out, resp.id);
  put_u64(out, resp.value);
  put_u64(out, resp.round);
  put_u32(out, resp.shard);
}

// -- incremental decoding ----------------------------------------------------

enum class DecodeStatus : std::uint8_t {
  kFrame,     ///< one complete frame was produced
  kNeedMore,  ///< the buffered bytes end mid-frame; feed() more
  kError,     ///< garbage framing; the decoder is poisoned — drop the peer
};

/// Splits a byte stream into validated frames of one expected payload
/// size. Direction-agnostic: the request and response decoders below pin
/// the size and decode the payload fields.
class FrameReader {
 public:
  /// `expected_payload` is the only legal length-prefix value;
  /// `max_frame_bytes` additionally caps it (WireConfig::max_frame_bytes)
  /// so a garbage prefix can never look like a request to buffer 4 GiB.
  FrameReader(std::size_t expected_payload, std::uint32_t max_frame_bytes) noexcept
      : expected_payload_(expected_payload), max_frame_(max_frame_bytes) {}

  /// Appends raw bytes (any chunking, including single bytes).
  void feed(const std::uint8_t* data, std::size_t n) {
    if (n == 0) return;
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Extracts the next complete payload into `payload` (overwritten).
  DecodeStatus next(std::vector<std::uint8_t>& payload) {
    if (poisoned_) return DecodeStatus::kError;
    if (buf_.size() - pos_ < kLenBytes) {
      compact();
      return DecodeStatus::kNeedMore;
    }
    const std::uint32_t len = get_u32(buf_.data() + pos_);
    if (len != expected_payload_ || len > max_frame_) {
      poisoned_ = true;
      return DecodeStatus::kError;
    }
    if (buf_.size() - pos_ < kLenBytes + len) {
      compact();
      return DecodeStatus::kNeedMore;
    }
    payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kLenBytes),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kLenBytes + len));
    pos_ += kLenBytes + len;
    return DecodeStatus::kFrame;
  }

  /// Marks the stream unrecoverable (bad payload contents, not just bad
  /// framing) — every later next() reports kError.
  void poison() noexcept { poisoned_ = true; }

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  /// Bytes buffered but not yet consumed (0 on a clean stream boundary).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  /// Drops consumed bytes once they dominate the buffer, so a long-lived
  /// connection's buffer stays at O(one frame), not O(stream).
  void compact() {
    if (pos_ == 0) return;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }

  std::size_t expected_payload_;
  std::uint32_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

/// Server-side decoder: bytes in, Requests out.
class RequestDecoder {
 public:
  explicit RequestDecoder(std::uint32_t max_frame_bytes) noexcept
      : reader_(kRequestPayloadBytes, max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n) { reader_.feed(data, n); }

  DecodeStatus next(Request& out) {
    const DecodeStatus st = reader_.next(payload_);
    if (st != DecodeStatus::kFrame) return st;
    const std::uint8_t kind = payload_[0];
    if (kind > static_cast<std::uint8_t>(OpKind::kSnapshotScan)) {
      reader_.poison();
      return DecodeStatus::kError;
    }
    out.op.kind = static_cast<OpKind>(kind);
    out.id = get_u64(payload_.data() + 1);
    out.op.key = get_u64(payload_.data() + 9);
    out.op.value = get_u64(payload_.data() + 17);
    return DecodeStatus::kFrame;
  }

  [[nodiscard]] std::size_t buffered() const noexcept { return reader_.buffered(); }

 private:
  FrameReader reader_;
  std::vector<std::uint8_t> payload_;
};

/// Client-side decoder: bytes in, Responses out.
class ResponseDecoder {
 public:
  explicit ResponseDecoder(std::uint32_t max_frame_bytes) noexcept
      : reader_(kResponsePayloadBytes, max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n) { reader_.feed(data, n); }

  DecodeStatus next(Response& out) {
    const DecodeStatus st = reader_.next(payload_);
    if (st != DecodeStatus::kFrame) return st;
    const std::uint8_t status = payload_[0];
    if ((status & ~std::uint8_t{1}) != 0) {  // reserved bits must be zero
      reader_.poison();
      return DecodeStatus::kError;
    }
    out.won = (status & 1) != 0;
    out.id = get_u64(payload_.data() + 1);
    out.value = get_u64(payload_.data() + 9);
    out.round = get_u64(payload_.data() + 17);
    out.shard = get_u32(payload_.data() + 25);
    return DecodeStatus::kFrame;
  }

  [[nodiscard]] std::size_t buffered() const noexcept { return reader_.buffered(); }

 private:
  FrameReader reader_;
  std::vector<std::uint8_t> payload_;
};

}  // namespace crcw::serve::wire
