// Checkpointer — consistent scans, checkpoint files, and restore, duck-
// typed over the serve backends so snap/ depends on ds/ and core/ only.
//
// Backend contract (ShardedScheduler, StreamScheduler; the cut calls and
// reseed_round come from their shared serve::RoundEngine):
//   static kSnapshotKind            kKindKv | kKindStream
//   mint_cut() / release_cut()      park grow/reclaim while a scan runs
//   snapshot_shards()               file segments (KV: shards, stream: 1)
//   scan_shard_at(s, round, fn)     cut-predicated fn(key, value, round)
//   restore_entry(s, k, v, round)   serial rebuild of one committed entry
//   reseed_round(r)                 arbiter continuity across restart
//   config_digest()                 backend shape baked into the header
// Stream backends additionally provide capture_snapshot (edges + cc forest
// captured together under the parked pump, so a restored server answers
// same_component exactly) plus restore_cc_entry / finish_restore.
//
// Concurrency story. For the KV backends the cut is HELD, not a stop-the-
// world: mint_cut parks the pump only long enough to read the round, and
// the scan then runs concurrently with later rounds — writers never block,
// the per-bucket round predicate keeps the view at the cut, and the only
// thing a held cut forbids is array-swapping maintenance (grow/reclaim),
// which the round engine's batch epilog skips while cuts_held() > 0. The
// stream backend trades that concurrency for forest consistency: its
// capture runs entirely under the parked pump (edge set and union-find
// parents must agree), which is fine because the writer-p99-interference
// headline targets the sharded KV path.
//
// The view at cut r is exact for every key not overwritten after the cut.
// A post-cut overwrite or erase advances the key's LiveTag past r — the
// tag keeps only the LAST committed round — so such keys drop out of the
// scan rather than appear with post-cut values: the scan never invents
// state, it can only under-report keys mutated while it runs. Checkpoints
// minted on a quiescent prefix of the keyspace (or a quiesced server) are
// therefore bit-exact; the kill/restore audit pins this.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ds/hash_common.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"

namespace crcw::snap {

/// Order-independent fold of one scanned entry — commutative, so shard
/// scan order (and the concurrent scan's bucket order) cannot change it.
[[nodiscard]] inline std::uint64_t entry_digest(std::uint64_t a, std::uint64_t b,
                                                std::uint64_t c) noexcept {
  return ds::mix64(a ^ ds::mix64(b ^ ds::mix64(c ^ 0x9E3779B97F4A7C15ull)));
}

/// A consistent-scan digest: the cut it was taken at, the XOR-fold of
/// entry_digest over every entry at the cut, and the entry count mixed in.
/// Two servers answering identical committed state at the same cut produce
/// identical digests — the wire snapshot_scan payload and the kill/restore
/// audit's equality witness.
struct ScanDigest {
  SnapshotCut cut;
  std::uint64_t digest = 0;
  std::uint64_t entries = 0;
};

template <typename Backend>
inline constexpr bool kStreamSnapshotBackend = Backend::kSnapshotKind == kKindStream;

/// Mint a cut, fold every shard's entries at it, release. Concurrent with
/// writers on the KV backends (held-cut discipline); on the stream backend
/// the fold covers the edge set only (the forest is derived state — two
/// servers with equal edge sets answer same_component identically).
template <typename Backend>
[[nodiscard]] ScanDigest scan_digest(Backend& backend) {
  HeldCut<Backend> held(backend);
  ScanDigest out;
  out.cut = held.cut();
  for (std::uint32_t s = 0; s < backend.snapshot_shards(); ++s) {
    backend.scan_shard_at(s, out.cut.round,
                          [&out](std::uint64_t k, std::uint64_t v, round_t r) {
                            out.digest ^= entry_digest(k, v, r);
                            ++out.entries;
                          });
  }
  out.digest ^= ds::mix64(out.entries + 1);
  return out;
}

/// Scan the KV backend at a cut the CALLER holds and publish the snapshot
/// file. One kFrameKv chunk stream per shard, kChunkEntries per frame.
template <typename Backend>
bool write_kv_snapshot(Backend& backend, const SnapshotCut& cut, const std::string& path,
                       std::string* err) {
  static_assert(!kStreamSnapshotBackend<Backend>,
                "stream backends checkpoint via capture_snapshot");
  SnapshotWriter writer(path);
  const SnapshotHeader header{kFormatVersion, Backend::kSnapshotKind, cut.round,
                              backend.snapshot_shards(), backend.config_digest()};
  bool ok = writer.open(header);
  std::vector<SnapshotEntry> chunk;
  chunk.reserve(kChunkEntries);
  for (std::uint32_t s = 0; ok && s < backend.snapshot_shards(); ++s) {
    backend.scan_shard_at(s, cut.round,
                          [&](std::uint64_t k, std::uint64_t v, round_t r) {
                            if (!ok) return;
                            chunk.push_back(SnapshotEntry{k, v, r});
                            if (chunk.size() == kChunkEntries) {
                              ok = writer.append(kFrameKv, s, chunk);
                              chunk.clear();
                            }
                          });
    if (ok && !chunk.empty()) {
      ok = writer.append(kFrameKv, s, chunk);
      chunk.clear();
    }
  }
  ok = ok && writer.finish();
  if (!ok && err != nullptr) *err = writer.error();
  return ok;
}

/// Stream capture staged in memory: edge triples and cc parents taken
/// together under the backend's parked pump, then written without holding
/// anything up.
struct StreamCapture {
  SnapshotCut cut;
  std::vector<SnapshotEntry> edges;
  std::vector<SnapshotEntry> parents;
};

template <typename Backend>
[[nodiscard]] StreamCapture capture_stream(Backend& backend) {
  StreamCapture cap;
  cap.cut = backend.capture_snapshot(
      [&cap](std::uint64_t k, std::uint64_t v, round_t r) {
        cap.edges.push_back(SnapshotEntry{k, v, r});
      },
      [&cap](std::uint32_t v, std::uint32_t p) {
        cap.parents.push_back(SnapshotEntry{v, p, 0});
      });
  return cap;
}

template <typename Backend>
bool write_stream_snapshot(Backend& backend, const StreamCapture& cap,
                           const std::string& path, std::string* err) {
  SnapshotWriter writer(path);
  const SnapshotHeader header{kFormatVersion, Backend::kSnapshotKind, cap.cut.round,
                              backend.snapshot_shards(), backend.config_digest()};
  bool ok = writer.open(header);
  const auto flush = [&writer, &ok](std::uint8_t kind,
                                    const std::vector<SnapshotEntry>& all) {
    for (std::size_t i = 0; ok && i < all.size(); i += kChunkEntries) {
      const std::size_t n = std::min<std::size_t>(kChunkEntries, all.size() - i);
      ok = writer.append(
          kind, 0, std::vector<SnapshotEntry>(all.begin() + i, all.begin() + i + n));
    }
  };
  flush(kFrameKv, cap.edges);
  flush(kFrameCc, cap.parents);
  ok = ok && writer.finish();
  if (!ok && err != nullptr) *err = writer.error();
  return ok;
}

/// One-call synchronous checkpoint: mint/capture, scan, publish. Returns
/// the cut on success.
template <typename Backend>
std::optional<SnapshotCut> checkpoint_sync(Backend& backend, const std::string& path,
                                           std::string* err) {
  if constexpr (kStreamSnapshotBackend<Backend>) {
    const StreamCapture cap = capture_stream(backend);
    if (!write_stream_snapshot(backend, cap, path, err)) return std::nullopt;
    return cap.cut;
  } else {
    HeldCut<Backend> held(backend);
    if (!write_kv_snapshot(backend, held.cut(), path, err)) return std::nullopt;
    return held.cut();
  }
}

/// Rebuild `backend` (freshly constructed, not yet serving) from a
/// published snapshot. Fail-closed: any reader diagnosis, shape mismatch
/// (kind, shard count, config digest), out-of-range shard, or entry round
/// past the header's cut aborts with `*err` set — discard the backend in
/// that case, nothing guarantees a partial rebuild is coherent. On success
/// the arbiter is re-seeded to the snapshot's round, so the first
/// post-restore batch commits at round + 1 and committed rounds stay
/// strictly increasing across the restart.
template <typename Backend>
bool restore(Backend& backend, const std::string& path, std::string* err) {
  const auto fail = [err](std::string msg) {
    if (err != nullptr) *err = "snap::restore: " + std::move(msg);
    return false;
  };
  SnapshotReader reader(path);
  if (!reader.open()) return fail(reader.error());
  const SnapshotHeader& h = reader.header();
  if (h.kind != Backend::kSnapshotKind) {
    return fail("snapshot kind " + std::to_string(h.kind) + " does not match backend");
  }
  if (h.shards != backend.snapshot_shards()) {
    return fail("snapshot has " + std::to_string(h.shards) + " shards, backend has " +
                std::to_string(backend.snapshot_shards()));
  }
  if (h.config_digest != backend.config_digest()) {
    return fail("config digest mismatch: snapshot came from a differently-shaped server");
  }
  SnapshotFrame frame;
  while (reader.next(frame)) {
    if (frame.shard >= h.shards) {
      return fail("frame shard " + std::to_string(frame.shard) + " out of range");
    }
    for (const SnapshotEntry& e : frame.entries) {
      if (frame.kind == kFrameKv) {
        if (e.c > h.round) {
          return fail("entry round " + std::to_string(e.c) + " past the cut " +
                      std::to_string(h.round));
        }
        if (!backend.restore_entry(frame.shard, e.a, e.b, e.c)) {
          return fail("restore_entry refused key " + std::to_string(e.a));
        }
      } else {  // kFrameCc — reader admits no other kinds
        if constexpr (kStreamSnapshotBackend<Backend>) {
          if (!backend.restore_cc_entry(static_cast<std::uint32_t>(e.a),
                                        static_cast<std::uint32_t>(e.b))) {
            return fail("restore_cc_entry refused vertex " + std::to_string(e.a));
          }
        } else {
          return fail("cc frame in a kv snapshot");
        }
      }
    }
  }
  if (!reader.finished()) return fail(reader.error());
  if constexpr (kStreamSnapshotBackend<Backend>) backend.finish_restore();
  backend.reseed_round(h.round);
  return true;
}

/// Background checkpointer: begin() pins the consistent view on the
/// calling thread (mint for KV, full capture for stream) and hands the
/// scan+write to a worker thread, so the serve pump never runs file I/O.
/// One checkpoint in flight at a time; wait() collects the verdict.
template <typename Backend>
class Checkpointer {
 public:
  Checkpointer(Backend& backend, std::string dir)
      : backend_(backend), dir_(std::move(dir)) {}

  ~Checkpointer() { (void)wait(nullptr); }

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Published path for a checkpoint at `round`.
  [[nodiscard]] std::string path_for(round_t round) const {
    return dir_ + "/snapshot-r" + std::to_string(round) + ".crcwsnap";
  }

  /// Mints the cut (KV: concurrent scan follows in the worker; stream: the
  /// whole capture happens here) and starts the background write. Returns
  /// the cut, or nullopt with *err if one is already in flight.
  std::optional<SnapshotCut> begin(std::string* err) {
    if (running()) {
      if (err != nullptr) *err = "Checkpointer: a checkpoint is already in flight";
      return std::nullopt;
    }
    (void)wait(nullptr);  // collect a finished worker before reuse
    done_.store(false, std::memory_order_release);
    bg_ok_ = false;
    bg_err_.clear();
    if constexpr (kStreamSnapshotBackend<Backend>) {
      auto cap = std::make_unique<StreamCapture>(capture_stream(backend_));
      const SnapshotCut cut = cap->cut;
      last_path_ = path_for(cut.round);
      worker_ = std::thread([this, cap = std::move(cap)] {
        bg_ok_ = write_stream_snapshot(backend_, *cap, last_path_, &bg_err_);
        done_.store(true, std::memory_order_release);
      });
      return cut;
    } else {
      const SnapshotCut cut = backend_.mint_cut();
      last_path_ = path_for(cut.round);
      worker_ = std::thread([this, cut] {
        bg_ok_ = write_kv_snapshot(backend_, cut, last_path_, &bg_err_);
        backend_.release_cut();  // resume grow/reclaim even on failure
        done_.store(true, std::memory_order_release);
      });
      return cut;
    }
  }

  /// True while a begun checkpoint has not finished its write.
  [[nodiscard]] bool running() const noexcept {
    return worker_.joinable() && !done_.load(std::memory_order_acquire);
  }

  /// Joins the worker (blocking if needed); true iff the last begun
  /// checkpoint published. Idempotent.
  bool wait(std::string* err) {
    if (worker_.joinable()) worker_.join();
    if (!bg_ok_ && err != nullptr && !bg_err_.empty()) *err = bg_err_;
    return bg_ok_;
  }

  /// The path the last begun checkpoint publishes to.
  [[nodiscard]] const std::string& last_path() const noexcept { return last_path_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  Backend& backend_;
  std::string dir_;
  std::thread worker_;
  std::atomic<bool> done_{false};
  bool bg_ok_ = false;
  std::string bg_err_;
  std::string last_path_;
};

}  // namespace crcw::snap
