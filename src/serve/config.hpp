// ServeConfig — the one nested configuration object of src/serve.
//
// Before the sharded-service redesign the serve layer grew a passthrough
// sprawl: BatchConfig carried table knobs (expected_keys, max_load,
// reclaim_ratio, table_telemetry) that it only forwarded into
// ds::HashConfig, and a wire front end would have added a third pile.
// ServeConfig groups the knobs by the subsystem that consumes them:
//
//   ServeConfig{
//     .batch  = admission + round execution (BatchConfig),
//     .table  = the backing ConcurrentHashMap shards (TableConfig),
//     .shards = key-shard routing (ShardConfig; count 1 = one table),
//     .wire   = the TCP front end (WireConfig),
//   }
//
// `validated()` normalises (shard count to the next power of two) and
// throws std::invalid_argument on nonsense, so every engine constructor
// can assume a sane config; the fluent with_* builders keep one-liner
// call sites readable without aggregate-initialising four levels deep.
#pragma once

#include <omp.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "ds/hash_common.hpp"

namespace crcw::serve {

/// Admission-policy and round-execution knobs for one serving engine.
struct BatchConfig {
  /// Size trigger: close a batch once this many ops are pending; also the
  /// per-shard round cap (a shard that drained more is sliced into
  /// several rounds).
  std::uint64_t max_batch = 4096;
  /// Deadline trigger: close a non-empty batch once its oldest op has
  /// waited this long, so a trickle of traffic still commits promptly.
  std::uint64_t max_wait_us = 250;
  /// Executor width; 0 = omp_get_max_threads(). A round's OpenMP team is
  /// min(exec_threads, shards.count), one thread per shard; grow, reclaim
  /// and the stream's rebuild use the full width. A team of 1 runs
  /// strictly serial (no OpenMP region) — required under the raw-thread
  /// TSan stress tier.
  int exec_threads = 0;
  /// Admission lanes; 0 = hardware_concurrency clamped to [1, 16]. The
  /// round engine rounds this up to a multiple of the shard count so
  /// every shard owns the same number of lanes.
  int lanes = 0;
  /// Per-lane backpressure watermark; 0 = derived (max_batch, min 64).
  std::uint64_t lane_backlog = 0;
  /// Speculative spins before a blocked client/pump yields the core.
  int backoff_spins = 32;
  /// Latency-histogram sampling: every 2^shift-th op per client gets
  /// timestamped and recorded (0 = every op). A stamped op costs one clock
  /// read at enqueue; the round engine stamps admits and commits once per
  /// slice and shard pass, and folds its tallies into the histograms once
  /// per round. A shift of 4–8 also skips most enqueue clock reads; the
  /// p99s are then estimates over the sampled subset.
  int latency_sample_shift = 0;
  /// Attach the `serve` ContentionSite — and, on the key-value backend,
  /// one `serve-shard-<i>` site per shard (profile passes only).
  bool counters = false;

  [[nodiscard]] int resolved_threads() const noexcept {
    return exec_threads > 0 ? exec_threads : omp_get_max_threads();
  }
  [[nodiscard]] int resolved_lanes() const noexcept {
    if (lanes > 0) return lanes;
    const unsigned hc = std::thread::hardware_concurrency();
    return static_cast<int>(hc < 1 ? 1 : (hc > 16 ? 16 : hc));
  }
  [[nodiscard]] std::uint64_t resolved_lane_backlog() const noexcept {
    if (lane_backlog > 0) return lane_backlog;
    return max_batch < 64 ? 64 : max_batch;
  }
  [[nodiscard]] std::uint64_t sample_mask() const noexcept {
    return latency_sample_shift <= 0
               ? 0
               : (std::uint64_t{1} << (latency_sample_shift > 63 ? 63
                                                                 : latency_sample_shift)) -
                     1;
  }
};

/// Knobs of the backing table(s). With shards > 1 every shard gets these
/// same knobs; expected_keys is the TOTAL capacity, split across shards.
struct TableConfig {
  /// Initial capacity (keys, not buckets).
  std::uint64_t expected_keys = 1024;
  /// Load factor of the backing table (the ext_hash storm sweep's knob).
  double max_load = 0.5;
  /// Forwarded to HashConfig::reclaim_ratio: once tombstones reach this
  /// fraction of a shard, the pump rebuilds that shard (dropping
  /// tombstones and shrinking toward its live count) at the next batch
  /// boundary — with shards > 1 each shard decides independently.
  double reclaim_ratio = 0.25;
  /// Forwarded to HashConfig::reclaim_probe_p99: telemetry-driven reclaim
  /// trigger — the pump also rebuilds a shard once its observed
  /// probe-length p99 reaches this many buckets (0 = off; needs
  /// `telemetry`, since the signal comes from the table's own site).
  std::uint64_t reclaim_probe_p99 = 0;
  /// Forwarded to HashConfig::reclaim_fp_rate: reclaim once H2 false
  /// positives exceed this fraction of group loads (0.0 = off).
  double reclaim_fp_rate = 0.0;
  /// Forward HashConfig::telemetry to the backing table(s).
  bool telemetry = false;

  /// The per-table HashConfig this resolves to; `site_name` distinguishes
  /// shards ("serve-table", "serve-table-s1", …).
  [[nodiscard]] ds::HashConfig hash_config(std::string site_name) const {
    return ds::HashConfig{.max_load = max_load,
                          .reclaim_ratio = reclaim_ratio,
                          .reclaim_probe_p99 = reclaim_probe_p99,
                          .reclaim_fp_rate = reclaim_fp_rate,
                          .telemetry = telemetry,
                          .site_name = std::move(site_name)};
  }
};

/// Key-shard routing. One ConcurrentHashMap per shard; shard selection
/// takes the HIGH bits of ds::mix64(key) (bucket probing takes the low
/// bits, so shard choice and in-shard placement stay decorrelated).
struct ShardConfig {
  /// Shard count; validated() rounds up to a power of two. 1 = the
  /// one-table shape, whose rounds run on one thread: parallel rounds
  /// come from shards.
  int count = 1;
};

/// The TCP front end (serve_server.hpp). Only the server reads these.
struct WireConfig {
  /// Listen port; 0 = ephemeral (the bound port is reported by the
  /// server — the tests' and bench's loopback shape).
  std::uint16_t port = 0;
  /// Accept also non-loopback clients. Off by default: benches and tests
  /// talk over 127.0.0.1, and an all-interfaces listener should be an
  /// explicit deployment decision.
  bool bind_any = false;
  /// listen(2) backlog.
  int listen_backlog = 64;
  /// Decoder hard cap: a length prefix beyond this kills the connection
  /// (garbage framing defence; both sides use fixed-size frames far
  /// below it).
  std::uint32_t max_frame_bytes = 64 * 1024;
  /// Requests a connection handler admits per submit burst before it
  /// turns around and writes the replies.
  int io_batch = 256;
};

/// The streaming backend (src/stream): the vertex universe of the dynamic
/// graph and the sizing of its edge table. Only stream::StreamScheduler
/// reads these; KV backends ignore them.
struct StreamConfig {
  /// Vertex-id universe [0, vertices); edge ops and connectivity queries
  /// naming vertices outside it (or self-loops) are rejected at admission
  /// the same wait-free way the KV backends reject the sentinel key.
  std::uint32_t vertices = 1 << 16;
  /// Expected live edges — initial capacity of the shared edge table
  /// (0 = fall back to TableConfig::expected_keys).
  std::uint64_t expected_edges = 0;
};

/// The snapshot subsystem (src/snap). Only the wire server reads these:
/// a kSnapshotCreate request checkpoints into `dir`; with `dir` empty the
/// server answers the request `won = false` (snapshots not provisioned)
/// instead of writing anywhere implicit.
struct SnapConfig {
  /// Directory checkpoint files publish into (created by the operator,
  /// not the server). Empty = snapshot_create disabled.
  std::string dir;
};

struct ServeConfig {
  BatchConfig batch;
  TableConfig table;
  ShardConfig shards;
  WireConfig wire;
  StreamConfig stream;
  SnapConfig snap;

  /// Normalises (shard count → next power of two) and bounds-checks every
  /// field; throws std::invalid_argument naming the offender. Engine
  /// constructors call this, so a hand-built config is checked exactly
  /// once at the place it starts mattering.
  [[nodiscard]] ServeConfig validated() const {
    ServeConfig v = *this;
    if (v.batch.max_batch < 1) throw std::invalid_argument("serve: max_batch < 1");
    if (v.batch.max_wait_us < 1) throw std::invalid_argument("serve: max_wait_us < 1");
    if (v.batch.exec_threads < 0) throw std::invalid_argument("serve: exec_threads < 0");
    if (v.batch.lanes < 0) throw std::invalid_argument("serve: lanes < 0");
    if (v.batch.backoff_spins < 0) throw std::invalid_argument("serve: backoff_spins < 0");
    if (v.batch.latency_sample_shift < 0 || v.batch.latency_sample_shift > 63) {
      throw std::invalid_argument("serve: latency_sample_shift outside [0, 63]");
    }
    if (v.table.expected_keys < 1) v.table.expected_keys = 1;
    if (!(v.table.max_load > 0.0) || v.table.max_load >= 1.0) {
      throw std::invalid_argument("serve: max_load outside (0, 1)");
    }
    if (v.table.reclaim_ratio < 0.0 || v.table.reclaim_ratio >= v.table.max_load) {
      throw std::invalid_argument("serve: reclaim_ratio outside [0, max_load)");
    }
    if (v.table.reclaim_fp_rate < 0.0 || v.table.reclaim_fp_rate > 1.0) {
      throw std::invalid_argument("serve: reclaim_fp_rate outside [0, 1]");
    }
    if ((v.table.reclaim_probe_p99 != 0 || v.table.reclaim_fp_rate > 0.0) &&
        !v.table.telemetry) {
      throw std::invalid_argument("serve: signal-driven reclaim needs table.telemetry");
    }
    if (v.stream.vertices < 2) throw std::invalid_argument("serve: stream.vertices < 2");
    if (v.shards.count < 1) throw std::invalid_argument("serve: shards.count < 1");
    if (v.shards.count > (1 << 16)) throw std::invalid_argument("serve: shards.count > 65536");
    int pow2 = 1;
    while (pow2 < v.shards.count) pow2 <<= 1;
    v.shards.count = pow2;
    if (v.wire.listen_backlog < 1) throw std::invalid_argument("serve: listen_backlog < 1");
    if (v.wire.max_frame_bytes < 64) throw std::invalid_argument("serve: max_frame_bytes < 64");
    if (v.wire.io_batch < 1) throw std::invalid_argument("serve: io_batch < 1");
    return v;
  }

  // -- fluent builders (each returns a copy, so sweeps can fork a base) -----
  [[nodiscard]] ServeConfig with_max_batch(std::uint64_t n) const {
    ServeConfig c = *this;
    c.batch.max_batch = n;
    return c;
  }
  [[nodiscard]] ServeConfig with_max_wait_us(std::uint64_t us) const {
    ServeConfig c = *this;
    c.batch.max_wait_us = us;
    return c;
  }
  [[nodiscard]] ServeConfig with_exec_threads(int t) const {
    ServeConfig c = *this;
    c.batch.exec_threads = t;
    return c;
  }
  [[nodiscard]] ServeConfig with_counters(bool on = true) const {
    ServeConfig c = *this;
    c.batch.counters = on;
    return c;
  }
  [[nodiscard]] ServeConfig with_expected_keys(std::uint64_t keys) const {
    ServeConfig c = *this;
    c.table.expected_keys = keys;
    return c;
  }
  [[nodiscard]] ServeConfig with_shards(int count) const {
    ServeConfig c = *this;
    c.shards.count = count;
    return c;
  }
  [[nodiscard]] ServeConfig with_wire_port(std::uint16_t port) const {
    ServeConfig c = *this;
    c.wire.port = port;
    return c;
  }
  [[nodiscard]] ServeConfig with_vertices(std::uint32_t n) const {
    ServeConfig c = *this;
    c.stream.vertices = n;
    return c;
  }
  [[nodiscard]] ServeConfig with_expected_edges(std::uint64_t m) const {
    ServeConfig c = *this;
    c.stream.expected_edges = m;
    return c;
  }
  [[nodiscard]] ServeConfig with_snapshot_dir(std::string dir) const {
    ServeConfig c = *this;
    c.snap.dir = std::move(dir);
    return c;
  }
};

}  // namespace crcw::serve
