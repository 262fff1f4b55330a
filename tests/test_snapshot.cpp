// src/snap: round-consistent cuts, scan digests, checkpoint/restore, the
// kill/restore audit over real TCP, and the fail-closed hostility sweep on
// the snapshot file reader (truncation at every proper prefix, bit flips,
// wrong version/kind/shape, trailing bytes).
#include "snap/checkpointer.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "stream/stream_scheduler.hpp"

namespace crcw::snap {
namespace {

using serve::Op;
using serve::Result;
using serve::ServeConfig;
using serve::ServeSession;
using serve::ShardedServeSession;
using StreamSession = serve::BasicServeSession<stream::StreamScheduler>;

[[nodiscard]] std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "crcw_snap_" + name;
  mkdir(dir.c_str(), 0755);  // exists-ok: tests may rerun in one tree
  return dir;
}

[[nodiscard]] std::vector<unsigned char> slurp(const std::string& path) {
  std::vector<unsigned char> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  unsigned char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// -- cut semantics -----------------------------------------------------------

TEST(Snapshot, CutExcludesRoundsCommittedAfterMint) {
  ServeSession session;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    ASSERT_TRUE(session.call(Op::upsert(k, 100 + k)).won);
  }
  auto& backend = session.backend();
  const SnapshotCut cut = backend.mint_cut();
  EXPECT_EQ(backend.cuts_held(), 1u);

  // Writers keep committing while the cut is held (held-cut discipline:
  // only grow/reclaim is parked, never the write path).
  const Result late = session.call(Op::upsert(99, 999));
  ASSERT_TRUE(late.won);
  EXPECT_GT(late.round, cut.round);

  std::map<std::uint64_t, std::uint64_t> seen;
  backend.scan_shard_at(0, cut.round,
                        [&seen](std::uint64_t k, std::uint64_t v, round_t) {
                          seen[k] = v;
                        });
  backend.release_cut();
  EXPECT_EQ(backend.cuts_held(), 0u);

  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.count(99), 0u) << "post-cut write must not appear at the cut";
  for (std::uint64_t k = 1; k <= 8; ++k) EXPECT_EQ(seen[k], 100 + k);
}

TEST(Snapshot, ScanDigestStableWhenQuiescedAndCountsEntries) {
  ShardedServeSession session(ServeConfig{}.with_shards(4));
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(session.call(Op::upsert(k * 7 + 1, k)).won);
  }
  const ScanDigest a = scan_digest(session.backend());
  const ScanDigest b = scan_digest(session.backend());
  EXPECT_EQ(a.entries, 64u);
  EXPECT_EQ(a.cut.round, b.cut.round) << "no batches between quiesced scans";
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(session.backend().cuts_held(), 0u) << "scan_digest releases its cut";
}

// -- checkpoint / restore round trips ----------------------------------------

TEST(Snapshot, CheckpointRestoreRoundTripBatch) {
  const std::string path = temp_dir("batch") + "/rt.crcwsnap";
  ServeSession old_session;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(old_session.call(Op::upsert(k, k * k)).won);
  }
  const ScanDigest before = scan_digest(old_session.backend());
  std::string err;
  const auto cut = checkpoint_sync(old_session.backend(), path, &err);
  ASSERT_TRUE(cut.has_value()) << err;
  EXPECT_EQ(cut->round, before.cut.round);

  ServeSession fresh;
  ASSERT_TRUE(restore(fresh.backend(), path, &err)) << err;
  EXPECT_EQ(scan_digest(fresh.backend()).digest, before.digest);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    const Result r = fresh.call(Op::lookup(k));
    EXPECT_TRUE(r.won);
    EXPECT_EQ(r.value, k * k);
  }
  // Arbiter continuity: the first post-restore write commits strictly
  // after the snapshot's cut.
  EXPECT_GT(fresh.call(Op::upsert(7, 1)).round, cut->round);
}

TEST(Snapshot, CheckpointRestoreRoundTripSharded) {
  const std::string path = temp_dir("sharded") + "/rt.crcwsnap";
  const ServeConfig cfg = ServeConfig{}.with_shards(4);
  ShardedServeSession old_session(cfg);
  for (std::uint64_t k = 0; k < 256; ++k) {
    ASSERT_TRUE(old_session.call(Op::upsert(k * 31 + 5, ~k)).won);
  }
  // Erased keys must not ride into the file.
  ASSERT_TRUE(old_session.call(Op::erase(5)).won);
  const ScanDigest before = scan_digest(old_session.backend());
  std::string err;
  const auto cut = checkpoint_sync(old_session.backend(), path, &err);
  ASSERT_TRUE(cut.has_value()) << err;

  ShardedServeSession fresh(cfg);
  ASSERT_TRUE(restore(fresh.backend(), path, &err)) << err;
  EXPECT_EQ(scan_digest(fresh.backend()).digest, before.digest);
  EXPECT_FALSE(fresh.call(Op::lookup(5)).won);
  for (std::uint64_t k = 1; k < 256; ++k) {
    EXPECT_EQ(fresh.call(Op::lookup(k * 31 + 5)).value, ~k);
  }
  EXPECT_GT(fresh.call(Op::upsert(1, 1)).round, cut->round);
}

TEST(Snapshot, StreamCheckpointRestoresConnectivity) {
  const std::string path = temp_dir("stream") + "/rt.crcwsnap";
  const ServeConfig cfg =
      ServeConfig{}.with_vertices(1 << 10).with_expected_keys(1 << 12);
  StreamSession old_session(cfg);
  // Two components: a path 1-2-3-4 and a triangle 10-11-12 (weighted).
  for (auto [u, v] : {std::pair{1u, 2u}, {2u, 3u}, {3u, 4u}, {10u, 11u},
                      {11u, 12u}, {10u, 12u}}) {
    ASSERT_TRUE(old_session.call(Op::edge_insert(u, v, u * 100 + v)).won);
  }
  const ScanDigest before = scan_digest(old_session.backend());
  std::string err;
  const auto cut = checkpoint_sync(old_session.backend(), path, &err);
  ASSERT_TRUE(cut.has_value()) << err;

  StreamSession fresh(cfg);
  ASSERT_TRUE(restore(fresh.backend(), path, &err)) << err;
  EXPECT_EQ(scan_digest(fresh.backend()).digest, before.digest);
  EXPECT_EQ(fresh.call(Op::same_component(1, 4)).value, 1u);
  EXPECT_EQ(fresh.call(Op::same_component(1, 10)).value, 0u);
  EXPECT_EQ(fresh.call(Op::component_size(11)).value, 3u);
  EXPECT_EQ(fresh.call(Op::lookup(ds::pack_edge(1, 2))).value, 102u);
  // The restored forest must keep answering through further mutation.
  ASSERT_TRUE(fresh.call(Op::edge_erase(11, 12)).won);
  EXPECT_EQ(fresh.call(Op::same_component(11, 12)).value, 1u) << "triangle survives";
  EXPECT_GT(fresh.call(Op::edge_insert(4, 5)).round, cut->round);
}

// -- the kill/restore audit over real TCP ------------------------------------

TEST(Snapshot, KillRestoreAuditOverWire) {
  const std::string dir = temp_dir("audit");
  const ServeConfig cfg = ServeConfig{}.with_shards(2).with_snapshot_dir(dir);
  std::string snapshot_path;
  std::uint64_t digest_at_cut = 0;
  round_t cut_round = 0;

  {  // server A: build state, publish a checkpoint, record the witness.
    ShardedServeSession session(cfg);
    session.start_pump();
    serve::BasicWireServer<serve::ShardedScheduler> server(session,
                                                           serve::WireConfig{});
    server.start();
    ASSERT_NE(server.port(), 0);
    serve::WireClient client("127.0.0.1", server.port());
    for (std::uint64_t k = 1; k <= 128; ++k) {
      ASSERT_TRUE(client.call(Op::upsert(k, k * 3)).won);
    }
    const serve::wire::Response created = client.snapshot_create();
    ASSERT_TRUE(created.won) << "checkpoint must publish";
    cut_round = created.round;
    snapshot_path =
        dir + "/snapshot-r" + std::to_string(cut_round) + ".crcwsnap";
    const serve::wire::Response scanned = client.snapshot_scan();
    ASSERT_TRUE(scanned.won);
    EXPECT_EQ(scanned.round, cut_round) << "quiesced: scan cut == create cut";
    digest_at_cut = scanned.value;
    // Snapshot ops are not writes: RYW lookups keep working afterwards.
    EXPECT_EQ(client.call(Op::lookup(1)).value, 3u);
    server.stop();
    session.stop_pump();
  }  // the "kill": server and session destroyed, only the file survives

  {  // server B: restore, then answer identically at the cut.
    ShardedServeSession session(cfg);
    std::string err;
    ASSERT_TRUE(restore(session.backend(), snapshot_path, &err)) << err;
    session.start_pump();
    serve::BasicWireServer<serve::ShardedScheduler> server(session,
                                                           serve::WireConfig{});
    server.start();
    serve::WireClient client("127.0.0.1", server.port());
    const serve::wire::Response scanned = client.snapshot_scan();
    ASSERT_TRUE(scanned.won);
    EXPECT_EQ(scanned.value, digest_at_cut)
        << "restored server must answer the cut bit-for-bit";
    for (std::uint64_t k = 1; k <= 128; ++k) {
      EXPECT_EQ(client.call(Op::lookup(k)).value, k * 3);
    }
    // Committed rounds stay strictly increasing across the restart.
    const serve::wire::Response w = client.call(Op::upsert(500, 1));
    EXPECT_TRUE(w.won);
    EXPECT_GT(w.round, cut_round);
    server.stop();
    session.stop_pump();
  }
}

// -- checkpointer lifecycle ---------------------------------------------------

TEST(Snapshot, CheckpointerPublishesInBackgroundAndIsReusable) {
  const std::string dir = temp_dir("ckpt");
  ServeSession session;
  for (std::uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(session.call(Op::upsert(k + 1, k)).won);
  }
  Checkpointer<serve::ShardedScheduler> ckpt(session.backend(), dir);
  std::string err;
  const auto cut = ckpt.begin(&err);
  ASSERT_TRUE(cut.has_value()) << err;
  ASSERT_TRUE(ckpt.wait(&err)) << err;
  EXPECT_EQ(session.backend().cuts_held(), 0u) << "worker released its cut";
  EXPECT_FALSE(slurp(ckpt.last_path()).empty());

  // Reusable: a later checkpoint lands in a new file named by its round.
  ASSERT_TRUE(session.call(Op::upsert(1000, 1)).won);
  const auto cut2 = ckpt.begin(&err);
  ASSERT_TRUE(cut2.has_value()) << err;
  EXPECT_GT(cut2->round, cut->round);
  ASSERT_TRUE(ckpt.wait(&err)) << err;
  EXPECT_NE(ckpt.last_path(), ckpt.path_for(cut->round));

  ServeSession fresh;
  ASSERT_TRUE(restore(fresh.backend(), ckpt.last_path(), &err)) << err;
  EXPECT_EQ(fresh.call(Op::lookup(1000)).value, 1u);
}

// -- snapshot ops never enter a round -----------------------------------------

TEST(Snapshot, SchedulersRejectSnapshotOpsAtAdmission) {
  ServeSession batch;
  EXPECT_FALSE(batch.call(Op::snapshot_create()).won);
  EXPECT_FALSE(batch.call(Op::snapshot_scan()).won);
  ShardedServeSession sharded(ServeConfig{}.with_shards(2));
  EXPECT_FALSE(sharded.call(Op::snapshot_scan()).won);
  StreamSession stream(ServeConfig{}.with_vertices(64).with_expected_keys(256));
  EXPECT_FALSE(stream.call(Op::snapshot_create()).won);
}

TEST(Snapshot, WireCreateWithoutConfiguredDirRefusesButScanAnswers) {
  ServeSession session;  // no with_snapshot_dir
  ASSERT_TRUE(session.call(Op::upsert(3, 33)).won);
  session.start_pump();
  serve::BasicWireServer<serve::ShardedScheduler> server(session, serve::WireConfig{});
  server.start();
  serve::WireClient client("127.0.0.1", server.port());
  EXPECT_FALSE(client.snapshot_create().won) << "no dir → create disabled";
  const serve::wire::Response scanned = client.snapshot_scan();
  EXPECT_TRUE(scanned.won);
  EXPECT_EQ(scanned.value, scan_digest(session.backend()).digest);
  server.stop();
  session.stop_pump();
}

// -- restore shape checks -----------------------------------------------------

TEST(Snapshot, RestoreRefusesKindShardAndDigestMismatch) {
  const std::string dir = temp_dir("shape");
  ServeSession kv;
  ASSERT_TRUE(kv.call(Op::upsert(1, 1)).won);
  std::string err;
  const std::string kv_path = dir + "/kv.crcwsnap";
  ASSERT_TRUE(checkpoint_sync(kv.backend(), kv_path, &err).has_value()) << err;

  // Kind mismatch: a KV snapshot into a stream backend.
  StreamSession stream(ServeConfig{}.with_vertices(64).with_expected_keys(256));
  err.clear();
  EXPECT_FALSE(restore(stream.backend(), kv_path, &err));
  EXPECT_NE(err.find("kind"), std::string::npos) << err;

  // Shard-count mismatch: a 4-shard snapshot into a 2-shard server.
  ShardedServeSession four(ServeConfig{}.with_shards(4));
  ASSERT_TRUE(four.call(Op::upsert(1, 1)).won);
  const std::string four_path = dir + "/four.crcwsnap";
  ASSERT_TRUE(checkpoint_sync(four.backend(), four_path, &err).has_value()) << err;
  ShardedServeSession two(ServeConfig{}.with_shards(2));
  err.clear();
  EXPECT_FALSE(restore(two.backend(), four_path, &err));
  EXPECT_NE(err.find("shards"), std::string::npos) << err;

  // Config-digest mismatch with kind and shards agreeing: streams of
  // different vertex counts.
  StreamSession big(ServeConfig{}.with_vertices(128).with_expected_keys(256));
  ASSERT_TRUE(big.call(Op::edge_insert(1, 2)).won);
  const std::string big_path = dir + "/big.crcwsnap";
  ASSERT_TRUE(checkpoint_sync(big.backend(), big_path, &err).has_value()) << err;
  StreamSession small(ServeConfig{}.with_vertices(64).with_expected_keys(256));
  err.clear();
  EXPECT_FALSE(restore(small.backend(), big_path, &err));
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST(Snapshot, RestoreRefusesMisroutedAndOutOfRangeShards) {
  const std::string dir = temp_dir("route");
  ShardedServeSession session(ServeConfig{}.with_shards(2));
  const std::uint64_t digest = session.backend().config_digest();

  {  // The same key claimed by both shards: one of them must be refused.
    SnapshotWriter w(dir + "/misroute.crcwsnap");
    ASSERT_TRUE(w.open(SnapshotHeader{kFormatVersion, kKindKv, 3, 2, digest}));
    ASSERT_TRUE(w.append(kFrameKv, 0, {SnapshotEntry{42, 1, 1}}));
    ASSERT_TRUE(w.append(kFrameKv, 1, {SnapshotEntry{42, 1, 1}}));
    ASSERT_TRUE(w.finish());
    std::string err;
    EXPECT_FALSE(restore(session.backend(), dir + "/misroute.crcwsnap", &err));
    EXPECT_NE(err.find("refused"), std::string::npos) << err;
  }
  {  // A frame naming a shard past the header's count.
    SnapshotWriter w(dir + "/oob.crcwsnap");
    ASSERT_TRUE(w.open(SnapshotHeader{kFormatVersion, kKindKv, 3, 2, digest}));
    ASSERT_TRUE(w.append(kFrameKv, 7, {SnapshotEntry{1, 1, 1}}));
    ASSERT_TRUE(w.finish());
    ShardedServeSession fresh(ServeConfig{}.with_shards(2));
    std::string err;
    EXPECT_FALSE(restore(fresh.backend(), dir + "/oob.crcwsnap", &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  }
  {  // An entry whose committed round lies past the header's cut.
    SnapshotWriter w(dir + "/future.crcwsnap");
    ASSERT_TRUE(w.open(SnapshotHeader{kFormatVersion, kKindKv, 3, 2, digest}));
    ASSERT_TRUE(w.append(kFrameKv, 0, {SnapshotEntry{2, 1, 9}}));
    ASSERT_TRUE(w.finish());
    ShardedServeSession fresh(ServeConfig{}.with_shards(2));
    std::string err;
    EXPECT_FALSE(restore(fresh.backend(), dir + "/future.crcwsnap", &err));
    EXPECT_NE(err.find("past the cut"), std::string::npos) << err;
  }
}

// -- file-level hostility: fail closed, with a diagnostic ---------------------

/// A small published snapshot to mutilate (one KV frame + end marker).
[[nodiscard]] std::string good_snapshot(const std::string& dir) {
  const std::string path = dir + "/good.crcwsnap";
  ServeSession session;
  for (std::uint64_t k = 1; k <= 5; ++k) {
    EXPECT_TRUE(session.call(Op::upsert(k, k + 10)).won);
  }
  std::string err;
  EXPECT_TRUE(checkpoint_sync(session.backend(), path, &err).has_value()) << err;
  return path;
}

TEST(Snapshot, TruncationAtEveryProperPrefixFailsClosed) {
  const std::string dir = temp_dir("prefix");
  const std::vector<unsigned char> whole = slurp(good_snapshot(dir));
  ASSERT_GT(whole.size(), kHeaderBytes);
  const std::string cut_path = dir + "/cut.crcwsnap";
  for (std::size_t len = 0; len < whole.size(); ++len) {
    spit(cut_path, {whole.begin(), whole.begin() + static_cast<long>(len)});
    ServeSession fresh;
    std::string err;
    EXPECT_FALSE(restore(fresh.backend(), cut_path, &err)) << "prefix " << len;
    EXPECT_FALSE(err.empty()) << "prefix " << len << " must carry a diagnostic";
  }
}

TEST(Snapshot, SingleBitFlipAnywhereFailsClosed) {
  const std::string dir = temp_dir("bitflip");
  const std::vector<unsigned char> whole = slurp(good_snapshot(dir));
  const std::string flip_path = dir + "/flip.crcwsnap";
  for (std::size_t i = 0; i < whole.size(); ++i) {
    std::vector<unsigned char> bad = whole;
    bad[i] ^= 0x01;
    spit(flip_path, bad);
    ServeSession fresh;
    std::string err;
    // Every byte is covered by the header CRC, a frame CRC, or a length
    // prefix the CRC then contradicts — nothing may slip through.
    EXPECT_FALSE(restore(fresh.backend(), flip_path, &err)) << "byte " << i;
    EXPECT_FALSE(err.empty()) << "byte " << i;
  }
}

TEST(Snapshot, WrongVersionUnknownKindBadMagicAndTrailingBytesRefused) {
  const std::string dir = temp_dir("header");
  {  // Future format version, header CRC intact: named in the diagnostic.
    SnapshotWriter w(dir + "/v2.crcwsnap");
    ASSERT_TRUE(w.open(SnapshotHeader{kFormatVersion + 1, kKindKv, 1, 1, 0}));
    ASSERT_TRUE(w.finish());
    SnapshotReader r(dir + "/v2.crcwsnap");
    EXPECT_FALSE(r.open());
    EXPECT_NE(r.error().find("unsupported version"), std::string::npos) << r.error();
  }
  {  // Unknown snapshot kind, header CRC intact.
    SnapshotWriter w(dir + "/kind7.crcwsnap");
    ASSERT_TRUE(w.open(SnapshotHeader{kFormatVersion, 7, 1, 1, 0}));
    ASSERT_TRUE(w.finish());
    SnapshotReader r(dir + "/kind7.crcwsnap");
    EXPECT_FALSE(r.open());
    EXPECT_NE(r.error().find("unknown snapshot kind"), std::string::npos) << r.error();
  }
  const std::string good = good_snapshot(dir);
  {  // Corrupt magic fails before anything else is trusted.
    std::vector<unsigned char> bad = slurp(good);
    bad[0] ^= 0xff;
    spit(dir + "/magic.crcwsnap", bad);
    SnapshotReader r(dir + "/magic.crcwsnap");
    EXPECT_FALSE(r.open());
    EXPECT_NE(r.error().find("bad magic"), std::string::npos) << r.error();
  }
  {  // Bytes appended after the end marker: refused, not ignored.
    std::vector<unsigned char> bad = slurp(good);
    bad.push_back(0);
    spit(dir + "/trailing.crcwsnap", bad);
    ServeSession fresh;
    std::string err;
    EXPECT_FALSE(restore(fresh.backend(), dir + "/trailing.crcwsnap", &err));
    EXPECT_NE(err.find("trailing bytes"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace crcw::snap
