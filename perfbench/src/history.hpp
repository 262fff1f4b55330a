// Round-history checker: every run logs the ops it sent on a sample of
// keys (all writes and lookups of those keys, by every client) together
// with the Result each one observed, and checks them against the round
// semantics of the CAS-LT stack:
//
//   * each (key, round) has at most one winning write, and every write of
//     that (key, round) observed the winner's committed value;
//   * a lookup executed in round r saw the last winning write of a round
//     < r (or the prefilled value, or absence after a winning erase);
//   * after the run, the committed value of each logged key equals its
//     last winning write, or the key is absent after a winning erase.
//
// Read-your-writes is checked by the clients themselves (they know what
// they sent); see RywTracker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ds/hash_common.hpp"
#include "serve/op.hpp"

namespace perfbench {

// 32-bit fields keep a multi-million-entry log small: keys, values and
// rounds of every workload fit (the workload runners check the bounds).
struct HistoryEntry {
  std::uint32_t key = 0;
  std::uint32_t round = 0;
  std::uint32_t value = 0;     // the op's value (writes)
  std::uint32_t observed = 0;  // Result::value
  crcw::serve::OpKind kind = crcw::serve::OpKind::kLookup;
  bool won = false;
};

/// One client's log. Its storage is allocated and touched up front, so
/// logging never allocates inside the measured loop and the log's memory
/// does not depend on how full it gets. Once full, the log stops and is
/// marked truncated, and the checker falls back to the checks that hold on
/// any subset of a history (at most one winner per (key, round)).
class HistoryLog {
 public:
  explicit HistoryLog(std::size_t capacity = 0) : entries_(capacity) {}

  void add(const HistoryEntry& e) {
    if (size_ == entries_.size()) {
      truncated_ = true;
      return;
    }
    entries_[size_++] = e;
  }

  [[nodiscard]] std::span<const HistoryEntry> entries() const noexcept {
    return {entries_.data(), size_};
  }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

 private:
  std::vector<HistoryEntry> entries_;
  std::size_t size_ = 0;
  bool truncated_ = false;
};

/// Which keys get logged: a seeded 1-in-2^shift hash sample of the keys
/// from `hashed_from` up, plus explicitly named keys. Under Zipf the
/// hottest keys are the smallest, so excluding them from the hash sample
/// and naming one keeps a hot key's same-round contention in every log
/// while its size does not depend on which hot keys the seed happens to hash in.
struct KeySample {
  std::uint64_t salt = 0;
  unsigned shift = 0;
  std::uint64_t hashed_from = 0;
  std::vector<std::uint64_t> always;

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (std::find(always.begin(), always.end(), key) != always.end()) return true;
    if (key < hashed_from) return false;
    return (crcw::ds::mix64(key ^ salt) & ((std::uint64_t{1} << shift) - 1)) == 0;
  }
};

struct CheckReport {
  std::uint64_t entries = 0;
  std::uint64_t keys = 0;
  std::uint64_t violations = 0;
  bool truncated = false;  // value checks skipped: some log overflowed
  std::string first_violation;

  void fail(const std::string& what) {
    if (violations++ == 0) first_violation = what;
  }
  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

/// `prefill(key)` gives the committed value before the run (nullopt if
/// absent); `committed(key)` the value after it (read only when
/// `check_final`).
template <typename PrefillFn, typename CommittedFn>
CheckReport check_history(const std::vector<const HistoryLog*>& logs, PrefillFn&& prefill,
                          CommittedFn&& committed, bool check_final) {
  using crcw::serve::OpKind;
  CheckReport rep;
  std::unordered_map<std::uint64_t, std::vector<HistoryEntry>> by_key;
  for (const HistoryLog* log : logs) {
    rep.truncated = rep.truncated || log->truncated();
    for (const HistoryEntry& e : log->entries()) {
      by_key[e.key].push_back(e);
      ++rep.entries;
    }
  }
  rep.keys = by_key.size();

  for (auto& [key, hist] : by_key) {
    std::stable_sort(hist.begin(), hist.end(), [](const HistoryEntry& a, const HistoryEntry& b) {
      return a.round < b.round;
    });
    std::optional<std::uint64_t> state = prefill(key);  // committed before the current round
    std::size_t i = 0;
    while (i < hist.size()) {
      const std::uint64_t round = hist[i].round;
      std::size_t j = i;
      while (j < hist.size() && hist[j].round == round) ++j;
      // Lookups of this round read the state committed by rounds < round
      // (phase A runs before any write of the round).
      const HistoryEntry* winner = nullptr;
      for (std::size_t k = i; k < j; ++k) {
        const HistoryEntry& e = hist[k];
        if (e.kind == OpKind::kLookup) {
          if (rep.truncated) continue;
          const bool hit = state.has_value();
          if (e.won != hit || (hit && e.observed != *state)) {
            rep.fail("key " + std::to_string(key) + " round " + std::to_string(round) +
                     ": lookup saw " + (e.won ? std::to_string(e.observed) : "absent") +
                     ", committed before the round was " +
                     (hit ? std::to_string(*state) : "absent"));
          }
          continue;
        }
        if (!e.won) continue;
        if (winner != nullptr) {
          rep.fail("key " + std::to_string(key) + " round " + std::to_string(round) +
                   ": two winning writes");
        }
        winner = &e;
      }
      if (winner != nullptr && !rep.truncated) {
        const bool erased = winner->kind == OpKind::kErase;
        const std::uint64_t committed_value = erased ? 0 : winner->value;
        for (std::size_t k = i; k < j; ++k) {
          const HistoryEntry& e = hist[k];
          if (e.kind == OpKind::kLookup || e.won) continue;
          if (e.observed != committed_value) {
            rep.fail("key " + std::to_string(key) + " round " + std::to_string(round) +
                     ": losing write observed " + std::to_string(e.observed) +
                     ", winner committed " + std::to_string(committed_value));
          }
        }
        state = erased ? std::nullopt : std::optional<std::uint64_t>(winner->value);
      }
      i = j;
    }
    if (check_final && !rep.truncated) {
      const std::optional<std::uint64_t> now = committed(key);
      if (now != state) {
        rep.fail("key " + std::to_string(key) + ": committed " +
                 (now ? std::to_string(*now) : "absent") +
                 " after the run, last winning write " +
                 (state ? std::to_string(*state) : "erase"));
      }
    }
  }
  return rep;
}

/// Read-your-writes audit of one client: a lookup must execute in a round
/// strictly later than this client's last completed write on the key's
/// shard (the ClientSession / WireClient contract).
class RywTracker {
 public:
  explicit RywTracker(int shards) : last_write_(static_cast<std::size_t>(shards), 0) {}

  /// A write of this client completed in `round` on `shard`.
  void wrote(int shard, std::uint64_t round) {
    auto& slot = last_write_[static_cast<std::size_t>(shard)];
    slot = std::max(slot, round);
  }
  /// Snapshot taken when a window opens; lookups of the window compare against it.
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const { return last_write_; }

  static bool fresh(const std::vector<std::uint64_t>& snap, int shard, std::uint64_t round) {
    return round > snap[static_cast<std::size_t>(shard)];
  }

 private:
  std::vector<std::uint64_t> last_write_;
};

}  // namespace perfbench
