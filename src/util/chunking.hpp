// Centralised OpenMP chunk sizes for the irregular kernels.
//
// The scattered `schedule(dynamic, 64)` / `schedule(dynamic, 256)` magic
// numbers live here, with the reasoning attached:
//
//   * kFrontierChunk (64): frontier-shaped loops (bfs_frontier, kcore
//     peeling) iterate over vertices whose degrees differ by orders of
//     magnitude on skewed graphs, so static scheduling starves threads.
//     64 iterations per dynamic grab keeps the scheduler's shared cursor
//     off the profile (one RMW per 64 vertices) while still rebalancing
//     within a frontier of a few thousand vertices. Smaller chunks help
//     only when frontiers are tiny AND degrees are wildly skewed — at
//     which point the level is too short to matter.
//   * kBottomUpChunk (256): bottom-up BFS steps scan *all* vertices and
//     most iterations exit after one or two edge probes, so per-iteration
//     cost is small and uniform-ish; a larger chunk amortises scheduler
//     traffic. 256 ≈ 1 KiB of vertex ids per grab, a few cache lines of
//     CSR offsets.
//   * kSlotChunk (256): slots handed to a SlotAllocator lane per shared
//     fetch_add (core/slot_alloc.hpp). 256 divides the shared-cursor RMW
//     rate by 256 versus per-discovery fetch_add while bounding per-lane
//     waste (holes) to lanes×256 slots per round.
//   * kEdgeChunk (2^16): CSR slots per dynamic grab in edge-parallel sweeps
//     that walk the CSR in place (CC hooking). A chunk covers the same
//     number of edges wherever it starts, so one hub's list spreads over
//     several threads; each chunk pays one binary search over the offsets
//     for its first source, which 2^16 slots amortise to nothing, and a
//     2^24-slot graph still yields 256 grabs to balance over the team.
//
// The two vertex-loop chunks were sanity-checked against the
// ablation_schedule harness (static/dynamic/guided over the same irregular
// workload, its chunk passed through MachineConfig::chunk); re-run it when
// porting to new hardware. All four are compile-time constants.
#pragma once

#include <cstdint>

namespace crcw::util {

inline constexpr int kFrontierChunk = 64;
inline constexpr int kBottomUpChunk = 256;
inline constexpr std::uint64_t kSlotChunk = 256;
inline constexpr std::uint64_t kEdgeChunk = std::uint64_t{1} << 16;

}  // namespace crcw::util
