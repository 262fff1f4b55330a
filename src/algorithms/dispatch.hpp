// String-keyed dispatch over the concurrent-write methods — the seam the
// examples and figure benches use to select a variant at runtime
// (`--method caslt|gatekeeper|gatekeeper-skip|naive|critical`).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/dedup.hpp"
#include "algorithms/max.hpp"
#include "algorithms/semijoin.hpp"
#include "algorithms/triangle_count.hpp"
#include "obs/metrics.hpp"

namespace crcw::algo {

/// Methods available per kernel, in the order the paper discusses them.
[[nodiscard]] std::vector<std::string> max_methods();
[[nodiscard]] std::vector<std::string> bfs_methods();
[[nodiscard]] std::vector<std::string> cc_methods();  ///< no "naive": unsafe (§7.2)
// The ds/-table workloads (PR 4): hash-arbitrated concurrent writes.
[[nodiscard]] std::vector<std::string> dedup_methods();
[[nodiscard]] std::vector<std::string> semijoin_methods();
[[nodiscard]] std::vector<std::string> triangle_methods();

/// Dispatchers; throw std::invalid_argument for an unknown method name.
[[nodiscard]] std::uint64_t run_max(std::string_view method,
                                    std::span<const std::uint32_t> list,
                                    const MaxOptions& opts = {});
[[nodiscard]] BfsResult run_bfs(std::string_view method, const graph::Csr& g,
                                graph::vertex_t source, const BfsOptions& opts = {});
[[nodiscard]] CcResult run_cc(std::string_view method, const graph::Csr& g,
                              const CcOptions& opts = {});
[[nodiscard]] DedupResult run_dedup(std::string_view method,
                                    std::span<const std::uint64_t> keys,
                                    const DedupOptions& opts = {});
[[nodiscard]] std::vector<SemijoinMatch> run_semijoin(
    std::string_view method, std::span<const std::uint64_t> probe_keys,
    std::span<const std::uint64_t> build_keys, const SemijoinOptions& opts = {});
[[nodiscard]] std::uint64_t run_triangles(std::string_view method, const graph::Csr& g,
                                          const TriangleOptions& opts = {});

/// Contention profiles: run the method's kernel with instrumented tags
/// (InstrumentedPolicy<...>) under a private MetricsRegistry and return the
/// aggregated attempt/atomic/win counts. Untimed companions to run_* — the
/// counting itself costs RMWs, so never profile inside a timing loop.
/// Returns nullopt for methods without an instrumentable arbiter ("naive",
/// "critical", "reduce", "min-hook", "direction-optimizing"). The BFS
/// "frontier" profile adds a "frontier-slots" site whose atomics count the
/// slot-allocation RMWs (one per SlotAllocator refill); the gatekeepers
/// report reset_tags = Θ(N) per round.
[[nodiscard]] std::optional<obs::ContentionTotals> profile_max(
    std::string_view method, std::span<const std::uint32_t> list,
    const MaxOptions& opts = {});
[[nodiscard]] std::optional<obs::ContentionTotals> profile_bfs(
    std::string_view method, const graph::Csr& g, graph::vertex_t source,
    const BfsOptions& opts = {});
[[nodiscard]] std::optional<obs::ContentionTotals> profile_cc(
    std::string_view method, const graph::Csr& g, const CcOptions& opts = {});

/// Table-workload profiles: rerun the method with the ds/ table's telemetry
/// attached (probe counts land in `attempts`, claim/tag CASes in `atomics`,
/// committed keys in `wins`, chunk claims in `refills`, migrated buckets in
/// `reset_tags` — docs/architecture.md "ds layer"). nullopt for the serial
/// baselines, which have no table to instrument.
[[nodiscard]] std::optional<obs::ContentionTotals> profile_dedup(
    std::string_view method, std::span<const std::uint64_t> keys,
    const DedupOptions& opts = {});
[[nodiscard]] std::optional<obs::ContentionTotals> profile_semijoin(
    std::string_view method, std::span<const std::uint64_t> probe_keys,
    std::span<const std::uint64_t> build_keys, const SemijoinOptions& opts = {});
[[nodiscard]] std::optional<obs::ContentionTotals> profile_triangles(
    std::string_view method, const graph::Csr& g, const TriangleOptions& opts = {});

}  // namespace crcw::algo
