#include "algorithms/dispatch.hpp"

#include <stdexcept>

#include "core/instrumented.hpp"

namespace crcw::algo {
namespace {

[[noreturn]] void unknown(std::string_view kernel, std::string_view method) {
  throw std::invalid_argument("unknown " + std::string(kernel) + " method '" +
                              std::string(method) + "'");
}

using ICasLt = InstrumentedPolicy<CasLtPolicy>;
using IGate = InstrumentedPolicy<GatekeeperPolicy>;
using IGateSkip = InstrumentedPolicy<GatekeeperSkipPolicy>;

/// Runs `fn` with new ContentionSites redirected into a private registry
/// and returns everything they counted (sites die with the kernel's
/// arbiters; the registry retains their totals).
template <typename Fn>
obs::ContentionTotals profiled(Fn&& fn) {
  obs::MetricsRegistry local;
  const obs::ScopedRegistry scoped(local);
  fn();
  return local.totals();
}

}  // namespace

std::vector<std::string> max_methods() {
  return {"naive", "gatekeeper", "gatekeeper-skip", "caslt", "critical"};
}

std::vector<std::string> bfs_methods() {
  return {"naive", "gatekeeper", "gatekeeper-skip", "caslt", "critical"};
}

std::vector<std::string> cc_methods() {
  return {"gatekeeper", "gatekeeper-skip", "caslt", "critical", "min-hook"};
}

std::vector<std::string> dedup_methods() { return {"caslt", "sort"}; }

std::vector<std::string> semijoin_methods() { return {"caslt", "serial"}; }

std::vector<std::string> triangle_methods() { return {"caslt", "serial"}; }

std::uint64_t run_max(std::string_view method, std::span<const std::uint32_t> list,
                      const MaxOptions& opts) {
  if (method == "naive") return max_index_naive(list, opts);
  if (method == "gatekeeper") return max_index_gatekeeper(list, opts);
  if (method == "gatekeeper-skip") return max_index_gatekeeper_skip(list, opts);
  if (method == "caslt") return max_index_caslt(list, opts);
  if (method == "critical") return max_index_critical(list, opts);
  if (method == "reduce") return max_index_reduce(list, opts);
  unknown("max", method);
}

BfsResult run_bfs(std::string_view method, const graph::Csr& g, graph::vertex_t source,
                  const BfsOptions& opts) {
  if (method == "naive") return bfs_naive(g, source, opts);
  if (method == "gatekeeper") return bfs_gatekeeper(g, source, opts);
  if (method == "gatekeeper-skip") return bfs_gatekeeper_skip(g, source, opts);
  if (method == "caslt") return bfs_caslt(g, source, opts);
  if (method == "critical") return bfs_critical(g, source, opts);
  // Structural variants beyond the paper's comparison (all CAS-LT based).
  if (method == "frontier") return bfs_frontier(g, source, opts);
  if (method == "direction-optimizing") return bfs_direction_optimizing(g, source, opts);
  unknown("bfs", method);
}

CcResult run_cc(std::string_view method, const graph::Csr& g, const CcOptions& opts) {
  if (method == "gatekeeper") return cc_gatekeeper(g, opts);
  if (method == "gatekeeper-skip") return cc_gatekeeper_skip(g, opts);
  if (method == "caslt") return cc_caslt(g, opts);
  if (method == "critical") return cc_critical(g, opts);
  if (method == "min-hook") return cc_min_hook(g, opts);
  unknown("cc", method);
}

DedupResult run_dedup(std::string_view method, std::span<const std::uint64_t> keys,
                      const DedupOptions& opts) {
  if (method == "caslt") return dedup_caslt(keys, opts);
  if (method == "sort") return dedup_sort(keys, opts);
  unknown("dedup", method);
}

std::vector<SemijoinMatch> run_semijoin(std::string_view method,
                                        std::span<const std::uint64_t> probe_keys,
                                        std::span<const std::uint64_t> build_keys,
                                        const SemijoinOptions& opts) {
  if (method == "caslt") return semijoin_caslt(probe_keys, build_keys, opts);
  if (method == "serial") return semijoin_serial(probe_keys, build_keys, opts);
  unknown("semijoin", method);
}

std::uint64_t run_triangles(std::string_view method, const graph::Csr& g,
                            const TriangleOptions& opts) {
  if (method == "caslt") return triangle_count_caslt(g, opts);
  if (method == "serial") return triangle_count_serial(g, opts);
  unknown("triangles", method);
}

std::optional<obs::ContentionTotals> profile_max(std::string_view method,
                                                 std::span<const std::uint32_t> list,
                                                 const MaxOptions& opts) {
  if (method == "caslt") {
    return profiled([&] { (void)detail::max_index_kernel<ICasLt>(list, opts); });
  }
  if (method == "gatekeeper") {
    return profiled([&] { (void)detail::max_index_kernel<IGate>(list, opts); });
  }
  if (method == "gatekeeper-skip") {
    return profiled([&] { (void)detail::max_index_kernel<IGateSkip>(list, opts); });
  }
  return std::nullopt;
}

std::optional<obs::ContentionTotals> profile_bfs(std::string_view method,
                                                 const graph::Csr& g,
                                                 graph::vertex_t source,
                                                 const BfsOptions& opts) {
  if (method == "caslt") {
    return profiled([&] { (void)detail::bfs_kernel<ICasLt>(g, source, opts); });
  }
  if (method == "gatekeeper") {
    return profiled([&] { (void)detail::bfs_kernel<IGate>(g, source, opts); });
  }
  if (method == "gatekeeper-skip") {
    return profiled([&] { (void)detail::bfs_kernel<IGateSkip>(g, source, opts); });
  }
  // The frontier kernel additionally reports its slot-allocation RMWs
  // (a "frontier-slots" site: attempts = slots granted, atomics = shared
  // fetch_adds — one per chunk of grants).
  if (method == "frontier") {
    return profiled([&] { (void)detail::bfs_frontier_kernel<ICasLt>(g, source, opts); });
  }
  return std::nullopt;
}

std::optional<obs::ContentionTotals> profile_cc(std::string_view method,
                                                const graph::Csr& g,
                                                const CcOptions& opts) {
  if (method == "caslt") {
    return profiled([&] { (void)detail::cc_kernel<ICasLt>(g, opts); });
  }
  if (method == "gatekeeper") {
    return profiled([&] { (void)detail::cc_kernel<IGate>(g, opts); });
  }
  if (method == "gatekeeper-skip") {
    return profiled([&] { (void)detail::cc_kernel<IGateSkip>(g, opts); });
  }
  return std::nullopt;
}

std::optional<obs::ContentionTotals> profile_dedup(std::string_view method,
                                                   std::span<const std::uint64_t> keys,
                                                   const DedupOptions& opts) {
  if (method != "caslt") return std::nullopt;
  DedupOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)dedup_caslt(keys, instrumented); });
}

std::optional<obs::ContentionTotals> profile_semijoin(
    std::string_view method, std::span<const std::uint64_t> probe_keys,
    std::span<const std::uint64_t> build_keys, const SemijoinOptions& opts) {
  if (method != "caslt") return std::nullopt;
  SemijoinOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)semijoin_caslt(probe_keys, build_keys, instrumented); });
}

std::optional<obs::ContentionTotals> profile_triangles(std::string_view method,
                                                       const graph::Csr& g,
                                                       const TriangleOptions& opts) {
  if (method != "caslt") return std::nullopt;
  TriangleOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)triangle_count_caslt(g, instrumented); });
}

}  // namespace crcw::algo
