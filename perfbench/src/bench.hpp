// Declarations shared by the benchmark's translation units: workload
// specifications, generated inputs, run results, and the session helpers
// every workload and ladder rung uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "ds/hash_common.hpp"
#include "graph/csr.hpp"
#include "history.hpp"
#include "serve/config.hpp"
#include "serve/serve_session.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// One workload: its traffic model and the serving configuration it runs.
struct WorkloadSpec {
  std::string name;
  bool kv = true;               // false: cc-rmat (no KV traffic end to end)
  bool open_loop = false;       // kv-paced
  bool wire = false;            // kv-wire
  std::uint64_t universe = 0;   // prefilled keys [0, universe)
  double zipf = 0.0;            // key skew; 0 = uniform
  double lookup = 0.0;          // op mix (fractions; erase = 1 - lookup - upsert)
  double upsert = 0.0;
  int clients = 1;              // closed-loop client threads / wire connections
  std::uint64_t window = 0;     // ops in flight per client
  double offered_rate = 0.0;    // open loop: ops per second
  crcw::serve::ServeConfig cfg; // end-to-end serving configuration
  std::uint64_t ladder_round = 0;  // ops per round on the ladder rungs
  std::uint64_t graph_vertices = 0;  // the seeded R-MAT graph the cc phase solves
  std::uint64_t graph_edges = 0;
  ThreadBudget budget;
};

[[nodiscard]] WorkloadSpec make_spec(const std::string& name, int nproc);

struct Inputs {
  std::vector<OpStream> streams;  // one per client (kv-paced: the generator)
  OpStream ladder;                // the op stream every ladder rung replays
  crcw::graph::Csr graph_csr;     // the cc phase's graph (built by run_kv / run_cc)
  crcw::graph::EdgeList edges;    // cc-rmat: the R-MAT edge list set-up builds into graph_csr
  std::uint64_t hot_key = 0;      // the key always in the history sample
};

[[nodiscard]] Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed);
/// The seeded R-MAT graph every workload's cc phase solves.
[[nodiscard]] crcw::graph::EdgeList generate_graph(const WorkloadSpec& spec,
                                                   std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  std::vector<Metric> info;     // printed beside them, not part of the contract
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // violated invariants; any → incorrect

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back(Metric{name, value, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
};

/// The value every prefilled key starts with (nonzero, seeded).
[[nodiscard]] inline std::uint64_t prefill_value(std::uint64_t key, std::uint64_t seed) {
  return (crcw::ds::mix64(key ^ (seed * 0x9e3779b97f4a7c15ULL)) & 0xffffffffULL) | 1;
}

/// Loads keys [0, universe) through the session's public submit path.
template <typename Session>
void prefill(Session& session, std::uint64_t universe, std::uint64_t seed) {
  constexpr std::size_t kChunk = 1 << 15;
  std::vector<crcw::serve::OpFuture> futures(kChunk);
  for (std::uint64_t base = 0; base < universe; base += kChunk) {
    const std::uint64_t end = std::min<std::uint64_t>(universe, base + kChunk);
    for (std::uint64_t k = base; k < end; ++k) {
      session.submit(crcw::serve::Op::upsert(k, prefill_value(k, seed)), futures[k - base]);
    }
    session.flush();
  }
}

// Workload runners (workloads.cpp). Each fills `res` with the end-to-end
// metrics (untraced) or the per-layer metrics (traced).
void run_kv(const WorkloadSpec& spec, Inputs& in, const Options& opt, RunResult& res);
void run_cc(const WorkloadSpec& spec, Inputs& in, const Options& opt, RunResult& res);

// The cost ladder (ladder.cpp): core → ds → serve (flat, sharded) → wire,
// plus the mutex reference, the contention profile and the cc rung.
void run_ladder(const WorkloadSpec& spec, const Inputs& in, const Options& opt,
                RunResult& res);

/// cc_caslt over the workload's graph, solved at least `min_solves` times
/// and for `budget_s`, each solve checked against the sequential
/// reference labels.
struct CcPhase {
  double edges_per_s = 0.0;
  std::vector<double> solve_s;
  std::uint64_t iterations = 0;
};
CcPhase run_cc_solves(const crcw::graph::Csr& g, std::uint64_t input_edges, int threads,
                      double budget_s, int min_solves, RunResult& res);

}  // namespace perfbench
