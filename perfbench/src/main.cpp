// perfbench — the repository benchmark binary. run.py builds and drives it;
// it can also be run by hand:
//
//   perfbench --workload kv-hot --seed 1 --seconds 12 --trace 0 --out-dir DIR
//
// It prints a human-readable report on stdout and writes the full result
// (fingerprint, thread budget, metrics, correctness) as DIR/result.json.
// Exit code: 0 if every correctness check held, 1 if one failed, 2 on a
// usage or environment error (including a non-Release build).
#include <malloc.h>
#include <omp.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace json = crcw::obs::json;

WorkloadSpec make_spec(const std::string& name, int nproc) {
  WorkloadSpec s;
  s.name = name;
  const int exec = std::max(1, nproc / 2);
  s.cfg.shards.count = 4;
  s.cfg.batch.exec_threads = exec;
  s.cfg.batch.max_wait_us = 250;
  s.budget.nproc = nproc;
  s.budget.exec_width = exec;
  if (name == "kv-hot") {
    s.universe = 1 << 20;
    s.zipf = 0.99;
    s.lookup = 0.1;
    s.upsert = 0.9;
    // One client, which help-pumps: each pumping client leads its own
    // executor team, so every added client costs exec threads. One client
    // leaves nproc - exec cores idle as headroom. On a 4-vCPU VM, two
    // clients (every core busy) lost 4x throughput and reached an 11 ms
    // p99 beside one busy-looping process; one client moved < 6% beside two.
    s.clients = 1;
    // Windows of 512..1536 ops (mean 1024): any one window reaches
    // max_batch, so batches close on size, and clients × window > max_batch.
    s.window = 1024;
    s.cfg.batch.max_batch = 512;
    s.ladder_round = 512;
    s.budget.generators = s.clients;  // clients help-pump: no dedicated pump thread
  } else if (name == "kv-paced") {
    s.open_loop = true;
    s.universe = 1 << 22;
    s.lookup = 0.5;
    s.upsert = 0.4;
    s.offered_rate = 200000;  // ~50 ops per 250 µs deadline: batches close on the deadline
    s.cfg.batch.max_batch = 1024;
    s.ladder_round = 64;
    s.budget.generators = 1;  // sends on schedule, stamps completions while it waits
    s.budget.pump = 1;
  } else if (name == "kv-wire") {
    s.wire = true;
    s.universe = 1 << 20;
    s.lookup = 0.5;
    s.upsert = 0.5;
    // Table work is small here, so rounds run on the pump thread alone
    // (no OpenMP team) and one core stays idle as headroom.
    s.cfg.batch.exec_threads = 1;
    s.budget.exec_width = 1;
    // Each connection costs a client and a server handler thread.
    s.clients = std::max(1, std::min(nproc / 2, (nproc - 2) / 2));
    // A handler submits at most io_batch (256) decoded frames per burst, so
    // max_batch = io_batch is the largest batch a burst can close on size.
    // One WireClient writes one frame per syscall, and bursts measure
    // ~130 frames: most batches still close on the deadline (printed by a
    // traced run as loop.deadline_batch_ratio).
    s.window = 1024;
    s.cfg.batch.max_batch = 256;
    s.ladder_round = 256;
    s.budget.generators = s.clients;
    s.budget.handlers = s.clients;
    s.budget.pump = 1;
  } else if (name == "cc-rmat") {
    s.kv = false;
    s.universe = 1 << 20;  // the ladder's keys are the graph's vertices
    s.cfg.batch.max_batch = 1024;
    s.ladder_round = 1024;
    s.budget.generators = 1;  // the solving thread is the OpenMP master
    s.budget.exec_width = nproc;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (kv-hot, kv-paced, kv-wire, cc-rmat)");
  }
  s.graph_vertices = 1 << 20;
  s.graph_edges = 1 << 23;
  s.cfg.table.expected_keys = 2 * s.universe;  // prefill never grows mid-run
  s.cfg = s.cfg.validated();
  return s;
}

namespace {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  crcw::util::SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

/// Key sampler of a workload: Zipf ranks (rank = key, so rank 0 is the
/// hottest key) or uniform keys.
class KeyGen {
 public:
  KeyGen(const WorkloadSpec& spec, std::uint64_t seed) : rng_(seed), universe_(spec.universe) {
    if (spec.zipf > 0) zipf_.emplace(spec.universe, spec.zipf, derive_seed(seed, 7));
  }
  std::uint64_t next() { return zipf_ ? zipf_->next() : rng_.bounded(universe_); }
  crcw::util::Xoshiro256& rng() { return rng_; }

 private:
  crcw::util::Xoshiro256 rng_;
  std::uint64_t universe_;
  std::optional<crcw::graph::ZipfSampler> zipf_;
};

OpStream make_stream(const WorkloadSpec& spec, std::uint64_t seed, std::size_t length) {
  KeyGen keys(spec, seed);
  OpStream s;
  s.ops.resize(length);
  for (crcw::serve::Op& op : s.ops) {
    const double u = static_cast<double>(keys.rng().next() >> 11) * 0x1.0p-53;
    const std::uint64_t key = keys.next();
    const std::uint64_t value = (keys.rng().next() & 0xffffffffULL) | 1;
    if (u < spec.lookup) {
      op = crcw::serve::Op::lookup(key);
    } else if (u < spec.lookup + spec.upsert) {
      op = crcw::serve::Op::upsert(key, value);
    } else {
      op = crcw::serve::Op::erase(key);
    }
  }
  return s;
}

}  // namespace

crcw::graph::EdgeList generate_graph(const WorkloadSpec& spec, std::uint64_t seed) {
  return crcw::graph::rmat(spec.graph_vertices, spec.graph_edges, derive_seed(seed, 1));
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  constexpr std::size_t kLadderOps = 1 << 17;
  Inputs in;
  if (!spec.kv) {
    in.edges = generate_graph(spec, seed);
    in.ladder.ops.reserve(kLadderOps);
    // The ladder replays the hook traffic: one arbitrary-CW write per edge.
    for (std::size_t i = 0; i < kLadderOps && i < in.edges.size(); ++i) {
      in.ladder.ops.push_back(crcw::serve::Op::upsert(in.edges[i].u, in.edges[i].v + 1));
    }
    return in;
  }
  const auto streams = static_cast<std::size_t>(spec.clients);
  const std::size_t length = spec.open_loop ? (1u << 22) : (1u << 21);
  in.streams.resize(streams);
  std::vector<std::thread> gen;
  gen.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    gen.emplace_back(
        [&, i] { in.streams[i] = make_stream(spec, derive_seed(seed, 100 + i), length); });
  }
  for (std::thread& t : gen) t.join();
  in.ladder.ops.assign(in.streams[0].ops.begin(),
                       in.streams[0].ops.begin() + static_cast<std::ptrdiff_t>(kLadderOps));
  in.hot_key = 8;  // rank 8 under Zipf: hot, but not so hot the log fills
  return in;
}

namespace {

json::Value fingerprint(const WorkloadSpec& spec) {
  json::Value fp = json::Value::object();
  fp.add("nproc", spec.budget.nproc);
  fp.add("build_type", PERFBENCH_BUILD_TYPE);
  fp.add("compiler", __VERSION__);
  fp.add("simd_backend", crcw::util::simd_backend());
  fp.add("crcw_simd", static_cast<bool>(PERFBENCH_CRCW_SIMD));
  fp.add("crcw_tsan", static_cast<bool>(PERFBENCH_CRCW_TSAN));
  fp.add("omp_max_threads", omp_get_max_threads());
  const auto& c = spec.cfg;
  json::Value serve = json::Value::object();
  serve.add("max_batch", c.batch.max_batch);
  serve.add("max_wait_us", c.batch.max_wait_us);
  serve.add("exec_threads", c.batch.resolved_threads());
  serve.add("lanes", c.batch.resolved_lanes());
  serve.add("lane_backlog", c.batch.resolved_lane_backlog());
  serve.add("backoff_spins", c.batch.backoff_spins);
  serve.add("latency_sample_shift", c.batch.latency_sample_shift);
  serve.add("shards", c.shards.count);
  serve.add("expected_keys", c.table.expected_keys);
  serve.add("max_load", c.table.max_load);
  serve.add("reclaim_ratio", c.table.reclaim_ratio);
  serve.add("io_batch", c.wire.io_batch);
  fp.add("serve_config", std::move(serve));
  return fp;
}

json::Value metric_map(const std::vector<Metric>& ms) {
  json::Value o = json::Value::object();
  for (const Metric& m : ms) {
    json::Value v = json::Value::object();
    v.add("value", m.value);
    v.add("unit", m.unit);
    o.add(m.name, std::move(v));
  }
  return o;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    std::printf("    %-32s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: every buffer of 1 MiB or more is mapped fresh
  // and unmapped on free, so peak_rss_mib counts the data live at the peak
  // rather than how glibc's adaptive threshold happened to recycle heap.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Options opt;
  WorkloadSpec spec;
  try {
    opt = parse(argc, argv);
#ifndef NDEBUG
    throw std::runtime_error("refusing to measure a build with assertions on (not Release)");
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      throw std::runtime_error(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
                               " build; configure with -DCMAKE_BUILD_TYPE=Release");
    }
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    spec = make_spec(opt.workload, nproc < 1 ? 1 : nproc);
    spec.budget.enforce();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  RunResult res;
  try {
    Inputs in = generate_inputs(spec, opt.seed);
    if (spec.kv) {
      run_kv(spec, in, opt, res);
    } else {
      run_cc(spec, in, opt, res);
    }
  } catch (const std::exception& e) {
    res.problem(std::string("run aborted: ") + e.what());
  }
  const bool correct = res.problems.empty() && res.failed == 0 && res.attempted > 0;
  const double failed_ratio =
      res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                        : 0.0;
  res.note("failed_op_ratio", failed_ratio, "ratio");

  const json::Value fp = fingerprint(spec);
  const ThreadBudget& b = spec.budget;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("  env: nproc=%d build=%s compiler=%s simd=%s omp=%d\n", b.nproc,
              PERFBENCH_BUILD_TYPE, __VERSION__, crcw::util::simd_backend(),
              omp_get_max_threads());
  std::printf("  threads: generators=%d pump=%d exec_width=%d handlers=%d -> %d of %d%s\n",
              b.generators, b.pump, b.exec_width, b.handlers, b.total(), b.nproc,
              spec.wire ? " (+1 accept thread blocked in accept)" : "");
  print_metrics(opt.trace ? "per-layer metrics" : "end-to-end metrics", res.metrics);
  print_metrics("also measured", res.info);
  std::printf("  correct=%s attempted=%llu failed=%llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const std::string& p : res.problems) std::printf("  PROBLEM: %s\n", p.c_str());

  json::Value out = json::Value::object();
  out.add("workload", spec.name);
  out.add("seed", opt.seed);
  out.add("seconds", opt.seconds);
  out.add("trace", opt.trace);
  out.add("fingerprint", fp);
  json::Value budget = json::Value::object();
  budget.add("generators", b.generators);
  budget.add("pump", b.pump);
  budget.add("exec_width", b.exec_width);
  budget.add("handlers", b.handlers);
  budget.add("total", b.total());
  budget.add("nproc", b.nproc);
  out.add("thread_budget", std::move(budget));
  out.add("correct", correct);
  out.add("attempted", res.attempted);
  out.add("failed", res.failed);
  json::Value problems = json::Value::array();
  for (const std::string& p : res.problems) problems.push_back(p);
  out.add("problems", std::move(problems));
  out.add("metrics", metric_map(res.metrics));
  out.add("info", metric_map(res.info));
  std::ofstream(opt.out_dir + "/result.json") << out.dump();
  std::fflush(stdout);
  return correct ? 0 : 1;
}
