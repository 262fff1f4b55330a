#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace crcw::graph {
namespace {

constexpr std::array<char, 8> kMagic = {'C', 'R', 'C', 'W', 'C', 'S', 'R', '1'};

/// Elements a reader allocates ahead of the input it has read. Counts in a
/// file are unchecked until the data behind them arrives, so an array grows
/// with what was read, and a count that lies fails as truncated input
/// rather than as an allocation.
constexpr std::uint64_t kReadChunk = std::uint64_t{1} << 16;

/// Refusal text for a count or id that vertex_t cannot hold.
std::string too_big(const char* field, std::uint64_t value) {
  return std::string(field) + " " + std::to_string(value) + " exceeds vertex_t";
}

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("binary CSR: truncated input");
  return value;
}

/// Reads `count` elements into a `Vector` in chunks of kReadChunk, growing
/// the array only by what arrived.
template <typename Vector>
Vector read_array(std::istream& is, std::uint64_t count, const char* field) {
  Vector out;
  while (out.size() < count) {
    const std::uint64_t step = std::min<std::uint64_t>(kReadChunk, count - out.size());
    const std::size_t at = out.size();
    out.resize(at + step);
    is.read(reinterpret_cast<char*>(out.data() + at),
            static_cast<std::streamsize>(step * sizeof(typename Vector::value_type)));
    if (!is) throw std::runtime_error(std::string("binary CSR: truncated ") + field);
  }
  return out;
}

/// Whitespace-separated unsigned integers, with the line each one starts
/// on, for refusals that name where they happened.
class Tokens {
 public:
  explicit Tokens(std::istream& is) : is_(is) {}

  bool next(std::uint64_t& out) {
    for (int c = is_.peek(); c != std::char_traits<char>::eof() && std::isspace(c) != 0;
         c = is_.peek()) {
      if (c == '\n') ++line_;
      is_.get();
    }
    return static_cast<bool>(is_ >> out);
  }

  [[nodiscard]] std::uint64_t line() const noexcept { return line_; }

 private:
  std::istream& is_;
  std::uint64_t line_ = 1;
};

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream f(path, mode);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  return f;
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream f(path, mode);
  if (!f) throw std::runtime_error("cannot open " + path + " for reading");
  return f;
}

}  // namespace

void write_edge_list(std::ostream& os, std::uint64_t n, const EdgeList& edges) {
  os << "# crcw-edgelist " << n << ' ' << edges.size() << '\n';
  for (const auto& e : edges) os << e.u << ' ' << e.v << '\n';
}

void save_edge_list(const std::string& path, std::uint64_t n, const EdgeList& edges) {
  auto f = open_out(path, std::ios::out);
  write_edge_list(f, n, edges);
}

LoadedEdgeList read_edge_list(std::istream& is) {
  LoadedEdgeList out;
  bool have_header = false;
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t declared_edges = 0;
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("edge list line " + std::to_string(line_no) + ": " + what);
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ss(line);
      std::string hash;
      std::string tag;
      ss >> hash >> tag;
      if (tag == "crcw-edgelist") {
        if (!(ss >> out.num_vertices >> declared_edges)) throw fail("malformed header");
        if (out.num_vertices > kNoVertex) {
          throw fail(too_big("vertex count", out.num_vertices));
        }
        have_header = true;
        out.edges.reserve(std::min(declared_edges, kReadChunk));
      }
      continue;
    }
    std::istringstream ss(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(ss >> u >> v)) throw fail("expected 'u v'");
    if (u >= kNoVertex || v >= kNoVertex) throw fail(too_big("vertex id", std::max(u, v)));
    out.edges.push_back({static_cast<vertex_t>(u), static_cast<vertex_t>(v)});
    out.num_vertices =
        std::max<std::uint64_t>({out.num_vertices, u + 1, v + 1});
  }

  if (have_header && out.edges.size() != declared_edges) {
    throw std::runtime_error("edge list: header declared " + std::to_string(declared_edges) +
                             " edges, found " + std::to_string(out.edges.size()));
  }
  return out;
}

LoadedEdgeList load_edge_list(const std::string& path) {
  auto f = open_in(path, std::ios::in);
  return read_edge_list(f);
}

void write_csr_binary(std::ostream& os, const Csr& g) {
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, g.num_vertices());
  write_pod(os, g.num_edges());
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  os.write(reinterpret_cast<const char*>(offsets.data()),
           static_cast<std::streamsize>(offsets.size_bytes()));
  os.write(reinterpret_cast<const char*>(targets.data()),
           static_cast<std::streamsize>(targets.size_bytes()));
}

void save_csr_binary(const std::string& path, const Csr& g) {
  auto f = open_out(path, std::ios::out | std::ios::binary);
  write_csr_binary(f, g);
}

Csr read_csr_binary(std::istream& is) {
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  if (!is || std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0) {
    throw std::runtime_error("binary CSR: bad magic");
  }
  const auto n = read_pod<std::uint64_t>(is);
  const auto m = read_pod<std::uint64_t>(is);
  if (n > kNoVertex) throw std::runtime_error("binary CSR: " + too_big("vertex count", n));

  auto offsets = read_array<std::vector<edge_t>>(is, n + 1, "offsets");
  auto targets = read_array<Csr::Targets>(is, m, "targets");
  try {
    return Csr(std::move(offsets), std::move(targets));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("binary CSR: ") + e.what());
  }
}

Csr load_csr_binary(const std::string& path) {
  auto f = open_in(path, std::ios::in | std::ios::binary);
  return read_csr_binary(f);
}

void write_rodinia(std::ostream& os, const Csr& g, vertex_t source) {
  if (source >= g.num_vertices() && g.num_vertices() > 0) {
    throw std::invalid_argument("write_rodinia: source out of range");
  }
  os << g.num_vertices() << '\n';
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    os << g.offset(v) << ' ' << g.degree(v) << '\n';
  }
  os << '\n' << source << "\n\n" << g.num_edges() << '\n';
  for (const vertex_t t : g.targets()) os << t << " 1\n";
}

void save_rodinia(const std::string& path, const Csr& g, vertex_t source) {
  auto f = open_out(path, std::ios::out);
  write_rodinia(f, g, source);
}

RodiniaGraph read_rodinia(std::istream& is) {
  Tokens in(is);
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("rodinia graph line " + std::to_string(in.line()) + ": " + what);
  };

  std::uint64_t n = 0;
  if (!in.next(n)) throw fail("missing node count");
  if (n > kNoVertex) throw fail(too_big("node count", n));

  // Each (start, degree) record must start where the previous one ended.
  std::vector<edge_t> offsets;
  offsets.reserve(std::min(n + 1, kReadChunk));
  edge_t end = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    std::uint64_t start = 0;
    std::uint64_t degree = 0;
    if (!in.next(start) || !in.next(degree)) throw fail("truncated node records");
    if (start != end) {
      throw fail(v == 0 ? "first offset must be 0"
                        : "node records are not contiguous CSR offsets");
    }
    if (degree > ~edge_t{0} - start) throw fail("node degree overflows the edge count");
    offsets.push_back(start);
    end = start + degree;
  }

  RodiniaGraph out;
  std::uint64_t source = 0;
  if (!in.next(source)) throw fail("missing source");
  if (n > 0 && source >= n) throw fail("source out of range");
  out.source = static_cast<vertex_t>(source);

  std::uint64_t m = 0;
  if (!in.next(m)) throw fail("missing edge count");
  if (m != end) throw fail("edge count disagrees with node records");
  offsets.push_back(m);

  Csr::Targets targets;
  targets.reserve(std::min(m, kReadChunk));
  out.costs.reserve(std::min(m, kReadChunk));
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t dest = 0;
    std::uint64_t cost = 0;
    if (!in.next(dest) || !in.next(cost)) throw fail("truncated edge records");
    if (dest >= n) throw fail("edge destination out of range");
    targets.push_back(static_cast<vertex_t>(dest));
    out.costs.push_back(static_cast<std::uint32_t>(cost));
  }

  out.graph = Csr(std::move(offsets), std::move(targets));
  return out;
}

RodiniaGraph load_rodinia(const std::string& path) {
  auto f = open_in(path, std::ios::in);
  return read_rodinia(f);
}

}  // namespace crcw::graph
