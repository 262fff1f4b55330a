#include "obs/metrics.hpp"

#include <algorithm>

namespace crcw::obs {
namespace {

/// Dense thread index for shard selection. Distinct from
/// omp_get_thread_num so raw-std::thread users (the stress tier) shard
/// too; indices recycle across kShards only after kShards distinct
/// threads, at which point the relaxed fetch_add stays correct, merely
/// shared.
std::size_t this_thread_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

thread_local MetricsRegistry* t_registry_override = nullptr;

}  // namespace

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::quantile_upper_bound(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) return bucket_upper(i);
  }
  return bucket_upper(kBuckets - 1);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

ContentionSite::ContentionSite(std::string name)
    : name_(std::move(name)), registry_(&current_registry()) {
  registry_->attach(*this);
}

ContentionSite::~ContentionSite() { registry_->detach(*this); }

ContentionSite::Shard& ContentionSite::shard() noexcept {
  return shards_[this_thread_index() % kShards];
}

ContentionTotals ContentionSite::totals() const noexcept {
  ContentionTotals t;
  for (const auto& s : shards_) {
    t.attempts += s.attempts.load(std::memory_order_relaxed);
    t.atomics += s.atomics.load(std::memory_order_relaxed);
    t.wins += s.wins.load(std::memory_order_relaxed);
    t.refills += s.refills.load(std::memory_order_relaxed);
    t.reset_tags += s.reset_tags.load(std::memory_order_relaxed);
    t.tombstones += s.tombstones.load(std::memory_order_relaxed);
    t.reclaimed += s.reclaimed.load(std::memory_order_relaxed);
    t.group_loads += s.group_loads.load(std::memory_order_relaxed);
    t.fingerprint_fps += s.fingerprint_fps.load(std::memory_order_relaxed);
  }
  t.rounds = rounds_.load(std::memory_order_relaxed);
  t.probe_p50 = probe_lengths_.quantile_upper_bound(0.5);
  t.probe_p99 = probe_lengths_.quantile_upper_bound(0.99);
  return t;
}

void ContentionSite::reset() noexcept {
  for (auto& s : shards_) {
    s.attempts.store(0, std::memory_order_relaxed);
    s.atomics.store(0, std::memory_order_relaxed);
    s.wins.store(0, std::memory_order_relaxed);
    s.refills.store(0, std::memory_order_relaxed);
    s.reset_tags.store(0, std::memory_order_relaxed);
    s.tombstones.store(0, std::memory_order_relaxed);
    s.reclaimed.store(0, std::memory_order_relaxed);
    s.group_loads.store(0, std::memory_order_relaxed);
    s.fingerprint_fps.store(0, std::memory_order_relaxed);
  }
  rounds_.store(0, std::memory_order_relaxed);
  probe_lengths_.reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

void MetricsRegistry::attach(ContentionSite& site) {
  const std::lock_guard<std::mutex> lock(mu_);
  sites_.push_back(&site);
}

void MetricsRegistry::detach(ContentionSite& site) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(sites_.begin(), sites_.end(), &site);
  if (it != sites_.end()) {
    sites_.erase(it);
    retained_.emplace_back(site.name(), site.totals());
  }
}

ContentionTotals MetricsRegistry::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ContentionTotals t;
  for (const auto& [name, folded] : retained_) t += folded;
  for (const ContentionSite* site : sites_) t += site->totals();
  return t;
}

std::vector<std::pair<std::string, ContentionTotals>> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, ContentionTotals>> out;
  const auto merge = [&out](const std::string& name, const ContentionTotals& t) {
    for (auto& [n, sum] : out) {
      if (n == name) {
        sum += t;
        return;
      }
    }
    out.emplace_back(name, t);
  };
  for (const auto& [name, folded] : retained_) merge(name, folded);
  for (const ContentionSite* site : sites_) merge(site->name(), site->totals());
  return out;
}

std::size_t MetricsRegistry::live_sites() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sites_.size();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  retained_.clear();
  for (ContentionSite* site : sites_) site->reset();
}

MetricsRegistry& current_registry() noexcept {
  return t_registry_override != nullptr ? *t_registry_override : MetricsRegistry::global();
}

ScopedRegistry::ScopedRegistry(MetricsRegistry& r) noexcept : prev_(t_registry_override) {
  t_registry_override = &r;
}

ScopedRegistry::~ScopedRegistry() { t_registry_override = prev_; }

}  // namespace crcw::obs
