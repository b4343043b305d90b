#include "src/obs/registry.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <sstream>

#include "src/base/contracts.h"

namespace vnros {

u32 obs_this_shard() {
  static std::atomic<u32> next{0};
  thread_local u32 shard = next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  if constexpr (kMetricsEnabled) {
    for (const Shard& s : shards_) {
      for (u32 b = 0; b < kNumBuckets; ++b) {
        snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
      snap.count += s.count.load(std::memory_order_relaxed);
      snap.sum += s.sum.load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (u32 b = 0; b < Histogram::kNumBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum += other.sum;
}

u64 HistogramSnapshot::percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 100.0) {
    p = 100.0;
  }
  u64 rank = static_cast<u64>(p / 100.0 * static_cast<double>(count - 1));
  u64 seen = 0;
  for (u32 b = 0; b < Histogram::kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      return Histogram::bucket_lower_bound(b);
    }
  }
  return Histogram::bucket_lower_bound(Histogram::kNumBuckets - 1);
}

u32 SpanTracer::intern_site(std::string_view name) {
  std::lock_guard<std::mutex> lock(sites_mu_);
  auto it = site_ids_.find(name);
  if (it != site_ids_.end()) {
    return it->second;
  }
  u32 id = static_cast<u32>(site_names_.size());
  site_names_.emplace_back(name);
  site_ids_.emplace(std::string(name), id);
  return id;
}

std::string SpanTracer::site_name(u32 id) const {
  std::lock_guard<std::mutex> lock(sites_mu_);
  if (id >= site_names_.size()) {
    return "<unknown>";
  }
  return site_names_[id];
}

void SpanTracer::point(u32 site) {
  if constexpr (kMetricsEnabled) {
    if (!enabled()) {
      return;
    }
    u64 t = timestamp();
    commit(SpanEvent{site, obs_this_shard(), 0, t, t});
  } else {
    (void)site;
  }
}

void SpanTracer::commit(const SpanEvent& ev) {
  Shard& s = shards_[ev.shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.ring.size() < kRingCapacity) {
    s.ring.push_back(ev);
  } else {
    s.ring[s.next] = ev;
    s.next = (s.next + 1) % kRingCapacity;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanEvent> SpanTracer::spans() const {
  std::vector<SpanEvent> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    // Oldest first: [next, end) then [0, next) once the ring has wrapped.
    for (usize i = 0; i < s.ring.size(); ++i) {
      out.push_back(s.ring[(s.next + i) % s.ring.size()]);
    }
  }
  return out;
}

void SpanTracer::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.ring.clear();
    s.next = 0;
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

ObsRegistry& ObsRegistry::global() {
  static ObsRegistry* registry = new ObsRegistry();  // leaked: process lifetime
  return *registry;
}

Counter& ObsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) {
    return *it->second;
  }
  VNROS_CHECK(histograms_.find(name) == histograms_.end());
  auto [pos, inserted] =
      counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter(std::string(name))));
  VNROS_CHECK(inserted);
  return *pos->second;
}

Histogram& ObsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return *it->second;
  }
  VNROS_CHECK(counters_.find(name) == counters_.end());
  auto [pos, inserted] = histograms_.emplace(
      std::string(name), std::unique_ptr<Histogram>(new Histogram(std::string(name))));
  VNROS_CHECK(inserted);
  return *pos->second;
}

std::string ObsRegistry::instance_prefix(std::string_view kind) {
  std::lock_guard<std::mutex> lock(mu_);
  u64 id = instance_ids_[std::string(kind)]++;
  return std::string(kind) + std::to_string(id) + "/";
}

std::vector<std::pair<std::string, u64>> ObsRegistry::counters_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, u64>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>> ObsRegistry::histograms_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->snapshot());
  }
  return out;
}

namespace {

// Metric names are path-like identifiers; escape just enough for JSON.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Whether `id` is one instance_prefix() issued for a kind with `issued`
// instances. Ids print without leading zeros, so "07" never was.
bool issued_id(std::string_view id, u64 issued) {
  if (id.empty() || (id.size() > 1 && id[0] == '0')) {
    return false;
  }
  u64 v = 0;
  auto [end, ec] = std::from_chars(id.data(), id.data() + id.size(), v);
  return ec == std::errc{} && end == id.data() + id.size() && v < issued;
}

// The family of `name`: "bsc17/attempts" -> "bsc/attempts" when `issued`
// (kind -> instances, as instance_prefix() counts them) shows "bsc17/" was
// issued. The longest kind wins: with kinds vc_reg and vc_reg2, "vc_reg20/x"
// is vc_reg2's instance 0 unless vc_reg issued 21 instances. Any other name
// is its own family.
std::string family_of(std::string_view name,
                      const std::map<std::string, u64, std::less<>>& issued) {
  std::string_view kind;
  usize slash = 0;
  for (const auto& [k, count] : issued) {
    if (k.size() <= kind.size() || !name.starts_with(k)) {
      continue;
    }
    usize end = name.find('/', k.size());
    if (end != std::string_view::npos && issued_id(name.substr(k.size(), end - k.size()), count)) {
      kind = k;
      slash = end;
    }
  }
  if (kind.empty()) {
    return std::string(name);
  }
  return std::string(kind) + std::string(name.substr(slash));
}

}  // namespace

std::string ObsRegistry::json() const {
  std::map<std::string, u64, std::less<>> issued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    issued = instance_ids_;
  }
  struct CounterFamily {
    u64 sum = 0;
    u64 max = 0;
    u64 instances = 0;
  };
  std::map<std::string, CounterFamily> counters;
  for (const auto& [name, value] : counters_snapshot()) {
    CounterFamily& f = counters[family_of(name, issued)];
    f.sum += value;
    f.max = std::max(f.max, value);
    ++f.instances;
  }
  std::map<std::string, std::pair<HistogramSnapshot, u64>> histograms;
  for (const auto& [name, snap] : histograms_snapshot()) {
    auto& [merged, instances] = histograms[family_of(name, issued)];
    merged.merge(snap);
    ++instances;
  }

  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, f] : counters) {
    os << (first ? "" : ",") << "\"" << json_escape(name) << "\":{\"sum\":" << f.sum
       << ",\"max\":" << f.max << ",\"instances\":" << f.instances << "}";
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    const auto& [snap, instances] = h;
    os << (first ? "" : ",") << "\"" << json_escape(name) << "\":{"
       << "\"count\":" << snap.count << ",\"sum\":" << snap.sum
       << ",\"mean\":" << snap.mean() << ",\"p50\":" << snap.percentile(50.0)
       << ",\"p99\":" << snap.percentile(99.0) << ",\"instances\":" << instances << "}";
    first = false;
  }
  os << "},\"spans\":{\"recorded\":" << tracer_.recorded()
     << ",\"dropped\":" << tracer_.dropped() << ",\"sites\":{";
  std::map<std::string, u64> per_site;
  for (const SpanEvent& ev : tracer_.spans()) {
    ++per_site[tracer_.site_name(ev.site)];
  }
  first = true;
  for (const auto& [name, n] : per_site) {
    os << (first ? "" : ",") << "\"" << json_escape(name) << "\":" << n;
    first = false;
  }
  os << "}}}";
  return os.str();
}

}  // namespace vnros
