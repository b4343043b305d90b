#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "src/base/contracts.h"
#include "src/kernel/kernel.h"
#include "src/obs/registry.h"

namespace vnbench {

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tick_percentile(const std::vector<u32>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::map<u32, u64> freq;
  for (u32 s : samples) {
    ++freq[s];
  }
  const double target = q * static_cast<double>(samples.size());
  double below = 0;
  for (const auto& [value, f] : freq) {
    double fd = static_cast<double>(f);
    if (below + fd >= target) {
      return static_cast<double>(value) - 0.5 + (target - below) / fd;
    }
    below += fd;
  }
  return static_cast<double>(freq.rbegin()->first) + 0.5;
}

void NsHistogram::merge(const NsHistogram& o) {
  for (usize i = 0; i < kBuckets; ++i) {
    buckets_[i] += o.buckets_[i];
  }
  large_.insert(large_.end(), o.large_.begin(), o.large_.end());
  count_ += o.count_;
}

double NsHistogram::percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(count_);
  double below = 0;
  for (usize i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double f = static_cast<double>(buckets_[i]);
    if (below + f >= target) {
      return (static_cast<double>(i) + (target - below) / f) * static_cast<double>(kBucketNs);
    }
    below += f;
  }
  std::vector<u64> large = large_;
  std::sort(large.begin(), large.end());
  usize idx = static_cast<usize>(std::max(0.0, std::ceil(target - below) - 1));
  return static_cast<double>(large[std::min(idx, large.size() - 1)]);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kServe:
      return "app.serve_once";
    case Layer::kPump:
      return "app.pump";
    case Layer::kVtpTick:
      return "net.vtp_tick";
    case Layer::kClientSys:
      return "kernel.client_syscall";
    case Layer::kMap:
      return "pt.map";
    case Layer::kResolve:
      return "pt.resolve";
    case Layer::kUnmap:
      return "pt.unmap";
    case Layer::kCount:
      break;
  }
  return "?";
}

void write_spans(std::FILE* out, const Tracer& tr, u32 thread, u64 origin_ns) {
  for (const SpanRec& s : tr.spans) {
    std::fprintf(out, "%u\t%llu\t%llu\t%s\t%llu\t%llu\t%llu\n", thread,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 layer_name(s.layer), static_cast<unsigned long long>(s.op_id),
                 static_cast<unsigned long long>(s.start_ns - origin_ns),
                 static_cast<unsigned long long>(s.end_ns - origin_ns));
  }
}

namespace {

// "ring3/completion_passes" -> "ring/completion_passes".
std::string family_of(const std::string& name) {
  usize slash = name.find('/');
  if (slash == std::string::npos) {
    return name;
  }
  usize end = slash;
  while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1])) != 0) {
    --end;
  }
  return name.substr(0, end) + name.substr(slash);
}

void add_hist(vnros::HistogramSnapshot& into, const vnros::HistogramSnapshot& h, bool negate) {
  into.count += negate ? -h.count : h.count;
  into.sum += negate ? -h.sum : h.sum;
  for (usize i = 0; i < h.buckets.size(); ++i) {
    into.buckets[i] += negate ? -h.buckets[i] : h.buckets[i];
  }
}

template <typename Pred>
u64 counter_delta_if(const ObsSnapshot& a, const ObsSnapshot& b, Pred pred) {
  u64 before = 0;
  u64 after = 0;
  for (const auto& [fam, v] : a.counters) {
    before += pred(fam) ? v : 0;
  }
  for (const auto& [fam, v] : b.counters) {
    after += pred(fam) ? v : 0;
  }
  return after - before;
}

template <typename Pred>
vnros::HistogramSnapshot histogram_delta_if(const ObsSnapshot& a, const ObsSnapshot& b,
                                            Pred pred) {
  vnros::HistogramSnapshot out;
  for (const auto& [fam, h] : b.histograms) {
    if (pred(fam)) {
      add_hist(out, h, false);
    }
  }
  for (const auto& [fam, h] : a.histograms) {
    if (pred(fam)) {
      add_hist(out, h, true);
    }
  }
  return out;
}

bool is_nr_family(const std::string& fam, std::string_view leaf) {
  usize slash = fam.find('/');
  return fam.rfind("nr", 0) == 0 && slash != std::string::npos &&
         std::string_view(fam).substr(slash + 1) == leaf;
}

// Families whose prefix starts with "nr": every NR instance, any log shard.
u64 nr_counter_delta(const ObsSnapshot& a, const ObsSnapshot& b, std::string_view leaf) {
  return counter_delta_if(a, b, [&](const std::string& f) { return is_nr_family(f, leaf); });
}

vnros::HistogramSnapshot nr_histogram_delta(const ObsSnapshot& a, const ObsSnapshot& b,
                                            std::string_view leaf) {
  return histogram_delta_if(a, b, [&](const std::string& f) { return is_nr_family(f, leaf); });
}

}  // namespace

ObsSnapshot ObsSnapshot::take() {
  ObsSnapshot s;
  auto& reg = vnros::ObsRegistry::global();
  for (auto& [name, v] : reg.counters_snapshot()) {
    s.counters[family_of(name)] += v;
  }
  for (auto& [name, h] : reg.histograms_snapshot()) {
    add_hist(s.histograms[family_of(name)], h, false);
  }
  return s;
}

vnros::HistogramSnapshot histogram_delta(const ObsSnapshot& a, const ObsSnapshot& b,
                                         std::string_view family) {
  return histogram_delta_if(a, b, [&](const std::string& f) { return f == family; });
}

Metrics nr_metrics(const ObsSnapshot& a, const ObsSnapshot& b) {
  double combines = static_cast<double>(nr_counter_delta(a, b, "combines"));
  double combined = static_cast<double>(nr_counter_delta(a, b, "combined_ops"));
  double empty = static_cast<double>(nr_counter_delta(a, b, "empty_combines"));
  double handoff = static_cast<double>(nr_counter_delta(a, b, "handoff_ops"));
  vnros::HistogramSnapshot batch = nr_histogram_delta(a, b, "batch_ops");
  vnros::HistogramSnapshot spins = nr_histogram_delta(a, b, "wait_spins");
  return {
      {"nr.ops_per_combine", ratio(combined, combines), "ops", ""},
      {"nr.batch_ops_p99", static_cast<double>(batch.count == 0 ? 0 : batch.percentile(99)),
       "ops", ""},
      {"nr.empty_combine_ratio", ratio(empty, combines + empty), "ratio", ""},
      {"nr.handoff_ratio", ratio(handoff, combined), "ratio", ""},
      {"nr.wait_spins_mean",
       ratio(static_cast<double>(spins.sum), static_cast<double>(spins.count)), "spins", ""},
  };
}

u64 kstat(const vnros::Kernel& k, std::string_view name) {
  auto v = k.kstat(name);
  VNROS_CHECK(v.ok());
  return v.value();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace vnbench
