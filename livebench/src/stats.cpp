#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lb {

std::optional<double> Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  double total = 0.0;
  for (double value : samples) total += value;
  summary.mean = total / static_cast<double>(samples.size());
  summary.p50 = Quantile(samples, 0.50);
  if (samples.size() >= kMinSamplesForP99) {
    summary.p99 = Quantile(samples, 0.99);
  }
  return summary;
}

std::optional<double> Series(const sww::tools::MetricsSample& scrape,
                             const std::string& name) {
  if (auto it = scrape.counters.find(name); it != scrape.counters.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = scrape.gauges.find(name); it != scrape.gauges.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<double> SeriesDelta(const sww::tools::MetricsSample& before,
                                  const sww::tools::MetricsSample& after,
                                  const std::string& name) {
  const std::optional<double> a = Series(before, name);
  const std::optional<double> b = Series(after, name);
  if (!a || !b) return std::nullopt;
  return *b - *a;
}

std::optional<double> Ratio(std::optional<double> a, double b) {
  if (!a || !(b > 0.0)) return std::nullopt;
  return *a / b;
}

void MetricSet::Set(const std::string& name, std::optional<double> value,
                    const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string MetricSet::RenderLines(const std::string& prefix) const {
  std::string out;
  for (const Entry& entry : entries_) {
    out += prefix + entry.name + " " +
           (entry.value ? FormatNumber(*entry.value) : "absent") + " " +
           entry.unit + "\n";
  }
  return out;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace lb
