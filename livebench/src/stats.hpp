// stats.hpp — the benchmark's reporting rules, kept in one place so the
// self-tests can hold them:
//   * a p99 exists only with at least kMinSamplesForP99 samples, and every
//     latency is printed with its sample count;
//   * a series the server's /metrics does not expose is absent, never 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tools/top.hpp"

namespace lb {

inline constexpr std::size_t kMinSamplesForP99 = 1000;

struct LatencySummary {
  std::size_t count = 0;
  std::optional<double> p50;
  std::optional<double> p99;  ///< set only when count >= kMinSamplesForP99
  std::optional<double> mean;
};

/// Nearest-rank quantile of `values` (sorted in place); nullopt when empty.
std::optional<double> Quantile(std::vector<double>& values, double q);

/// Summarize latency samples under the p99 rule.
LatencySummary Summarize(std::vector<double> samples);

/// A counter or gauge of a /metrics scrape (parsed by the repo's own
/// sww::tools::ParsePrometheusText), or nullopt when the scrape does not
/// carry it.
std::optional<double> Series(const sww::tools::MetricsSample& scrape,
                             const std::string& name);

/// `after - before` of one series; absent when either scrape lacks it.
std::optional<double> SeriesDelta(const sww::tools::MetricsSample& before,
                                  const sww::tools::MetricsSample& after,
                                  const std::string& name);

/// a / b, absent when a is absent or b is not positive.
std::optional<double> Ratio(std::optional<double> a, double b);

/// Collects every reported metric, in report order, with its unit.  An
/// absent value is printed as "absent".
class MetricSet {
 public:
  void Set(const std::string& name, std::optional<double> value,
           const std::string& unit);
  struct Entry {
    std::string name;
    std::optional<double> value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  /// `<prefix><name> <value|absent> <unit>` lines, in report order.
  std::string RenderLines(const std::string& prefix) const;

 private:
  std::vector<Entry> entries_;
};

/// Shortest round-trip decimal form of a double (all its digits).
std::string FormatNumber(double value);

}  // namespace lb
