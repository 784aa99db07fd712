// workloads.hpp — the three live workloads and the traced replay.
//
//   prompt_visits  2 closed-loop threads, each with 2 short generative
//                  visits in flight (connect, SETTINGS, page, its unique
//                  assets, RST close)
//   legacy_hol     1 closed-loop legacy client on a persistent connection
//                  fetching server-materialized pages and their PPMs
//   page_render    1 generative client rendering every page on the device
//                  through core::GenerativeClient::FetchPage
//
// legacy_hol also runs the open-loop probe: one generative connection
// sending GET /article (accept-encoding: swz) at a fixed 200/s, paced by a
// busy-wait and timed from each probe's due time.  The server always runs
// one shard, so the probe shares the shard thread with the legacy client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "site.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace lb {

enum class Workload { kPromptVisits, kLegacyHol, kPageRender };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

struct Shape {
  int threads;              ///< closed-loop generator threads
  /// Whole rounds (RoundSize() views) per closed-loop thread per second of
  /// `--seconds`: the fixed amount of work, sized so a run on a 4-vCPU
  /// host takes about `--seconds`.
  double rounds_per_second;
  bool probe;               ///< run the open-loop probe alongside
};
Shape ShapeOf(Workload workload);
/// Rounds per closed-loop thread for a run of `seconds`.
int RoundsFor(Workload workload, int seconds);

inline constexpr double kProbeRatePerSecond = 200.0;
inline constexpr int kSetups = 21; ///< set-ups per run; setup_s is their median

/// Everything the live (untraced) run measured.
struct LiveRun {
  bool correct = true;
  std::vector<std::string> errors;  ///< first few check failures

  std::uint64_t views_attempted = 0;
  std::uint64_t views_failed = 0;   ///< views hit by the named fault
  std::vector<std::string> failed_items;  ///< item names that failed §7
  std::vector<double> view_ms;
  std::uint64_t client_requests = 0;  ///< requests of the closed-loop clients
  std::uint64_t wire_bytes = 0;       ///< received by closed-loop connections
  std::uint64_t coded_wire_bytes = 0;     ///< swz bodies as sent (probes too)
  std::uint64_t coded_entity_bytes = 0;   ///< the same bodies decoded
  double phase_seconds = 0.0;
  double client_cpu_seconds = 0.0;   ///< closed-loop threads only
  std::vector<double> connect_us;

  std::uint64_t probes_attempted = 0;
  std::uint64_t probes_failed = 0;
  std::vector<double> probe_ms;
  std::vector<double> probe_lateness_ms;

  std::vector<double> setup_seconds;
  double server_cpu_seconds = 0.0;
  double server_rss_after_setup_kb = 0.0;
  double server_peak_rss_kb = 0.0;
  double client_rss_after_setup_kb = 0.0;
  double client_peak_rss_kb = 0.0;
  sww::tools::MetricsSample scrape_before;  ///< the server's /metrics
  sww::tools::MetricsSample scrape_after;
};

/// Start `server_path` kSetups times, keep the last one, run the workload
/// against it, then stop it.  Check failures land in `errors`.
LiveRun RunLive(const Site& site, Workload workload, std::uint64_t seed,
                int seconds, const std::string& server_path);

/// What the traced replay measured (per-layer, T).
struct TracedRun {
  bool correct = true;
  std::vector<std::string> errors;
  MetricSet metrics;
  double server_ms_per_view = 0.0;  ///< sum of server-side spans
  double client_ms_per_view = 0.0;  ///< client-side self time
  std::size_t spans = 0;
};

/// Replay `rounds` rounds of the workload's sequence (plus probes at
/// `probes_per_view`) on one thread through an in-process harness, timing
/// each layer with a SpanRecorder; spans are written to `spans_path`.
TracedRun RunTraced(const Site& site, Workload workload, std::uint64_t seed,
                    int rounds, double probes_per_view,
                    const std::string& spans_path);

}  // namespace lb
