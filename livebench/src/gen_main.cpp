// lb_gen — the benchmark's load generator.
//
//   lb_gen --workload prompt_visits|legacy_hol|page_render --seed N
//          --seconds S --trace 0|1 --server PATH [--spans FILE]
//
// Starts PATH (lb_server) as a separate process, drives the workload
// against it, checks every response, and prints a line-oriented report:
//
//   ops views attempted=<n> failed=<n>
//   ops probes attempted=<n> failed=<n>
//   metric <name> <value|absent> <unit>
//   check <reason>          (one per failed check, at most a few)
//   correct true|false
//
// With --trace 1 it then replays the workload in process with per-layer
// spans (traced.cpp) and adds the per-layer metrics.  livebench/run.py
// turns the report into the benchmark's JSON result line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "site.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using lb::MetricSet;

void AddLatency(MetricSet& m, const std::string& name,
                const std::vector<double>& samples) {
  const lb::LatencySummary summary = lb::Summarize(samples);
  m.Set(name + "_p50_ms", summary.p50, "ms");
  m.Set(name + "_p99_ms", summary.p99, "ms");
  m.Set(name + "_samples", static_cast<double>(summary.count), "count");
}

void EndToEnd(const lb::LiveRun& run, MetricSet& m) {
  const double views = static_cast<double>(run.views_attempted);
  std::vector<double> setup = run.setup_seconds;
  m.Set("setup_s", lb::Quantile(setup, 0.5), "s");
  m.Set("views_per_s", lb::Ratio(views, run.phase_seconds), "views/s");
  AddLatency(m, "view", run.view_ms);
  AddLatency(m, "probe", run.probe_ms);
  m.Set("server_cpu_ms_per_view", lb::Ratio(run.server_cpu_seconds * 1e3, views),
        "ms");
  m.Set("client_cpu_ms_per_view", lb::Ratio(run.client_cpu_seconds * 1e3, views),
        "ms");
  m.Set("server_peak_rss_mb", run.server_peak_rss_kb / 1024.0, "MB");
  m.Set("wire_bytes_per_view",
        lb::Ratio(static_cast<double>(run.wire_bytes), views), "B");
  const lb::LatencySummary lateness = lb::Summarize(run.probe_lateness_ms);
  m.Set("probe_lateness_mean_ms", lateness.mean, "ms");
  m.Set("probe_lateness_p99_ms", lateness.p99, "ms");
}

// Per-layer metrics the live run gives: (L) from the server's /metrics,
// (C) from the client side.
void LiveLayers(const lb::LiveRun& run, MetricSet& m) {
  const auto& before = run.scrape_before;
  const auto& after = run.scrape_after;
  const double views = static_cast<double>(run.views_attempted);
  const std::optional<double> requests =
      lb::SeriesDelta(before, after, "sww_server_requests");
  const double requests_n = requests.value_or(0.0);
  auto per = [&](const char* series, double by) {
    return lb::Ratio(lb::SeriesDelta(before, after, series), by);
  };
  std::vector<double> connect = run.connect_us;
  m.Set("net.connect_us", lb::Quantile(connect, 0.5), "us");
  m.Set("net.wakeups_per_request", per("sww_net_reactor_wakeups", requests_n),
        "count");
  m.Set("net.writev_calls_per_request",
        per("sww_net_reactor_writev_calls", requests_n), "count");
  m.Set("net.partial_writes_per_view",
        per("sww_net_reactor_partial_writes", views), "count");
  // Both series are registered on their first timeout, so a healthy run
  // shows them absent rather than 0.
  const auto settings = lb::SeriesDelta(before, after, "sww_net_reactor_settings_timeouts");
  const auto idle = lb::SeriesDelta(before, after, "sww_net_reactor_idle_timeouts");
  m.Set("net.dropped_connections",
        settings || idle ? std::optional<double>(settings.value_or(0) + idle.value_or(0))
                         : std::nullopt,
        "count");
  const auto frames_sent = lb::SeriesDelta(before, after, "sww_http2_frames_sent");
  const auto frames_received =
      lb::SeriesDelta(before, after, "sww_http2_frames_received");
  m.Set("http2.frames_per_view",
        frames_sent && frames_received
            ? lb::Ratio(*frames_sent + *frames_received, views)
            : std::nullopt,
        "count");
  m.Set("compress.coded_share",
        lb::Ratio(static_cast<double>(run.coded_wire_bytes),
                  static_cast<double>(run.coded_entity_bytes)),
        "ratio");
  m.Set("obs.rss_growth_bytes_per_request",
        lb::Ratio((run.server_peak_rss_kb - run.server_rss_after_setup_kb) * 1024.0,
                  requests_n),
        "B");
  m.Set("obs.client_rss_growth_bytes_per_request",
        lb::Ratio((run.client_peak_rss_kb - run.client_rss_after_setup_kb) * 1024.0,
                  static_cast<double>(run.client_requests)),
        "B");
  m.Set("server_requests", requests, "count");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload prompt_visits|legacy_hol|page_render "
               "--seed N --seconds S --trace 0|1 --server PATH [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, server_path, spans_path;
  long long seed = -1;
  int seconds = 0, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::atoll(value);
    else if (flag == "--seconds") seconds = std::atoi(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--server") server_path = value;
    else if (flag == "--spans") spans_path = value;
    else return Usage(argv[0]);
  }
  const std::optional<lb::Workload> workload = lb::ParseWorkload(workload_name);
  if (argc % 2 != 1 || !workload || seed < 0 || seconds < 1 ||
      (trace != 0 && trace != 1) || server_path.empty()) {
    return Usage(argv[0]);
  }

  const lb::Site site = lb::BuildSite();
  const int rounds = lb::RoundsFor(*workload, seconds);
  std::printf("workload %s seed %lld rounds %d views_per_round %d threads %d\n",
              workload_name.c_str(), seed, rounds, lb::RoundSize(),
              lb::ShapeOf(*workload).threads);
  const lb::LiveRun run = lb::RunLive(site, *workload,
                                      static_cast<std::uint64_t>(seed), seconds,
                                      server_path);
  if (run.views_attempted == 0) {
    for (const std::string& error : run.errors) {
      std::fprintf(stderr, "lb_gen: %s\n", error.c_str());
    }
    return 1;
  }

  MetricSet metrics;
  EndToEnd(run, metrics);
  LiveLayers(run, metrics);
  bool correct = run.correct;
  std::vector<std::string> errors = run.errors;

  if (trace == 1) {
    const double probes_per_view =
        static_cast<double>(run.probes_attempted) /
        static_cast<double>(run.views_attempted);
    // One round replays every page of the mix; prompt_visits gets four
    // because its views are short.
    const int traced_rounds = *workload == lb::Workload::kPromptVisits ? 4 : 1;
    const lb::TracedRun traced =
        lb::RunTraced(site, *workload, static_cast<std::uint64_t>(seed),
                      traced_rounds, probes_per_view, spans_path);
    for (const auto& entry : traced.metrics.entries()) {
      metrics.Set(entry.name, entry.value, entry.unit);
    }
    // Tracing overhead and accounting: traced per-view time of each side
    // against the untraced CPU per view of the same run.
    const double views = static_cast<double>(run.views_attempted);
    const std::optional<double> server_cpu = lb::Ratio(run.server_cpu_seconds * 1e3, views);
    const std::optional<double> client_cpu = lb::Ratio(run.client_cpu_seconds * 1e3, views);
    metrics.Set("trace.server_ms_per_view", traced.server_ms_per_view, "ms");
    metrics.Set("trace.client_ms_per_view", traced.client_ms_per_view, "ms");
    metrics.Set("trace.server_accounted_share",
                server_cpu ? lb::Ratio(traced.server_ms_per_view, *server_cpu)
                           : std::nullopt,
                "ratio");
    metrics.Set("trace.client_accounted_share",
                client_cpu ? lb::Ratio(traced.client_ms_per_view, *client_cpu)
                           : std::nullopt,
                "ratio");
    metrics.Set("trace.spans_per_view",
                static_cast<double>(traced.spans) /
                    (traced_rounds * static_cast<double>(lb::RoundSize())),
                "count");
    correct = correct && traced.correct;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  }

  std::printf("ops views attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(run.views_attempted),
              static_cast<unsigned long long>(run.views_failed));
  std::printf("ops probes attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(run.probes_attempted),
              static_cast<unsigned long long>(run.probes_failed));
  for (const std::string& item : run.failed_items) {
    std::printf("fault verification_failed_item %s\n", item.c_str());
  }
  std::fputs(metrics.RenderLines("metric ").c_str(), stdout);
  for (const std::string& error : errors) std::printf("check %s\n", error.c_str());
  std::printf("correct %s\n", correct ? "true" : "false");
  return 0;
}
