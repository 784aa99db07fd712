#include "workloads.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <mutex>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "core/client.hpp"
#include "h2client.hpp"
#include "html/parser.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace lb {

using sww::util::Bytes;

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "prompt_visits") return Workload::kPromptVisits;
  if (name == "legacy_hol") return Workload::kLegacyHol;
  if (name == "page_render") return Workload::kPageRender;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPromptVisits: return "prompt_visits";
    case Workload::kLegacyHol: return "legacy_hol";
    case Workload::kPageRender: return "page_render";
  }
  return "?";
}

Shape ShapeOf(Workload workload) {
  switch (workload) {
    case Workload::kPromptVisits: return Shape{2, 40.0, false};
    case Workload::kLegacyHol: return Shape{1, 0.5, true};
    case Workload::kPageRender: return Shape{1, 0.7, false};
  }
  return Shape{1, 1.0, false};
}

int RoundsFor(Workload workload, int seconds) {
  const double rounds = ShapeOf(workload).rounds_per_second * seconds;
  return rounds < 1.0 ? 1 : static_cast<int>(rounds + 0.5);
}

namespace {

constexpr int kTimeoutMs = 20'000;
// The probe pacer busy-waits only this close to a due time.
constexpr double kSpinSeconds = 0.0006;
constexpr std::size_t kMaxErrors = 5;

// ---------------------------------------------------------------------------
// The server process.

struct ServerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;   // closing it stops the server
  int stdout_fd = -1;
  std::uint16_t port = 0;
};

bool StartServer(const std::string& path, ServerProcess* server,
                 std::string* why) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return *why = "pipe", false;
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return *why = "pipe", false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  char* const argv[] = {const_cast<char*>(path.c_str()), nullptr};
  const int rc = posix_spawn(&server->pid, path.c_str(), &actions, nullptr,
                             argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  server->stdin_fd = in_pipe[1];
  server->stdout_fd = out_pipe[0];
  if (rc != 0) {
    server->pid = -1;
    return *why = std::string("spawn: ") + std::strerror(rc), false;
  }
  // "port <N>\n" once the server accepts.
  std::string line;
  const double deadline = Now() + kTimeoutMs * 1e-3;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{server->stdout_fd, POLLIN, 0};
    const int left = static_cast<int>((deadline - Now()) * 1e3);
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      return *why = "server did not report its port", false;
    }
    char buffer[64];
    const ssize_t n = ::read(server->stdout_fd, buffer, sizeof(buffer));
    if (n <= 0) return *why = "server exited during start-up", false;
    line.append(buffer, static_cast<std::size_t>(n));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "port %u", &port) != 1 || port == 0) {
    return *why = "bad server greeting: " + line, false;
  }
  server->port = static_cast<std::uint16_t>(port);
  return true;
}

void StopServer(ServerProcess& server) {
  if (server.stdin_fd >= 0) ::close(server.stdin_fd);
  server.stdin_fd = -1;
  if (server.pid > 0) {
    int status = 0;
    const double deadline = Now() + 10.0;
    while (::waitpid(server.pid, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        ::kill(server.pid, SIGKILL);
        ::waitpid(server.pid, &status, 0);
        break;
      }
      ::poll(nullptr, 0, 5);
    }
    server.pid = -1;
  }
  if (server.stdout_fd >= 0) ::close(server.stdout_fd);
  server.stdout_fd = -1;
}

double ProcessCpuSeconds(pid_t pid) {
  clockid_t clock;
  if (clock_getcpuclockid(pid, &clock) != 0) return 0.0;
  timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmRSS / VmHWM of a process, kB (0 when unreadable).
double StatusKb(const std::string& pid, const char* field) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size());
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Shared result bookkeeping for the generator threads.

class Ledger {
 public:
  explicit Ledger(LiveRun& run) : run_(run) {}
  void Error(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    run_.correct = false;
    if (run_.errors.size() < kMaxErrors) run_.errors.push_back(why);
  }
  template <typename Fn>
  void Merge(Fn fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(run_);
  }

 private:
  LiveRun& run_;
  std::mutex mutex_;
};

// Per-thread tallies, merged once at the end.
struct Tally {
  std::uint64_t attempted = 0, failed = 0, requests = 0, wire = 0;
  std::uint64_t coded_wire = 0, coded_entity = 0;
  std::vector<double> view_ms, connect_us;
  std::vector<std::string> failed_items;
  double cpu = 0.0;

  void MergeInto(LiveRun& run) const {
    run.views_attempted += attempted;
    run.views_failed += failed;
    run.client_requests += requests;
    run.wire_bytes += wire;
    run.coded_wire_bytes += coded_wire;
    run.coded_entity_bytes += coded_entity;
    run.view_ms.insert(run.view_ms.end(), view_ms.begin(), view_ms.end());
    run.connect_us.insert(run.connect_us.end(), connect_us.begin(),
                          connect_us.end());
    for (const std::string& item : failed_items) {
      bool seen = false;
      for (const std::string& known : run.failed_items) seen |= known == item;
      if (!seen) run.failed_items.push_back(item);
    }
    run.client_cpu_seconds += cpu;
  }
};

void CountCoded(const WireResponse& response, std::size_t entity_bytes,
                Tally& tally) {
  if (response.content_encoding) {
    tally.coded_wire += response.body.size();
    tally.coded_entity += entity_bytes;
  }
}

// Root-relative <img> links of a page: the unique assets a browser fetches.
std::vector<std::string> LinkedAssets(const Bytes& html) {
  std::vector<std::string> links;
  auto document = sww::html::ParseDocument(sww::util::ToString(html));
  if (!document.ok()) return links;
  for (sww::html::Node* img : document.value()->FindByTag("img")) {
    const std::string src = img->GetAttribute("src").value_or("");
    if (!src.empty() && src[0] == '/') links.push_back(src);
  }
  return links;
}

// ---------------------------------------------------------------------------
// prompt_visits: one short visit per view, kVisitsInFlight at a time per
// thread, so the shard has the next request waiting more often than not.

constexpr std::size_t kVisitsInFlight = 2;

struct VisitSlot {
  enum class Step { kSettings, kPage, kAssets };
  std::unique_ptr<H2Client> client;
  const View* view = nullptr;
  double start = 0.0;
  Step step = Step::kSettings;
  std::uint32_t page_id = 0;
  std::vector<std::string> links;
  std::vector<std::uint32_t> asset_ids;
};

// Move a visit on as far as what was read allows; false once it has ended
// (done or failed), so the slot can take the next view.
bool AdvanceVisit(const Site& site, VisitSlot& slot, Ledger& ledger,
                  Tally& tally) {
  H2Client& c = *slot.client;
  const SitePage& page = site.Page(slot.view->page);
  for (;;) {
    switch (slot.step) {
      case VisitSlot::Step::kSettings: {
        if (!c.settings_received()) return true;
        tally.connect_us.push_back((Now() - slot.start) * 1e6);
        auto id = c.Get(page.path, slot.view->swz);
        if (!id.ok() || !c.Poll(0, false).ok()) {
          ledger.Error("visit page: submit failed");
          return false;
        }
        slot.page_id = id.value();
        slot.step = VisitSlot::Step::kPage;
        continue;
      }
      case VisitSlot::Step::kPage: {
        if (!c.Done(slot.page_id)) return true;
        auto response = c.Take(slot.page_id);
        if (!response.ok()) {
          ledger.Error("visit page: " + response.error().ToString());
          return false;
        }
        const WireResponse wire = FromResponse(response.value());
        Bytes entity;
        if (std::string why = CheckPromptPage(wire, page.html, &entity);
            !why.empty()) {
          ledger.Error(page.path + ": " + why);
          return false;
        }
        CountCoded(wire, entity.size(), tally);
        if (slot.view->swz != wire.content_encoding.has_value()) {
          ledger.Error(page.path + ": swz coding does not follow accept-encoding");
          return false;
        }
        slot.links = LinkedAssets(entity);
        if (slot.links != page.unique_assets) {
          ledger.Error(page.path + ": linked assets differ from the stored ones");
          return false;
        }
        for (const std::string& link : slot.links) {
          auto id = c.Get(link, slot.view->swz);
          if (!id.ok()) {
            ledger.Error(link + ": submit failed");
            return false;
          }
          slot.asset_ids.push_back(id.value());
        }
        if (!c.Poll(0, false).ok()) {
          ledger.Error(page.path + ": connection failed");
          return false;
        }
        slot.step = VisitSlot::Step::kAssets;
        continue;
      }
      case VisitSlot::Step::kAssets: {
        for (std::uint32_t id : slot.asset_ids) {
          if (!c.Done(id)) return true;
        }
        for (std::size_t i = 0; i < slot.asset_ids.size(); ++i) {
          auto asset = c.Take(slot.asset_ids[i]);
          std::string why = asset.ok() ? CheckAsset(FromResponse(asset.value()),
                                                    site.assets.at(slot.links[i]))
                                       : asset.error().ToString();
          if (!why.empty()) {
            ledger.Error(slot.links[i] + ": " + why);
            return false;
          }
        }
        tally.view_ms.push_back((Now() - slot.start) * 1e3);
        tally.requests += 1 + slot.links.size();
        tally.wire += c.connection().wire_stats().bytes_received;
        return false;
      }
    }
  }
}

void VisitLoop(const Site& site, std::uint16_t port,
               const std::vector<View>& views, Ledger& ledger, Tally& tally) {
  std::size_t next = 0;
  // Start the next view in `slot`; false when none is left.
  auto begin = [&](VisitSlot& slot) {
    slot = VisitSlot{};
    while (next < views.size()) {
      slot.view = &views[next++];
      ++tally.attempted;
      slot.start = Now();
      auto client = H2Client::Connect(port, 1);
      if (client.ok()) {
        slot.client = std::move(client).value();
        return true;
      }
      ledger.Error("visit connect: " + client.error().ToString());
    }
    return false;
  };
  std::array<VisitSlot, kVisitsInFlight> slots;
  for (VisitSlot& slot : slots) begin(slot);
  for (;;) {
    std::array<pollfd, kVisitsInFlight> fds;
    std::array<VisitSlot*, kVisitsInFlight> polled;
    nfds_t count = 0;
    for (VisitSlot& slot : slots) {
      if (!slot.client) continue;
      fds[count] = pollfd{slot.client->fd(), POLLIN, 0};
      polled[count++] = &slot;
    }
    if (count == 0) return;
    int ready;
    do {
      ready = ::poll(fds.data(), count, kTimeoutMs);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      ledger.Error("visits: no response within the timeout");
      return;
    }
    for (nfds_t i = 0; i < count; ++i) {
      if (fds[i].revents == 0) continue;
      VisitSlot& slot = *polled[i];
      bool going = slot.client->Poll(0, false).ok();
      if (!going) ledger.Error("visit: connection failed");
      going = going && AdvanceVisit(site, slot, ledger, tally);
      if (!going) begin(slot);
    }
  }
}

// ---------------------------------------------------------------------------
// legacy_hol: server-materialized pages on one persistent connection.

void LegacyLoop(const Site& site, H2Client& c, const std::vector<View>& views,
                Ledger& ledger, Tally& tally) {
  const std::uint64_t wire_start = c.connection().wire_stats().bytes_received;
  for (const View& view : views) {
    const SitePage& page = site.Page(view.page);
    ++tally.attempted;
    const double start = Now();
    auto id = c.Get(page.path, false);
    auto response = id.ok() ? c.Await(id.value(), kTimeoutMs)
                            : sww::util::Result<sww::core::Response>(id.error());
    if (!response.ok()) {
      ledger.Error("legacy page: " + response.error().ToString());
      return;  // the connection is unusable
    }
    std::vector<std::string> generated, unique;
    if (std::string why = CheckLegacyPage(FromResponse(response.value()), page,
                                          &generated, &unique);
        !why.empty()) {
      ledger.Error(page.path + ": " + why);
      continue;
    }
    std::vector<std::uint32_t> ids;
    for (const std::string& path : generated) ids.push_back(c.Get(path, false).value_or(0));
    for (const std::string& path : unique) ids.push_back(c.Get(path, false).value_or(0));
    bool ok = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto asset = ids[i] == 0
                       ? sww::util::Result<sww::core::Response>(
                             sww::util::ErrorCode::kInternal, "submit failed")
                       : c.Await(ids[i], kTimeoutMs);
      std::string why;
      if (!asset.ok()) {
        why = asset.error().ToString();
      } else if (i < generated.size()) {
        why = CheckLegacyImage(FromResponse(asset.value()), page.image_dims[i]);
      } else {
        why = CheckAsset(FromResponse(asset.value()),
                         site.assets.at(unique[i - generated.size()]));
      }
      if (!why.empty()) {
        ledger.Error(page.path + " asset " + std::to_string(i) + ": " + why);
        ok = false;
        if (!asset.ok()) return;
      }
    }
    if (!ok) continue;
    tally.view_ms.push_back((Now() - start) * 1e3);
    tally.requests += 1 + ids.size();
  }
  tally.wire += c.connection().wire_stats().bytes_received - wire_start;
}

// ---------------------------------------------------------------------------
// page_render: on-device rendering through core::GenerativeClient.

struct RenderClient {
  std::unique_ptr<sww::core::GenerativeClient> client;
  int fd = -1;
  ~RenderClient() { CloseAbortive(fd); }
};

std::unique_ptr<RenderClient> OpenRenderClient(std::uint16_t port,
                                               std::string* why) {
  sww::core::GenerativeClient::Options options;
  options.advertised_ability = 1;
  options.accept_compression = true;
  options.generator.pool = nullptr;  // GenerateBatch serially, on this thread
  auto client = sww::core::GenerativeClient::Create(options);
  if (!client.ok()) return *why = client.error().ToString(), nullptr;
  auto render = std::make_unique<RenderClient>();
  render->client = std::move(client).value();
  render->fd = ConnectLoopback(port);
  if (render->fd < 0) return *why = "connect failed", nullptr;
  render->client->StartHandshake();
  auto& conn = render->client->connection();
  while (!conn.remote_settings_received()) {
    if (auto status = Exchange(render->fd, conn, kTimeoutMs); !status.ok()) {
      return *why = status.ToString(), nullptr;
    }
  }
  return render;
}

void RenderLoop(const Site& site, RenderClient& render,
                const std::vector<View>& views, Ledger& ledger, Tally& tally) {
  auto& conn = render.client->connection();
  const std::uint64_t wire_start = conn.wire_stats().bytes_received;
  const sww::core::GenerativeClient::PumpFn pump = [&] {
    return Exchange(render.fd, conn, kTimeoutMs);
  };
  for (const View& view : views) {
    const SitePage& page = site.Page(view.page);
    ++tally.attempted;
    const double start = Now();
    auto fetch = render.client->FetchPage(page.path, pump);
    const double elapsed_ms = (Now() - start) * 1e3;
    if (!fetch.ok()) {
      ledger.Error(page.path + ": " + fetch.error().ToString());
      return;
    }
    const sww::core::PageFetch& result = fetch.value();
    const sww::core::Response& response = result.response;
    std::string why;
    if (response.status != 200 || result.mode != "generative") {
      why = "page not served generatively";
    } else if (sww::util::ToString(response.body) != page.html) {
      why = "page body differs from the stored html";
    } else if (!response.Header("content-encoding").has_value()) {
      // Every prompt page is text well over MaybeCompress's 128-byte floor.
      why = "page accepted swz but came uncoded";
    } else if (response.wire_body_bytes >= response.body.size()) {
      why = "swz body is not smaller than its entity";
    }
    std::vector<std::pair<int, int>> dims;
    std::vector<std::string> failed_items;
    for (const sww::core::GeneratedMedia& media : result.media) {
      if (media.type == sww::html::GeneratedContentType::kImage) {
        dims.emplace_back(media.width, media.height);
      }
      if (media.has_verification && !media.verification.verified()) {
        failed_items.push_back(media.name);
      }
    }
    if (why.empty()) {
      why = CheckRender(page, result.verified_items,
                        result.failed_verification_items, dims);
    }
    for (std::size_t i = 0; why.empty() && i < page.unique_assets.size(); ++i) {
      auto file = result.files.find(page.unique_assets[i]);
      if (file == result.files.end() ||
          file->second != site.assets.at(page.unique_assets[i])) {
        why = "unique asset " + page.unique_assets[i] + " differs";
      }
    }
    if (!why.empty()) {
      ledger.Error(page.path + ": " + why);
      continue;
    }
    tally.coded_wire += response.wire_body_bytes;
    tally.coded_entity += response.body.size();
    // The named §7 fault: the view rendered, but items failed verification.
    if (!failed_items.empty()) {
      ++tally.failed;
      tally.failed_items.insert(tally.failed_items.end(), failed_items.begin(),
                                failed_items.end());
    }
    tally.view_ms.push_back(elapsed_ms);
    tally.requests += 1 + page.unique_assets.size();
  }
  tally.wire += conn.wire_stats().bytes_received - wire_start;
}

// ---------------------------------------------------------------------------
// The open-loop probe.

void ProbeLoop(const Site& site, H2Client& c, double start,
               const std::atomic<bool>& stop, Ledger& ledger) {
  std::map<std::uint32_t, double> due_by_stream;
  std::uint64_t attempted = 0, failed = 0, coded_wire = 0, coded_entity = 0;
  std::vector<double> latency_ms, lateness_ms;
  auto collect = [&] {
    for (auto it = due_by_stream.begin(); it != due_by_stream.end();) {
      if (!c.Done(it->first)) {
        ++it;
        continue;
      }
      const double done = Now();
      auto response = c.Take(it->first);
      std::string why = response.ok()
                            ? CheckArticle(FromResponse(response.value()),
                                                  site.article_html)
                            : response.error().ToString();
      if (why.empty()) {
        latency_ms.push_back((done - it->second) * 1e3);
        coded_wire += response.value().body.size();
        coded_entity += site.article_html.size();
      } else {
        ++failed;
        ledger.Error("probe: " + why);
      }
      it = due_by_stream.erase(it);
    }
  };
  bool broken = false;
  for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const double due = start + static_cast<double>(k) / kProbeRatePerSecond;
    for (double now = Now(); now < due && !stop.load(std::memory_order_relaxed);
         now = Now()) {
      // Wait on the socket until kSpinSeconds before the due time (answers
      // wake it), then busy-wait the rest so the send is not late.
      if (const double wait = due - now - kSpinSeconds; wait > 0) {
        pollfd pfd{c.fd(), POLLIN, 0};
        const timespec timeout{0, static_cast<long>(wait * 1e9)};
        ::ppoll(&pfd, 1, &timeout, nullptr);
      }
      if (auto status = c.Poll(0, false); !status.ok()) {
        ledger.Error("probe connection: " + status.ToString());
        broken = true;
        break;
      }
      collect();
    }
    if (broken || stop.load(std::memory_order_relaxed)) break;
    lateness_ms.push_back((Now() - due) * 1e3);
    ++attempted;
    auto id = c.Get(site.article_path, true);
    if (!id.ok()) {
      ++failed;
      ledger.Error("probe submit: " + id.error().ToString());
      continue;
    }
    due_by_stream[id.value()] = due;
    if (auto status = c.Poll(0, false); !status.ok()) {
      ledger.Error("probe connection: " + status.ToString());
      broken = true;
      break;
    }
    collect();
  }
  const double deadline = Now() + kTimeoutMs * 1e-3;
  while (!broken && !due_by_stream.empty() && Now() < deadline) {
    if (!c.Poll(static_cast<int>((deadline - Now()) * 1e3) + 1).ok()) break;
    collect();
  }
  if (!due_by_stream.empty()) {
    failed += due_by_stream.size();
    ledger.Error("probe: " + std::to_string(due_by_stream.size()) +
                 " responses never arrived");
  }
  ledger.Merge([&](LiveRun& r) {
    r.probes_attempted = attempted;
    r.probes_failed = failed;
    r.probe_ms = std::move(latency_ms);
    r.probe_lateness_ms = std::move(lateness_ms);
    r.coded_wire_bytes += coded_wire;
    r.coded_entity_bytes += coded_entity;
  });
}

sww::tools::MetricsSample Scrape(std::uint16_t port, Ledger& ledger) {
  auto client = H2Client::Open(port, 1, kTimeoutMs);
  if (!client.ok()) {
    ledger.Error("metrics scrape: " + client.error().ToString());
    return {};
  }
  auto id = client.value()->Get("/metrics", false);
  auto response = id.ok() ? client.value()->Await(id.value(), kTimeoutMs)
                          : sww::util::Result<sww::core::Response>(id.error());
  if (!response.ok() || response.value().status != 200) {
    ledger.Error("metrics scrape failed");
    return {};
  }
  auto scrape =
      sww::tools::ParsePrometheusText(sww::util::ToString(response.value().body));
  if (!scrape.ok()) {
    ledger.Error("metrics scrape: " + scrape.error().ToString());
    return {};
  }
  return std::move(scrape).value();
}

// The connections a workload holds from the start.
struct Connections {
  std::unique_ptr<H2Client> probe;
  std::unique_ptr<H2Client> legacy;
  std::unique_ptr<RenderClient> render;
};

bool OpenConnections(Workload workload, std::uint16_t port, Connections* out,
                     std::vector<double>* connect_us, std::string* why) {
  auto timed_open = [&](std::uint32_t ability) -> std::unique_ptr<H2Client> {
    const double start = Now();
    auto client = H2Client::Open(port, ability, kTimeoutMs);
    if (!client.ok()) return *why = client.error().ToString(), nullptr;
    connect_us->push_back((Now() - start) * 1e6);
    return std::move(client).value();
  };
  if (ShapeOf(workload).probe) {
    out->probe = timed_open(1);
    if (!out->probe) return false;
  }
  switch (workload) {
    case Workload::kPromptVisits:
      // Each visit opens its own connection; the first ones are opened
      // (and closed) here so set-up covers a ready visit path.
      for (std::size_t i = 0; i < ShapeOf(workload).threads * kVisitsInFlight;
           ++i) {
        if (!timed_open(1)) return false;
      }
      return true;
    case Workload::kLegacyHol:
      out->legacy = timed_open(0);
      return out->legacy != nullptr;
    case Workload::kPageRender: {
      const double start = Now();
      out->render = OpenRenderClient(port, why);
      if (!out->render) return false;
      connect_us->push_back((Now() - start) * 1e6);
      return true;
    }
  }
  return false;
}

}  // namespace

LiveRun RunLive(const Site& site, Workload workload, std::uint64_t seed,
                int seconds, const std::string& server_path) {
  LiveRun run;
  Ledger ledger(run);
  const Shape shape = ShapeOf(workload);
  const int rounds = RoundsFor(workload, seconds);

  // Set-up, kSetups times; the last server and its connections are kept.
  ServerProcess server;
  Connections connections;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    const double start = Now();
    std::string why;
    if (!StartServer(server_path, &server, &why) ||
        !OpenConnections(workload, server.port, &connections, &run.connect_us,
                         &why)) {
      ledger.Error("set-up: " + why);
      StopServer(server);
      return run;
    }
    run.setup_seconds.push_back(Now() - start);
    if (attempt + 1 < kSetups) {
      connections = Connections{};
      StopServer(server);
    }
  }
  // Connect samples from set-up only describe the workload's own path in
  // prompt_visits, where the visits add their own; keep them elsewhere.
  if (workload == Workload::kPromptVisits) run.connect_us.clear();

  const std::string pid = std::to_string(server.pid);
  run.scrape_before = Scrape(server.port, ledger);
  run.server_rss_after_setup_kb = StatusKb(pid, "VmRSS");
  run.client_rss_after_setup_kb = StatusKb("self", "VmRSS");
  const double server_cpu_start = ProcessCpuSeconds(server.pid);

  std::atomic<bool> stop{false};
  const double start = Now();
  std::thread probe;
  if (connections.probe) {
    probe = std::thread([&] {
      ProbeLoop(site, *connections.probe, start, stop, ledger);
    });
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < shape.threads; ++t) {
    threads.emplace_back([&, t] {
      Tally tally;
      const std::vector<View> views =
          MakeSequence(seed, static_cast<std::uint64_t>(t), rounds);
      const double cpu_start = ThreadCpuSeconds();
      switch (workload) {
        case Workload::kPromptVisits:
          VisitLoop(site, server.port, views, ledger, tally);
          break;
        case Workload::kLegacyHol:
          LegacyLoop(site, *connections.legacy, views, ledger, tally);
          break;
        case Workload::kPageRender:
          RenderLoop(site, *connections.render, views, ledger, tally);
          break;
      }
      tally.cpu = ThreadCpuSeconds() - cpu_start;
      ledger.Merge([&](LiveRun& r) { tally.MergeInto(r); });
    });
  }
  for (std::thread& thread : threads) thread.join();
  run.phase_seconds = Now() - start;
  stop.store(true);
  if (probe.joinable()) probe.join();

  run.server_cpu_seconds = ProcessCpuSeconds(server.pid) - server_cpu_start;
  run.scrape_after = Scrape(server.port, ledger);
  run.server_peak_rss_kb = StatusKb(pid, "VmHWM");
  run.client_peak_rss_kb = StatusKb("self", "VmHWM");
  connections = Connections{};
  StopServer(server);
  return run;
}

}  // namespace lb
