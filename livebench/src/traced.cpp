// traced.cpp — the per-layer (traced) replay.
//
// One thread drives both ends of a socketpair: the server half is exactly
// what a reactor shard runs per readiness event (read, Connection::Receive,
// GenerativeServer::ProcessEvents, net::WriteQueue::Flush), the client
// half is the same client the live run uses.  Every call is a span in the
// benchmark's own SpanRecorder.  html, genai and compress run inside
// ProcessEvents / FetchPage where no public seam reaches, so they are
// re-timed on the same inputs and recorded as children of the call they
// ran in; a layer's self time is its span minus its children.
#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <memory>
#include <set>
#include <sys/socket.h>
#include <unistd.h>

#include "checks.hpp"
#include "compress/swz.hpp"
#include "core/client.hpp"
#include "core/media_generator.hpp"
#include "core/server.hpp"
#include "h2client.hpp"
#include "hpack/hpack.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "net/write_queue.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace lb {
namespace {

using sww::util::Bytes;
using sww::util::Error;
using sww::util::ErrorCode;
using sww::util::Status;

constexpr int kMaxSteps = 1'000'000;

// Read everything available on a non-blocking fd.
Bytes ReadAvailable(int fd, bool* closed) {
  Bytes bytes;
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      bytes.insert(bytes.end(), buffer, buffer + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) *closed = true;
    return bytes;
  }
}

// Accumulators the metrics are computed from.
struct Totals {
  std::uint64_t views = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t server_spans = 0;   // obs::Tracer growth in server calls
  double server_seconds = 0.0;      // top-level server spans
  double client_seconds = 0.0;      // client work, server time excluded
  std::uint64_t items = 0;
  double megapixels = 0.0;
  std::uint64_t header_block_bytes = 0;
  // Header lists per connection, in wire order, for the hpack replay.
  std::vector<std::vector<sww::hpack::HeaderList>> request_lists;
  std::vector<std::vector<sww::hpack::HeaderList>> response_lists;
};

// One connected client/server pair over a socketpair.
class Pair {
 public:
  Pair(const sww::core::ContentStore* store, SpanRecorder& recorder,
       Totals& totals, sww::http2::Connection* client_connection)
      : recorder_(recorder), totals_(totals), tap_("traced-client") {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0) {
      client_fd_ = fds[0];
      server_fd_ = fds[1];
      for (int fd : fds) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    server_ = std::move(sww::core::GenerativeServer::Create(store, {})).value();
    server_->StartHandshake();
    client_ = client_connection;
    client_->SetWireTap(&tap_);
    totals_.request_lists.emplace_back();
    totals_.response_lists.emplace_back();
    list_index_ = totals_.request_lists.size() - 1;
  }
  ~Pair() {
    client_->SetWireTap(nullptr);
    ::close(client_fd_);
    ::close(server_fd_);
  }

  sww::http2::Connection& client() { return *client_; }
  int client_fd() const { return client_fd_; }

  /// The longest core.process span since the last reset: the call that
  /// served the request's page, which re-timed children attach to.
  void ResetProcessSpan() {
    process_span_ = SpanRecorder::kNoParent;
    process_seconds_ = -1.0;
  }
  int process_span() const { return process_span_; }

  /// One shard step: read, Receive, ProcessEvents, Flush.
  Status ServerStep(std::uint64_t request, int parent) {
    const std::size_t spans_before = sww::obs::Tracer::Default().finished_count();
    const double t0 = Now();
    bool closed = false;
    const Bytes input = ReadAvailable(server_fd_, &closed);
    const double t1 = Now();
    Status status = Status::Ok();
    if (!input.empty()) {
      recorder_.Add("server.net.read", request, parent, t0, t1);
      totals_.server_seconds += t1 - t0;
      {
        const double start = Now();
        status = server_->connection().Receive(input);
        const double end = Now();
        recorder_.Add("server.http2.receive", request, parent, start, end);
        totals_.server_seconds += end - start;
      }
      if (status.ok()) {
        const std::uint64_t before = server_->stats().requests;
        const double start = Now();
        status = server_->ProcessEvents();
        const double end = Now();
        const int id =
            recorder_.Add("server.core.process", request, parent, start, end);
        totals_.server_seconds += end - start;
        totals_.server_requests += server_->stats().requests - before;
        if (end - start > process_seconds_) {
          process_seconds_ = end - start;
          process_span_ = id;
        }
      }
    }
    if (status.ok() && (server_->connection().HasOutput() || !queue_.empty())) {
      const double start = Now();
      status = queue_.Flush(server_fd_, server_->connection());
      const double end = Now();
      recorder_.Add("server.net.flush", request, parent, start, end);
      totals_.server_seconds += end - start;
    }
    totals_.server_spans +=
        sww::obs::Tracer::Default().finished_count() - spans_before;
    if (status.ok() && closed) status = Error(ErrorCode::kClosed, "client closed");
    return status;
  }

  /// One client step: flush requests, read and Receive responses.
  Status ClientStep(std::uint64_t request, bool timed) {
    const double t0 = Now();
    Status status = client_queue_.Flush(client_fd_, *client_);
    bool closed = false;
    const Bytes input = ReadAvailable(client_fd_, &closed);
    const double t1 = Now();
    if (timed) {
      recorder_.Add("client.net.io", request, SpanRecorder::kNoParent, t0, t1);
      totals_.client_seconds += t1 - t0;
    }
    if (status.ok() && !input.empty()) {
      status = client_->Receive(input);
      const double t2 = Now();
      if (timed) {
        recorder_.Add("client.http2.receive", request, SpanRecorder::kNoParent,
                      t1, t2);
        totals_.client_seconds += t2 - t1;
      }
      if (status.ok()) status = client_queue_.Flush(client_fd_, *client_);
    }
    CollectTap();
    if (status.ok() && closed) status = Error(ErrorCode::kClosed, "server closed");
    return status;
  }

  /// Step both ends until `done()` holds.
  template <typename Done>
  Status DriveUntil(std::uint64_t request, Done done) {
    for (int step = 0; step < kMaxSteps; ++step) {
      if (done()) return Status::Ok();
      if (Status status = ClientStep(request, true); !status.ok()) return status;
      if (Status status = ServerStep(request, SpanRecorder::kNoParent);
          !status.ok()) {
        return status;
      }
    }
    return Error(ErrorCode::kInternal, "replay made no progress");
  }

  /// HEADERS seen by the client tap: lists for the hpack replay, payload
  /// lengths for the header-byte count.
  void CollectTap() {
    for (const sww::obs::FrameRecord& record : tap_.Records()) {
      if (record.type != 0x1) continue;  // HEADERS
      totals_.header_block_bytes += record.length;
      sww::hpack::HeaderList list;
      for (const auto& [name, value] : record.details) {
        list.push_back({name, value, false});
      }
      auto& lists = record.direction == sww::obs::TapDirection::kSent
                        ? totals_.request_lists[list_index_]
                        : totals_.response_lists[list_index_];
      lists.push_back(std::move(list));
    }
    tap_.Clear();
  }

 private:
  SpanRecorder& recorder_;
  Totals& totals_;
  sww::obs::ConnectionTap tap_;
  int client_fd_ = -1, server_fd_ = -1;
  std::unique_ptr<sww::core::GenerativeServer> server_;
  sww::http2::Connection* client_ = nullptr;
  sww::net::WriteQueue queue_, client_queue_;
  std::size_t list_index_ = 0;
  int process_span_ = SpanRecorder::kNoParent;
  double process_seconds_ = -1.0;
};

// A raw client connection (the live run's H2Client, minus the socket).
std::unique_ptr<sww::http2::Connection> RawClient(std::uint32_t ability) {
  sww::http2::Connection::Options options;
  options.local_settings.set_gen_ability(ability);
  options.local_settings.set_enable_push(false);
  options.local_settings.set_initial_window_size(1 << 20);
  return std::make_unique<sww::http2::Connection>(
      sww::http2::Connection::Role::kClient, options);
}

sww::hpack::HeaderList GetHeaders(const std::string& path, bool swz) {
  sww::core::Request request;
  request.path = path;
  request.authority = "sww.local";
  if (swz) request.extra_headers.push_back({"accept-encoding", "swz", false});
  return request.ToHeaders();
}

class Replay {
 public:
  Replay(const Site& site, SpanRecorder& recorder, TracedRun& out)
      : site_(site), recorder_(recorder), out_(out) {
    if (auto status = InstallSite(site, store_); !status.ok()) {
      Fail("site: " + status.ToString());
    }
    server_generator_ = std::make_unique<sww::core::MediaGenerator>(
        std::move(sww::core::MediaGenerator::Create(sww::energy::Workstation(), {}))
            .value());
    client_generator_ = std::make_unique<sww::core::MediaGenerator>(
        std::move(sww::core::MediaGenerator::Create(sww::energy::Laptop(), {}))
            .value());
  }

  Totals& totals() { return totals_; }

  void Fail(const std::string& why) {
    out_.correct = false;
    if (out_.errors.size() < 5) out_.errors.push_back("traced: " + why);
  }

  // A raw GET on `pair`; returns the parsed response (status 0 on error).
  sww::core::Response Get(Pair& pair, std::uint64_t request,
                          const std::string& path, bool swz) {
    auto id = pair.client().SubmitRequest(GetHeaders(path, swz), {});
    if (!id.ok()) {
      Fail(id.error().ToString());
      return {};
    }
    std::set<std::uint32_t> done;
    auto complete = [&] {
      using Type = sww::http2::Connection::Event::Type;
      for (const auto& event : pair.client().TakeEvents()) {
        if (event.type == Type::kMessageComplete ||
            event.type == Type::kStreamReset) {
          done.insert(event.stream_id);
        }
      }
      return done.count(id.value()) != 0;
    };
    if (Status status = pair.DriveUntil(request, complete); !status.ok()) {
      Fail(path + ": " + status.ToString());
      return {};
    }
    const sww::http2::Stream* stream = pair.client().FindStream(id.value());
    auto response = sww::core::ParseResponse(stream->headers, stream->body);
    pair.client().ReleaseStream(id.value());
    if (!response.ok()) {
      Fail(path + ": " + response.error().ToString());
      return {};
    }
    return std::move(response).value();
  }

  // Handshake a fresh pair until the client saw the server's SETTINGS.
  void Handshake(Pair& pair, std::uint64_t request) {
    pair.client().StartHandshake();
    if (Status status = pair.DriveUntil(
            request, [&] { return pair.client().remote_settings_received(); });
        !status.ok()) {
      Fail("handshake: " + status.ToString());
    }
  }

  // Re-timed server-side swz encode, child of the call that coded it.
  void RetimeEncode(const std::string& entity, Pair& pair,
                    std::uint64_t request) {
    const double start = Now();
    const Bytes coded = sww::compress::SwzCompress(sww::util::ToBytes(entity));
    recorder_.Add("server.compress.encode", request, pair.process_span(), start,
                  Now());
    (void)coded;
  }

  // Re-timed client-side swz decode of what the server sent.
  void RetimeDecode(const sww::core::Response& response, std::uint64_t request,
                    int parent) {
    if (!response.Header("content-encoding").has_value()) return;
    const double start = Now();
    auto decoded = sww::compress::SwzDecompress(response.body);
    const double end = Now();
    recorder_.Add("client.compress.decode", request, parent, start, end);
    if (parent == SpanRecorder::kNoParent) totals_.client_seconds += end - start;
    (void)decoded;
  }

  // Re-timed client-side parse (asset discovery or the legacy checks).
  void RetimeClientParse(const Bytes& html, std::uint64_t request) {
    const double start = Now();
    auto document = sww::html::ParseDocument(sww::util::ToString(html));
    const double end = Now();
    recorder_.Add("client.html.parse", request, SpanRecorder::kNoParent, start,
                  end);
    totals_.client_seconds += end - start;
  }

  // Re-time one page render: parse, generate, splice and serialize with
  // `generator`, the spans named "<side>.*" under `parent`.
  void RetimeRender(const std::string& html, const std::string& side,
                    sww::core::MediaGenerator& generator, bool batch,
                    std::uint64_t request, int parent) {
    double start = Now();
    auto document = sww::html::ParseDocument(html);
    auto extraction = sww::html::ExtractGeneratedContent(*document.value());
    recorder_.Add(side + ".html.parse", request, parent, start, Now());
    start = Now();
    if (batch) {
      auto generated = generator.GenerateBatch(extraction.specs);
      recorder_.Add(side + ".genai.generate", request, parent, start, Now());
      start = Now();
      for (std::size_t i = 0; i < extraction.specs.size(); ++i) {
        sww::core::MediaGenerator::Splice(extraction.specs[i],
                                          generated.value().items[i]);
      }
      CountItems(generated.value().items);
    } else {
      std::vector<sww::core::GeneratedMedia> items;
      for (auto& spec : extraction.specs) {
        items.push_back(std::move(generator.GenerateAndReplace(spec)).value());
      }
      recorder_.Add(side + ".genai.generate", request, parent, start, Now());
      start = Now();
      CountItems(items);
    }
    const std::string serialized = document.value()->Serialize();
    recorder_.Add(side + ".html.serialize", request, parent, start, Now());
  }

  void CountItems(const std::vector<sww::core::GeneratedMedia>& items) {
    for (const auto& media : items) {
      ++totals_.items;
      if (media.type == sww::html::GeneratedContentType::kImage) {
        totals_.megapixels += media.width * media.height * 1e-6;
      }
    }
  }

  void Visit(const View& view, std::uint64_t request) {
    const SitePage& page = site_.Page(view.page);
    auto client = RawClient(1);
    Pair pair(&store_, recorder_, totals_, client.get());
    Handshake(pair, request);
    pair.ResetProcessSpan();
    const sww::core::Response response = Get(pair, request, page.path, view.swz);
    Bytes entity;
    if (std::string why = CheckPromptPage(FromResponse(response), page.html, &entity);
        !why.empty()) {
      return Fail(page.path + ": " + why);
    }
    if (response.Header("content-encoding")) RetimeEncode(page.html, pair, request);
    RetimeDecode(response, request, SpanRecorder::kNoParent);
    RetimeClientParse(entity, request);
    for (const std::string& asset : page.unique_assets) {
      const sww::core::Response got = Get(pair, request, asset, view.swz);
      if (std::string why = CheckAsset(FromResponse(got), site_.assets.at(asset));
          !why.empty()) {
        Fail(asset + ": " + why);
      }
    }
  }

  void Legacy(Pair& pair, const View& view, std::uint64_t request) {
    const SitePage& page = site_.Page(view.page);
    pair.ResetProcessSpan();
    const sww::core::Response response = Get(pair, request, page.path, false);
    std::vector<std::string> generated, unique;
    if (std::string why =
            CheckLegacyPage(FromResponse(response), page, &generated, &unique);
        !why.empty()) {
      return Fail(page.path + ": " + why);
    }
    RetimeRender(page.html, "server", *server_generator_, false, request,
                 pair.process_span());
    RetimeClientParse(response.body, request);
    for (std::size_t i = 0; i < generated.size(); ++i) {
      const sww::core::Response got = Get(pair, request, generated[i], false);
      if (std::string why = CheckLegacyImage(FromResponse(got), page.image_dims[i]);
          !why.empty()) {
        Fail(generated[i] + ": " + why);
      }
    }
    for (const std::string& asset : unique) {
      const sww::core::Response got = Get(pair, request, asset, false);
      if (std::string why = CheckAsset(FromResponse(got), site_.assets.at(asset));
          !why.empty()) {
        Fail(asset + ": " + why);
      }
    }
  }

  void Render(Pair& pair, sww::core::GenerativeClient& client, const View& view,
              std::uint64_t request) {
    const SitePage& page = site_.Page(view.page);
    pair.ResetProcessSpan();
    const int fetch_span = recorder_.Begin("client.fetch_page", request);
    double server_inside = 0.0;
    const sww::core::GenerativeClient::PumpFn pump = [&]() -> Status {
      if (Status status = pair.ClientStep(request, false); !status.ok()) {
        return status;
      }
      const double before = totals_.server_seconds;
      Status status = pair.ServerStep(request, fetch_span);
      server_inside += totals_.server_seconds - before;
      if (!status.ok()) return status;
      return pair.ClientStep(request, false);
    };
    const double start = Now();
    auto fetch = client.FetchPage(page.path, pump);
    const double end = Now();
    recorder_.End(fetch_span);
    totals_.client_seconds += (end - start) - server_inside;
    if (!fetch.ok()) return Fail(page.path + ": " + fetch.error().ToString());
    if (sww::util::ToString(fetch.value().response.body) != page.html) {
      return Fail(page.path + ": page body differs from the stored html");
    }
    if (!fetch.value().response.Header("content-encoding")) {
      return Fail(page.path + ": page accepted swz but came uncoded");
    }
    RetimeEncode(page.html, pair, request);
    sww::core::Response coded = fetch.value().response;
    coded.body = sww::compress::SwzCompress(sww::util::ToBytes(page.html));
    RetimeDecode(coded, request, fetch_span);
    RetimeRender(page.html, "client", *client_generator_, true, request,
                 fetch_span);
  }

  void Probe(Pair& pair, std::uint64_t request) {
    pair.ResetProcessSpan();
    const sww::core::Response response =
        Get(pair, request, site_.article_path, true);
    if (std::string why = CheckArticle(FromResponse(response), site_.article_html);
        !why.empty()) {
      return Fail("probe: " + why);
    }
    RetimeEncode(site_.article_html, pair, request);
    RetimeDecode(response, request, SpanRecorder::kNoParent);
  }

  const sww::core::ContentStore& store() const { return store_; }

 private:
  const Site& site_;
  SpanRecorder& recorder_;
  TracedRun& out_;
  sww::core::ContentStore store_;
  std::unique_ptr<sww::core::MediaGenerator> server_generator_;
  std::unique_ptr<sww::core::MediaGenerator> client_generator_;
  Totals totals_;
};

// Median wall time of `fn` over `repeats` calls, seconds.
template <typename Fn>
double MedianSeconds(int repeats, Fn fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const double start = Now();
    fn();
    samples.push_back(Now() - start);
  }
  return *Quantile(samples, 0.5);
}

// Client+server Connection pair to SETTINGS ack, in memory.
void PairSetup() {
  sww::http2::Connection::Options options;
  options.local_settings.set_gen_ability(1);
  options.local_settings.set_enable_push(false);
  options.local_settings.set_initial_window_size(1 << 20);
  sww::http2::Connection client(sww::http2::Connection::Role::kClient, options);
  sww::http2::Connection server(sww::http2::Connection::Role::kServer, options);
  client.StartHandshake();
  server.StartHandshake();
  for (int i = 0; i < 8 && !(client.local_settings_acked() &&
                             server.local_settings_acked());
       ++i) {
    (void)server.Receive(client.OutputView());
    client.ClearOutput();
    (void)client.Receive(server.OutputView());
    server.ClearOutput();
  }
}

// Replay the recorded header lists through fresh HPACK contexts, one per
// connection and direction; returns {encode, decode} seconds per block.
std::pair<double, double> HpackReplay(const Totals& totals) {
  std::vector<double> encode_samples, decode_samples;
  std::size_t blocks = 0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    double encode = 0.0, decode = 0.0;
    blocks = 0;
    for (const auto* per_connection : {&totals.request_lists, &totals.response_lists}) {
      for (const auto& lists : *per_connection) {
        sww::hpack::Encoder encoder;
        sww::hpack::Decoder decoder;
        std::vector<Bytes> encoded;
        encoded.reserve(lists.size());
        double start = Now();
        for (const auto& list : lists) encoded.push_back(encoder.EncodeBlock(list));
        encode += Now() - start;
        start = Now();
        for (const Bytes& block : encoded) (void)decoder.DecodeBlock(block);
        decode += Now() - start;
        blocks += lists.size();
      }
    }
    encode_samples.push_back(encode);
    decode_samples.push_back(decode);
  }
  if (blocks == 0) return {0.0, 0.0};
  return {*Quantile(encode_samples, 0.5) / static_cast<double>(blocks),
          *Quantile(decode_samples, 0.5) / static_cast<double>(blocks)};
}

}  // namespace

TracedRun RunTraced(const Site& site, Workload workload, std::uint64_t seed,
                    int rounds, double probes_per_view,
                    const std::string& spans_path) {
  TracedRun out;
  SpanRecorder recorder;
  Replay replay(site, recorder, out);
  Totals& totals = replay.totals();

  // Set-up costs, in isolation.
  const double pair_setup = MedianSeconds(501, PairSetup);
  const double server_create = MedianSeconds(201, [&] {
    auto server = sww::core::GenerativeServer::Create(&replay.store(), {});
  });
  sww::core::GenerativeClient::Options render_options;
  render_options.advertised_ability = 1;
  render_options.accept_compression = true;
  const double client_create = MedianSeconds(51, [&] {
    auto client = sww::core::GenerativeClient::Create(render_options);
  });

  // The persistent connections of the workload and the probe.
  auto probe_client = RawClient(1);
  Pair probe_pair(&replay.store(), recorder, totals, probe_client.get());
  replay.Handshake(probe_pair, 0);
  std::unique_ptr<sww::http2::Connection> legacy_client;
  std::unique_ptr<Pair> legacy_pair;
  std::unique_ptr<sww::core::GenerativeClient> render_client;
  std::unique_ptr<Pair> render_pair;
  if (workload == Workload::kLegacyHol) {
    legacy_client = RawClient(0);
    legacy_pair = std::make_unique<Pair>(&replay.store(), recorder, totals,
                                         legacy_client.get());
    replay.Handshake(*legacy_pair, 0);
  } else if (workload == Workload::kPageRender) {
    render_client =
        std::move(sww::core::GenerativeClient::Create(render_options)).value();
    render_pair = std::make_unique<Pair>(&replay.store(), recorder, totals,
                                         &render_client->connection());
    replay.Handshake(*render_pair, 0);
  }
  // Set-up traffic is not a view's.
  totals.server_seconds = totals.client_seconds = 0.0;
  totals.server_requests = totals.server_spans = totals.header_block_bytes = 0;
  const std::size_t setup_spans = recorder.size();

  const std::vector<View> views = MakeSequence(seed, 0, rounds);
  double probe_credit = 0.0;
  std::uint64_t request = 0;
  for (const View& view : views) {
    ++request;
    switch (workload) {
      case Workload::kPromptVisits: replay.Visit(view, request); break;
      case Workload::kLegacyHol: replay.Legacy(*legacy_pair, view, request); break;
      case Workload::kPageRender:
        replay.Render(*render_pair, *render_client, view, request);
        break;
    }
    ++totals.views;
    for (probe_credit += probes_per_view; probe_credit >= 1.0; probe_credit -= 1.0) {
      replay.Probe(probe_pair, ++request);
    }
    if (!out.correct) break;
  }

  // Aggregate.
  const auto spans = recorder.Aggregate();
  auto total = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total;
  };
  auto self = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self;
  };
  const double views_n = static_cast<double>(std::max<std::uint64_t>(totals.views, 1));
  const double requests_n =
      static_cast<double>(std::max<std::uint64_t>(totals.server_requests, 1));
  const auto [encode_s, decode_s] = HpackReplay(totals);

  MetricSet& m = out.metrics;
  m.Set("http2.pair_setup_us", pair_setup * 1e6, "us");
  m.Set("core.server_create_us", server_create * 1e6, "us");
  m.Set("core.client_create_us", client_create * 1e6, "us");
  m.Set("net.io_us_per_request",
        (total("server.net.read") + total("server.net.flush")) * 1e6 / requests_n,
        "us");
  m.Set("http2.receive_us_per_request",
        total("server.http2.receive") * 1e6 / requests_n, "us");
  m.Set("core.process_self_us_per_request",
        self("server.core.process") * 1e6 / requests_n, "us");
  m.Set("hpack.encode_ns_per_block", encode_s * 1e9, "ns");
  m.Set("hpack.decode_ns_per_block", decode_s * 1e9, "ns");
  m.Set("hpack.header_bytes_per_view",
        static_cast<double>(totals.header_block_bytes) / views_n, "B");
  m.Set("html.parse_us_per_view",
        (total("server.html.parse") + total("client.html.parse")) * 1e6 / views_n,
        "us");
  m.Set("html.serialize_us_per_view",
        (total("server.html.serialize") + total("client.html.serialize")) * 1e6 /
            views_n,
        "us");
  m.Set("genai.server_generate_ms_per_view",
        total("server.genai.generate") * 1e3 / views_n, "ms");
  m.Set("genai.client_generate_ms_per_view",
        total("client.genai.generate") * 1e3 / views_n, "ms");
  m.Set("genai.items_per_view", static_cast<double>(totals.items) / views_n, "count");
  m.Set("genai.megapixels_per_view", totals.megapixels / views_n, "Mpx");
  m.Set("compress.swz_encode_us_per_view",
        total("server.compress.encode") * 1e6 / views_n, "us");
  m.Set("compress.swz_decode_us_per_view",
        total("client.compress.decode") * 1e6 / views_n, "us");
  m.Set("obs.spans_per_request",
        static_cast<double>(totals.server_spans) / requests_n, "count");
  out.server_ms_per_view = totals.server_seconds * 1e3 / views_n;
  out.client_ms_per_view = totals.client_seconds * 1e3 / views_n;
  out.spans = recorder.size() - setup_spans;

  // The recorder's own cost per span, to state the tracing overhead.
  SpanRecorder scratch;
  const double record_start = Now();
  for (int i = 0; i < 100'000; ++i) scratch.Add("x", 0, SpanRecorder::kNoParent, 0, 0);
  const double record_ns = (Now() - record_start) * 1e4;
  m.Set("trace.recorder_us_per_view",
        record_ns * 1e-3 * static_cast<double>(out.spans) / views_n, "us");

  if (!spans_path.empty()) {
    if (Status status = recorder.WriteJsonLines(spans_path); !status.ok()) {
      out.errors.push_back("spans file: " + status.ToString());
    }
  }
  return out;
}

}  // namespace lb
