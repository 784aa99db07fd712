#include "h2client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace lb {

using sww::util::Error;
using sww::util::ErrorCode;
using sww::util::Result;
using sww::util::Status;

double Now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void CloseAbortive(int fd) {
  if (fd < 0) return;
  linger option{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &option, sizeof(option));
  ::close(fd);
}

Status Flush(int fd, sww::http2::Connection& conn) {
  if (!conn.HasOutput()) return Status::Ok();
  const sww::util::BytesView out = conn.OutputView();
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::write(fd, out.data() + done, out.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 10'000) <= 0) {
        return Error(ErrorCode::kIo, "write stalled");
      }
      continue;
    }
    return Error(ErrorCode::kIo, std::string("write: ") + std::strerror(errno));
  }
  conn.ClearOutput();
  return Status::Ok();
}

Status Exchange(int fd, sww::http2::Connection& conn, int timeout_ms,
                bool require_input) {
  if (Status status = Flush(fd, conn); !status.ok()) return status;
  pollfd pfd{fd, POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return Error(ErrorCode::kIo, "poll failed");
  if (ready == 0) {
    return require_input ? Status(Error(ErrorCode::kIo, "response timed out"))
                         : Status::Ok();
  }
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (Status status = conn.Receive(
              sww::util::BytesView(buffer, static_cast<std::size_t>(n)));
          !status.ok()) {
        return status;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Error(ErrorCode::kClosed, n == 0 ? "peer closed" : "read failed");
  }
  return Flush(fd, conn);
}

H2Client::H2Client(int fd, std::uint32_t ability) : fd_(fd) {
  // The same local settings core::GenerativeClient advertises.
  sww::http2::Connection::Options options;
  options.local_settings.set_gen_ability(ability);
  options.local_settings.set_enable_push(false);
  options.local_settings.set_initial_window_size(1 << 20);
  connection_ = std::make_unique<sww::http2::Connection>(
      sww::http2::Connection::Role::kClient, options);
}

H2Client::~H2Client() { CloseAbortive(fd_); }

Result<std::unique_ptr<H2Client>> H2Client::Connect(std::uint16_t port,
                                                    std::uint32_t ability) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return Error(ErrorCode::kIo, "connect failed");
  std::unique_ptr<H2Client> client(new H2Client(fd, ability));
  client->connection_->StartHandshake();
  if (Status status = Flush(fd, *client->connection_); !status.ok()) {
    return status.error();
  }
  return client;
}

Result<std::unique_ptr<H2Client>> H2Client::Open(std::uint16_t port,
                                                 std::uint32_t ability,
                                                 int timeout_ms) {
  auto connected = Connect(port, ability);
  if (!connected.ok()) return connected;
  std::unique_ptr<H2Client> client = std::move(connected).value();
  const double deadline = Now() + timeout_ms * 1e-3;
  while (!client->settings_received_) {
    const int left = static_cast<int>((deadline - Now()) * 1e3);
    if (left <= 0) return Error(ErrorCode::kIo, "no SETTINGS from server");
    if (Status status = client->Poll(left); !status.ok()) return status.error();
  }
  return client;
}

Result<std::uint32_t> H2Client::Get(const std::string& path, bool swz) {
  sww::core::Request request;
  request.path = path;
  request.authority = "sww.local";
  if (swz) request.extra_headers.push_back({"accept-encoding", "swz", false});
  return connection_->SubmitRequest(request.ToHeaders(), {});
}

void H2Client::DrainEvents() {
  using Type = sww::http2::Connection::Event::Type;
  for (const auto& event : connection_->TakeEvents()) {
    if (event.type == Type::kRemoteSettingsReceived) settings_received_ = true;
    if (event.type == Type::kMessageComplete ||
        event.type == Type::kStreamReset) {
      completed_.insert(event.stream_id);
    }
  }
}

Status H2Client::Poll(int timeout_ms, bool require_input) {
  Status status = Exchange(fd_, *connection_, timeout_ms, require_input);
  DrainEvents();
  return status;
}

Result<sww::core::Response> H2Client::Take(std::uint32_t stream_id) {
  const sww::http2::Stream* stream = connection_->FindStream(stream_id);
  if (stream == nullptr) return Error(ErrorCode::kNotFound, "no such stream");
  auto response = sww::core::ParseResponse(stream->headers, stream->body);
  completed_.erase(stream_id);
  connection_->ReleaseStream(stream_id);
  return response;
}

Result<sww::core::Response> H2Client::Await(std::uint32_t stream_id,
                                            int timeout_ms) {
  const double deadline = Now() + timeout_ms * 1e-3;
  while (!Done(stream_id)) {
    const int left = static_cast<int>((deadline - Now()) * 1e3);
    if (left <= 0) return Error(ErrorCode::kIo, "response timed out");
    if (Status status = Poll(left); !status.ok()) return status.error();
  }
  return Take(stream_id);
}

}  // namespace lb
