// h2client.hpp — the load generator's transport: POSIX sockets waited on
// with poll(2), carrying http2::Connection.  No sleeps: a wait is always a
// poll on the socket, so a measured latency is the server's, not ours.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "core/http_semantics.hpp"
#include "http2/connection.hpp"
#include "util/error.hpp"

namespace lb {

/// Monotonic wall clock, seconds.
double Now();
/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();

/// Connect to 127.0.0.1:port (blocking connect, then non-blocking with
/// TCP_NODELAY).  Returns the fd, or -1.
int ConnectLoopback(std::uint16_t port);
/// Close with SO_LINGER 0: an RST instead of a FIN handshake, so a run of
/// short visits leaves no TIME_WAIT sockets behind.
void CloseAbortive(int fd);

/// Write all pending output of `conn` to `fd`.
sww::util::Status Flush(int fd, sww::http2::Connection& conn);
/// Flush, wait up to `timeout_ms` for input (0 = just look), read until
/// EAGAIN feeding `conn`, then flush what that produced (ACKs, window
/// updates).  Waiting out the timeout with nothing read is not an error
/// unless `require_input`; a peer close always is.
sww::util::Status Exchange(int fd, sww::http2::Connection& conn,
                           int timeout_ms, bool require_input = true);

/// One client connection: socket + http2::Connection + completed streams.
class H2Client {
 public:
  /// Connect and exchange SETTINGS (returns once the server's SETTINGS
  /// arrived and ours were sent).  `ability` is SETTINGS_GEN_ABILITY.
  static sww::util::Result<std::unique_ptr<H2Client>> Open(
      std::uint16_t port, std::uint32_t ability, int timeout_ms);
  /// Connect and send our preface and SETTINGS without waiting for the
  /// server's; Poll until settings_received().
  static sww::util::Result<std::unique_ptr<H2Client>> Connect(
      std::uint16_t port, std::uint32_t ability);
  ~H2Client();

  bool settings_received() const { return settings_received_; }

  /// Submit a GET; `swz` adds accept-encoding: swz.
  sww::util::Result<std::uint32_t> Get(const std::string& path, bool swz);
  /// One exchange with the socket (see Exchange), then collect events.
  sww::util::Status Poll(int timeout_ms, bool require_input = true);
  bool Done(std::uint32_t stream_id) const {
    return completed_.count(stream_id) != 0;
  }
  /// Parse and release a completed stream.
  sww::util::Result<sww::core::Response> Take(std::uint32_t stream_id);
  /// Poll until the stream completes (or `timeout_ms` passes), then Take.
  sww::util::Result<sww::core::Response> Await(std::uint32_t stream_id,
                                               int timeout_ms);

  sww::http2::Connection& connection() { return *connection_; }
  int fd() const { return fd_; }

 private:
  H2Client(int fd, std::uint32_t ability);
  void DrainEvents();

  int fd_;
  std::unique_ptr<sww::http2::Connection> connection_;
  std::set<std::uint32_t> completed_;
  bool settings_received_ = false;
};

}  // namespace lb
