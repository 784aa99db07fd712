// lb_server — the benchmark's server process: core::ReactorHost serving a
// ContentStore that holds the benchmark site (site.hpp), with the
// program's telemetry exactly as shipped, on one shard.
//
//   lb_server
//
// Prints "port <N>" once it is accepting, then serves until its standard
// input reaches end of file (the load generator closes it, or dies), shuts
// down gracefully and exits 0.
#include <cstdio>
#include <unistd.h>

#include "core/reactor_host.hpp"
#include "site.hpp"

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  sww::core::ContentStore store;
  if (auto status = lb::InstallSite(lb::BuildSite(), store); !status.ok()) {
    std::fprintf(stderr, "lb_server: %s\n", status.ToString().c_str());
    return 1;
  }
  sww::core::ReactorHost::Options options;
  options.server.port = 0;
  // One shard: with SO_REUSEPORT the kernel places each connection by a
  // hash of its client port, so with more shards whether two connections
  // share a thread would change from run to run.
  options.server.shards = 1;
  auto host = sww::core::ReactorHost::Start(&store, std::move(options));
  if (!host.ok()) {
    std::fprintf(stderr, "lb_server: %s\n", host.error().ToString().c_str());
    return 1;
  }
  std::printf("port %u\n", host.value()->port());
  std::fflush(stdout);

  char buffer[256];
  while (::read(STDIN_FILENO, buffer, sizeof(buffer)) > 0) {
  }
  host.value()->Shutdown();
  return 0;
}
