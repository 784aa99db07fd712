// spans.hpp — the traced run's span recorder.
//
// Kept apart from obs::Tracer on purpose: that tracer's span retention is
// one of the things the benchmark measures, so the traced run must not
// lean on it.  Spans live in memory (name, start, end, parent, request id)
// and are written out once, at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace lb {

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds, monotonic
    double end = 0.0;
    int parent = kNoParent;
    std::uint64_t request = 0;
  };

  /// Open a span now; returns its id.
  int Begin(const std::string& name, std::uint64_t request,
            int parent = kNoParent);
  void End(int id);
  /// Record a finished span measured elsewhere (a re-timed child).
  int Add(const std::string& name, std::uint64_t request, int parent,
          double start, double end);

  /// Per span name: total duration and self time (duration minus the
  /// durations of its direct children), seconds.
  struct Totals {
    double total = 0.0;
    double self = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> Aggregate() const;

  std::size_t size() const { return spans_.size(); }
  /// One JSON object per line.
  sww::util::Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace lb
