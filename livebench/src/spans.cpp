#include "spans.hpp"

#include <cstdio>

#include "h2client.hpp"
#include "stats.hpp"

namespace lb {

int SpanRecorder::Begin(const std::string& name, std::uint64_t request,
                        int parent) {
  spans_.push_back(Span{name, Now(), 0.0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) { spans_[static_cast<std::size_t>(id)].end = Now(); }

int SpanRecorder::Add(const std::string& name, std::uint64_t request,
                      int parent, double start, double end) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Aggregate() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end - spans_[i].start;
    Totals& entry = totals[spans_[i].name];
    entry.total += duration;
    entry.self += duration - child_time[i];
    ++entry.count;
  }
  return totals;
}

sww::util::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return sww::util::Status(sww::util::ErrorCode::kIo, "cannot open " + path);
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %s, "
                 "\"end_us\": %s, \"parent\": %d, \"request\": %llu}\n",
                 i, span.name.c_str(),
                 FormatNumber((span.start - origin) * 1e6).c_str(),
                 FormatNumber((span.end - origin) * 1e6).c_str(), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(file) == 0
             ? sww::util::Status::Ok()
             : sww::util::Status(sww::util::ErrorCode::kIo, "write " + path);
}

}  // namespace lb
