#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int SpanRecorder::begin(std::string name, int op) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = since(origin_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = since(origin_);
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_times() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cover[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        spans_[i].end_s - spans_[i].start_s - child_cover[i];
  }
  return self;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Complete events ("ph":"X") in microseconds; the op id becomes the
    // thread lane so Perfetto draws one track per op.
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%d}}%s\n",
                  span.name.c_str(),
                  span.name.substr(0, span.name.find('.')).c_str(),
                  span.start_s * 1e6, (span.end_s - span.start_s) * 1e6,
                  span.op + 1, i, span.parent, span.op,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
