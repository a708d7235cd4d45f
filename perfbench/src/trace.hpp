// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer (core, engine, markov, linalg): name, start, end, parent
// span and the op they belong to.  Nothing is written while measuring; at
// the end of the run the spans go out as Chrome trace-event JSON (a plain
// array of "X" events that Perfetto and chrome://tracing open), and layer
// self times are derived from them.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "timing.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;       // index into spans(), -1 for a root span
  int op = -1;           // op id shared by every span of one op
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open span.
  int begin(std::string name, int op);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part its
  /// child spans cover, summed by name.
  std::map<std::string, double> self_times() const;

  /// Writes every span as Chrome trace-event JSON; returns false when the
  /// file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: spans close innermost first.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int op)
      : recorder_(recorder), id_(recorder.begin(std::move(name), op)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
