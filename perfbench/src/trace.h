// In-memory span recorder for the traced run.  Spans are opened around the
// benchmark's own calls into the simulator's layers (and inside the timed
// scheduler and the HTTP handler wrapper); nothing inside src/ is touched.
// Each span records its name, start and end on the steady clock, the span
// that was open on the same thread when it started (its parent), and the
// repetition it belongs to.  Disabled, a Scope reads no clock and records
// nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double NowS();

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int run = 0;      ///< repetition id (Tracer::SetRun)
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool Enabled();
  /// Tags spans opened from now on with `run`.
  static void SetRun(int run);
  /// Moves every recorded span out of the recorder.
  static std::vector<Span> Take();

  /// Opens a span for its lifetime.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int id_ = -1;
    int saved_parent_ = -1;
  };
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Sum over spans named `name` in repetition `run` of `values[i]` (a
/// per-span quantity such as SelfTimes, or durations when `values` is
/// empty), and their count.
struct SpanSum {
  double total = 0.0;
  std::size_t count = 0;
};
SpanSum SumSpans(const std::vector<Span>& spans, const std::vector<double>& values,
                 const std::string& name, int run);

/// Writes the spans as JSON lines ({"name","start_s","end_s","parent","run"}).
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
