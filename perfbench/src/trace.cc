#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_run{0};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
thread_local int t_current = -1;

}  // namespace

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) { g_enabled = on; }
bool Tracer::Enabled() { return g_enabled; }
void Tracer::SetRun(int run) { g_run = run; }

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_spans, {});
}

Tracer::Scope::Scope(const char* name) {
  if (!g_enabled) return;
  saved_parent_ = t_current;
  Span span;
  span.name = name;
  span.parent = t_current;
  span.run = g_run;
  span.start_s = NowS();
  std::lock_guard<std::mutex> lock(g_mu);
  id_ = static_cast<int>(g_spans.size());
  g_spans.push_back(std::move(span));
  t_current = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const double now = NowS();
  t_current = saved_parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[id_].end_s = now;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("span parent out of range: " + s.name);
    }
    children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b <= a) continue;
      covered += b - a;
      cursor = b;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

SpanSum SumSpans(const std::vector<Span>& spans, const std::vector<double>& values,
                 const std::string& name, int run) {
  SpanSum sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.run != run || s.name != name) continue;
    sum.total += values.empty() ? s.end_s - s.start_s : values[i];
    ++sum.count;
  }
  return sum;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(17);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << "}\n";
  }
}

}  // namespace perfbench
