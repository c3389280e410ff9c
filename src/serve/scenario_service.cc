#include "serve/scenario_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/mathutil.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "experiment/experiment_runner.h"
#include "sched/policies.h"

namespace sraps {
namespace {

constexpr std::size_t kLatencyWindow = 8192;

std::uint64_t Fnv64Str(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

ServeReply ErrorReply(int status, const std::string& message, int retry_after = 0) {
  JsonObject o;
  o["error"] = message;
  return ServeReply{status, JsonValue(std::move(o)).Dump(2) + "\n", retry_after};
}

/// Canonical spec JSON with the grid block removed — the patch guard compares
/// these to prove a query only varied the grid.
std::string DumpSansGrid(const ScenarioSpec& spec) {
  JsonObject o = spec.ToJson().AsObject();
  o.erase("grid");
  return JsonValue(std::move(o)).Dump(0);
}

/// Names the first non-grid key a patch changed, for an actionable 400.
std::string FirstChangedKey(const std::string& before_json,
                            const std::string& after_json) {
  const JsonObject before = JsonValue::Parse(before_json).AsObject();
  const JsonObject after = JsonValue::Parse(after_json).AsObject();
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    if (it == before.end() || it->second.Dump(0) != value.Dump(0)) return key;
  }
  for (const auto& [key, value] : before) {
    if (after.find(key) == after.end()) return key;
  }
  return "<unknown>";
}

}  // namespace

ScenarioService::ScenarioService(ServeOptions options)
    : options_(options),
      cache_(options.cache_bytes),
      pool_(options.workers, options.max_queue) {}

ScenarioService::~ScenarioService() { Stop(); }

void ScenarioService::AddBase(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("ScenarioService: base scenario name must not be empty");
  }
  if (by_name_.count(spec.name) != 0) {
    throw std::invalid_argument("ScenarioService: duplicate base scenario '" +
                                spec.name + "'");
  }
  EnsureBuiltinComponents();
  if (PolicyRegistry().Has(spec.policy) && PolicyRegistry().Get(spec.policy).needs_grid) {
    throw std::invalid_argument(
        "ScenarioService: base scenario '" + spec.name + "' uses grid-reactive "
        "policy '" + spec.policy + "', whose trajectory depends on signal "
        "values — it cannot answer what-ifs from a warm snapshot");
  }
  spec.capture_grid_basis = true;  // the whole service forks under new grids

  auto base = std::make_unique<Base>();
  base->name = spec.name;
  base->probe_spec = spec;
  base->probe_spec.jobs_override.clear();
  base->json_sans_grid = DumpSansGrid(spec);
  base->cache_key = Fnv64Str(spec.name + "\n" + spec.ToJson().Dump(0));
  base->full_spec = std::move(spec);
  by_name_[base->name] = base.get();
  bases_.push_back(std::move(base));
}

void ScenarioService::Warmup() {
  ParallelIndexFor(bases_.size(), options_.workers, [&](std::size_t i) {
    Base& base = *bases_[i];
    std::lock_guard<std::mutex> rebuild(base.rebuild_mu);
    cache_.Put(base.cache_key, SimulateBase(base));
  });
}

std::shared_ptr<const SimStateSnapshot> ScenarioService::SimulateBase(
    const Base& base) {
  ScenarioSpec spec = base.full_spec;  // deep copy; the builder consumes it
  auto sim = SimulationBuilder(std::move(spec)).Build();
  sim->Run();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.simulations;
  }
  return std::make_shared<const SimStateSnapshot>(sim->Snapshot());
}

std::shared_ptr<const SimStateSnapshot> ScenarioService::GetOrBuildSnapshot(
    Base& base) {
  auto snap = cache_.Get(base.cache_key);
  if (snap) return snap;
  // One rebuild per evicted base: concurrent misses on the same base queue
  // behind the mutex and find the fresh entry on the double-check.
  std::lock_guard<std::mutex> rebuild(base.rebuild_mu);
  snap = cache_.Get(base.cache_key);
  if (snap) return snap;
  snap = SimulateBase(base);
  cache_.Put(base.cache_key, snap);
  return snap;
}

ServeReply ScenarioService::WhatIf(const std::string& request_json) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.queries;
  }
  if (draining_.load()) {
    ServeReply r = ErrorReply(503, "service is draining [guard=draining key=-]",
                              options_.retry_after_s);
    CountReply(503);
    return r;
  }

  JsonValue query;
  try {
    query = JsonValue::Parse(request_json);
  } catch (const std::exception& e) {
    ServeReply r = ErrorReply(
        400, std::string("request body is not valid JSON [guard=parse key=-]: ") +
                 e.what());
    CountReply(400);
    return r;
  }
  if (!query.is_object()) {
    ServeReply r = ErrorReply(400,
                              "request body must be a JSON object "
                              "[guard=shape key=-]");
    CountReply(400);
    return r;
  }
  const JsonObject& q = query.AsObject();
  for (const auto& [key, value] : q) {
    if (key != "base" && key != "grid" && key != "patch") {
      ServeReply r = ErrorReply(400, "unknown request key [guard=shape key=" + key +
                                         "]: expected base / grid / patch");
      CountReply(400);
      return r;
    }
  }
  auto base_it = q.find("base");
  if (base_it == q.end() || !base_it->second.is_string()) {
    ServeReply r = ErrorReply(400,
                              "request must name a base scenario "
                              "[guard=shape key=base]");
    CountReply(400);
    return r;
  }
  if (q.count("grid") != 0 && q.count("patch") != 0) {
    ServeReply r = ErrorReply(400,
                              "give either a full grid or a patch, not both "
                              "[guard=shape key=grid]");
    CountReply(400);
    return r;
  }

  auto found = by_name_.find(base_it->second.AsString());
  if (found == by_name_.end()) {
    ServeReply r = ErrorReply(404, "unknown base scenario '" +
                                       base_it->second.AsString() + "'");
    CountReply(404);
    return r;
  }
  Base& base = *found->second;

  // Resolve the query to a full grid environment via the strict round-trip
  // spec machinery; anything it rejects comes back verbatim as the 400 body.
  ScenarioSpec probe = base.probe_spec;
  try {
    auto grid_it = q.find("grid");
    if (grid_it != q.end()) {
      probe.grid = GridEnvironment::FromJson(grid_it->second);
    }
    auto patch_it = q.find("patch");
    if (patch_it != q.end()) {
      if (!patch_it->second.is_object()) {
        throw std::invalid_argument("patch must be an object of dotted keys");
      }
      for (const auto& [key, value] : patch_it->second.AsObject()) {
        ApplyScenarioKey(probe, key, value);
      }
    }
  } catch (const std::exception& e) {
    ServeReply r = ErrorReply(400, e.what());
    CountReply(400);
    return r;
  }

  // Only the grid may vary: any other change would invalidate the captured
  // trajectory, so name the first offending key instead of answering wrong.
  const std::string probe_sans_grid = DumpSansGrid(probe);
  if (probe_sans_grid != base.json_sans_grid) {
    ServeReply r = ErrorReply(
        400, "only grid variations are answerable from a warm snapshot "
             "[guard=non_grid_patch key=" +
                 FirstChangedKey(base.json_sans_grid, probe_sans_grid) +
                 "]: run a full scenario for this change");
    CountReply(400);
    return r;
  }

  const std::string grid_json = probe.grid.ToJson().Dump(0);
  const std::string coalesce_key = base.name + "\n" + grid_json;

  std::shared_ptr<Pending> pending;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(coalesce_key);
    if (it != inflight_.end()) {
      pending = it->second;
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++counters_.coalesced;
    } else {
      pending = std::make_shared<Pending>();
      pending->future = pending->promise.get_future().share();
      inflight_[coalesce_key] = pending;
      owner = true;
    }
  }

  if (owner) {
    GridEnvironment grid = probe.grid;
    Base* base_ptr = &base;
    const bool submitted = pool_.TrySubmit([this, base_ptr, grid = std::move(grid),
                                            grid_json, pending]() {
      pending->promise.set_value(ComputeWhatIf(*base_ptr, grid, grid_json));
    });
    if (!submitted) {
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(coalesce_key);
      }
      ServeReply r = ErrorReply(
          503, "fork queue is full [guard=backpressure key=-]: retry shortly",
          options_.retry_after_s);
      CountReply(503);
      // Unblock any waiter that coalesced onto this entry before the erase.
      pending->promise.set_value(r);
      return r;
    }
  }

  ServeReply reply = pending->future.get();
  if (owner) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(coalesce_key);
  }
  CountReply(reply.status);
  return reply;
}

ServeReply ScenarioService::ComputeWhatIf(Base& base, const GridEnvironment& grid,
                                          const std::string& grid_json) {
  try {
    auto snap = GetOrBuildSnapshot(base);
    const int delay = fork_delay_ms_.load();
    if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    const auto t0 = std::chrono::steady_clock::now();
    auto fork = Simulation::ForkWithGrid(*snap, grid);
    ScenarioResult res;
    res.name = base.name;
    ExtractScenarioMetrics(*fork, res, /*capture_stats_json=*/false);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    RecordLatencyUs(us);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.forks;
    }

    // Deterministic 200 body: pure function of (base, grid).  No wall-clock,
    // latency, or cache state in here — those live in /stats.
    JsonObject body;
    body["base"] = base.name;
    body["grid"] = JsonValue::Parse(grid_json);
    body["metrics"] = JsonValue(RunMetricsJson(res));
    body["fingerprint"] = FingerprintHex(res.fingerprint);
    return ServeReply{200, JsonValue(std::move(body)).Dump(2) + "\n", 0};
  } catch (const std::invalid_argument& e) {
    return ErrorReply(400, e.what());  // ForkWithGrid guard text, verbatim
  } catch (const std::exception& e) {
    return ErrorReply(500, e.what());
  }
}

std::string ScenarioService::HealthJson() const {
  JsonObject o;
  o["status"] = draining_.load() ? "draining" : "ok";
  JsonArray names;
  for (const auto& base : bases_) names.emplace_back(base->name);
  o["bases"] = JsonValue(std::move(names));
  return JsonValue(std::move(o)).Dump(2) + "\n";
}

std::string ScenarioService::StatsJson() const {
  ServeCounters c;
  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    c = counters_;
    lat.assign(fork_latency_us_.begin(), fork_latency_us_.end());
  }
  JsonObject counters;
  counters["queries"] = JsonValue(static_cast<std::int64_t>(c.queries));
  counters["coalesced"] = JsonValue(static_cast<std::int64_t>(c.coalesced));
  counters["forks"] = JsonValue(static_cast<std::int64_t>(c.forks));
  counters["simulations"] = JsonValue(static_cast<std::int64_t>(c.simulations));
  JsonObject replies;
  replies["200"] = JsonValue(static_cast<std::int64_t>(c.replies_200));
  replies["400"] = JsonValue(static_cast<std::int64_t>(c.replies_400));
  replies["404"] = JsonValue(static_cast<std::int64_t>(c.replies_404));
  replies["503"] = JsonValue(static_cast<std::int64_t>(c.replies_503));

  JsonObject latency;
  latency["samples"] = JsonValue(static_cast<std::int64_t>(lat.size()));
  if (!lat.empty()) {
    latency["p50_us"] = Percentile(lat, 50.0);
    latency["p90_us"] = Percentile(lat, 90.0);
    latency["p99_us"] = Percentile(lat, 99.0);
    latency["max_us"] = *std::max_element(lat.begin(), lat.end());
  }

  JsonObject o;
  o["bases"] = JsonValue(static_cast<std::int64_t>(bases_.size()));
  o["workers"] = JsonValue(static_cast<std::int64_t>(workers()));
  o["queue_depth"] = JsonValue(static_cast<std::int64_t>(QueueDepth()));
  o["counters"] = JsonValue(std::move(counters));
  o["replies"] = JsonValue(std::move(replies));
  o["cache"] = cache_.Stats().ToJson();
  o["fork_latency"] = JsonValue(std::move(latency));
  return JsonValue(std::move(o)).Dump(2) + "\n";
}

ServeCounters ScenarioService::Counters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

void ScenarioService::Stop() {
  draining_.store(true);
  pool_.Shutdown();  // drains queued forks; waiters get their futures
}

void ScenarioService::RecordLatencyUs(double us) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  fork_latency_us_.push_back(us);
  if (fork_latency_us_.size() > kLatencyWindow) fork_latency_us_.pop_front();
}

void ScenarioService::CountReply(int status) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  switch (status) {
    case 200: ++counters_.replies_200; break;
    case 400: ++counters_.replies_400; break;
    case 404: ++counters_.replies_404; break;
    case 503: ++counters_.replies_503; break;
    default: break;
  }
}

HttpResponse RouteRequest(ScenarioService& service, const HttpRequest& req) {
  HttpResponse resp;
  if (req.path == "/healthz") {
    if (req.method != "GET") {
      resp.status = 405;
      resp.body = "{\"error\": \"use GET /healthz\"}\n";
      return resp;
    }
    resp.body = service.HealthJson();
    return resp;
  }
  if (req.path == "/stats") {
    if (req.method != "GET") {
      resp.status = 405;
      resp.body = "{\"error\": \"use GET /stats\"}\n";
      return resp;
    }
    resp.body = service.StatsJson();
    return resp;
  }
  if (req.path == "/whatif") {
    if (req.method != "POST") {
      resp.status = 405;
      resp.body = "{\"error\": \"use POST /whatif\"}\n";
      return resp;
    }
    ServeReply reply = service.WhatIf(req.body);
    resp.status = reply.status;
    resp.body = std::move(reply.body);
    if (reply.retry_after_s > 0) {
      resp.extra_headers.emplace_back("Retry-After",
                                      std::to_string(reply.retry_after_s));
    }
    return resp;
  }
  resp.status = 404;
  resp.body = "{\"error\": \"no such endpoint; try /healthz, /stats, POST /whatif\"}\n";
  return resp;
}

}  // namespace sraps
