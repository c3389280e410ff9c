#include "sweep/tree/tree_runner.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "core/snapshot.h"
#include "sched/policies.h"

namespace sraps {
namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// One bounded axis scheduled for a mid-run patch fork, in fork-time order.
struct PendingFork {
  std::size_t axis = 0;
  SimTime fork_t = 0;  ///< tick-aligned snapshot time within [start, last]
};

SimTime MinSubmit(const std::vector<Job>& jobs) {
  SimTime first = kNever;
  for (const Job& job : jobs) first = std::min(first, job.submit_time);
  return first;
}

}  // namespace

SnapshotTreeRunner::SnapshotTreeRunner(const SweepSpec& spec, ResolveFn resolve,
                                       PlainRunFn plain_run)
    : spec_(spec),
      resolve_(std::move(resolve)),
      plain_run_(std::move(plain_run)),
      plan_(ClassifySweepAxes(spec)) {
  // A single-value bounded axis needs no fork: its one value is baked into
  // every root's spec by Expand(), which is both cheaper and exercises the
  // exact plain-path code for it.
  for (AxisFirstEffect& fe : plan_) {
    if (spec_.axes[fe.axis].values.size() < 2) fe.cls = AxisClass::kImmediate;
  }
}

bool SnapshotTreeRunner::worthwhile() const {
  for (const AxisFirstEffect& fe : plan_) {
    if (fe.cls != AxisClass::kImmediate) return true;
  }
  return false;
}

TreeStats SnapshotTreeRunner::Run(std::size_t begin, std::size_t end,
                                  unsigned threads, const RowSink& sink) {
  const std::size_t total = spec_.ScenarioCount();
  end = std::min(end, total);
  begin = std::min(begin, end);

  // Strides of the row-major grid (last axis fastest), for digit extraction.
  std::vector<std::size_t> stride(spec_.axes.size(), 1);
  for (std::size_t a = spec_.axes.size(); a-- > 1;) {
    stride[a - 1] = stride[a] * spec_.axes[a].values.size();
  }
  const auto digit_of = [&](std::size_t index, std::size_t axis) {
    return index / stride[axis] % spec_.axes[axis].values.size();
  };

  // Roots: scenarios agreeing on every immediate axis.  Keyed by the index
  // with every bounded digit zeroed; ascending walk keeps members ascending
  // and root order deterministic by first member.
  std::vector<std::vector<std::size_t>> roots;
  {
    std::unordered_map<std::size_t, std::size_t> root_of_key;
    for (std::size_t i = begin; i < end; ++i) {
      std::size_t key = i;
      for (const AxisFirstEffect& fe : plan_) {
        if (fe.cls != AxisClass::kImmediate) {
          key -= digit_of(i, fe.axis) * stride[fe.axis];
        }
      }
      auto [it, inserted] = root_of_key.try_emplace(key, roots.size());
      if (inserted) roots.emplace_back();
      roots[it->second].push_back(i);
    }
  }

  // Whether any policy this sweep can put in force scores placements
  // thermally — decides the supply-temp bound (one tick before the first
  // allocation vs never).
  bool thermal_in_play = false;
  EnsureBuiltinComponents();
  for (const std::string& p :
       AxisValuesInPlay(spec_, "policy", spec_.base.policy)) {
    if (PolicyRegistry().Has(p) && PolicyRegistry().Get(p).needs_thermal) {
      thermal_in_play = true;
    }
  }

  const bool any_neutral =
      std::any_of(plan_.begin(), plan_.end(), [](const AxisFirstEffect& fe) {
        return fe.cls == AxisClass::kNeutral;
      });

  /// Row for `index` extracted from a finished simulation carrying its
  /// trajectory — the same ExtractScenarioMetrics + RowFromResult projection
  /// as every other sweep path, so the bytes cannot differ.
  const auto extract_row = [&](const Simulation& sim, std::size_t index) {
    ExpandedScenario member = spec_.Expand(index);
    ScenarioResult result;
    result.name = member.spec.name;
    ExtractScenarioMetrics(sim, result, /*capture_stats_json=*/false);
    result.ok = true;
    return RowFromResult(result, index, std::move(member.axis_values));
  };

  // The classes a root forks with ForkWithPatch.
  const auto patch_class = [](const AxisFirstEffect& fe) {
    return fe.cls != AxisClass::kImmediate && fe.cls != AxisClass::kNeutral;
  };

  TreeStats stats;
  std::mutex mu;

  // One shared trajectory for `part`: members that agree on every axis
  // except the bounded axes marked in `forked` (patched in at their bounds)
  // and trajectory-neutral axes (replayed at the leaves).  Throws on any
  // run-time refusal; run_root falls the part back to plain runs.  Returns
  // the simulated window every member shares.
  const auto run_part = [&](const std::vector<std::size_t>& part,
                            const std::vector<bool>& forked, TreeStats& local,
                            std::vector<SweepRow>& rows) {
    ExpandedScenario rep = spec_.Expand(part.front());
    resolve_(rep);
    const SimTime first_submit = MinSubmit(rep.spec.jobs_override);

    // Neutralise every forked axis so the shared trajectory is the one
    // every branch provably matches up to its bound: cap lifted, DR
    // windows cleared; schedule/placement/neutral axes keep the
    // representative's value (inert before their bounds by construction).
    double cap_threshold = 0.0;
    bool cap_axis = false;
    for (const AxisFirstEffect& fe : plan_) {
      if (!forked[fe.axis]) continue;
      if (fe.cls == AxisClass::kPowerCap) {
        cap_axis = true;
        cap_threshold = fe.cap_threshold_w;
        rep.spec.power_cap_w = 0.0;
      } else if (fe.cls == AxisClass::kDrWindows) {
        rep.spec.grid.dr_windows.clear();
      }
    }
    if (any_neutral) rep.spec.capture_grid_basis = true;

    // A cap pass that trips before the next fork has overshot the cap's
    // fork time; the root is then rebuilt from this copy of the spec.
    const bool cap_watch = cap_axis && cap_threshold > 0.0;
    ScenarioSpec root_spec;
    if (cap_watch) root_spec = rep.spec;

    auto sim = SimulationBuilder(std::move(rep.spec)).Build();
    ++local.roots;
    const SimTime sim_start = sim->sim_start();
    const SimTime sim_end = sim->sim_end();
    const SimDuration tick = sim->engine().tick();
    const double window = static_cast<double>(sim_end - sim_start);
    // Snapshot times must land on tick boundaries (RunUntilExact rounds
    // UP, which would overshoot a bound), strictly before sim_end (the
    // leaf always has the final step plus end-of-run bookkeeping left to
    // Run()).  Flooring is conservative: forking early is always sound.
    const SimTime last = sim_start + (sim_end - 1 - sim_start) / tick * tick;
    const auto align = [&](SimTime t) {
      if (t == kNever || t >= last) return last;
      if (t <= sim_start) return sim_start;
      return sim_start + (t - sim_start) / tick * tick;
    };

    std::vector<PendingFork> pending;
    SimTime horizon = last;  // earliest non-cap fork: the cap clamp
    for (const AxisFirstEffect& fe : plan_) {
      if (!forked[fe.axis]) continue;
      switch (fe.cls) {
        case AxisClass::kImmediate:
        case AxisClass::kNeutral:   // never forked: resolved at the leaf
        case AxisClass::kPowerCap:  // needs `horizon`; scheduled below
          continue;
        case AxisClass::kDrWindows:
          pending.push_back({fe.axis, align(fe.bound)});
          break;
        case AxisClass::kFirstSchedule:
          pending.push_back({fe.axis, align(first_submit)});
          break;
        case AxisClass::kSupplyTemp:
          // One tick before the first allocation can happen, so the
          // fork's first integrated span republishes inlets under the
          // patched supply before any placement is scored.
          pending.push_back(
              {fe.axis, thermal_in_play && first_submit != kNever
                            ? align(first_submit - tick)
                            : last});
          break;
      }
      horizon = std::min(horizon, pending.back().fork_t);
    }
    if (cap_axis) {
      // The watch witnesses only the UNforked trajectory, so the cap fork
      // is clamped to the earliest other fork — before any branch can
      // change the demand curve the trip time is measured on.  The root
      // itself runs to that clamp with the watch armed: untripped, it is
      // already where the cap forks; tripped, it was a probe.
      SimTime cap_t = horizon;
      if (cap_watch && horizon > sim_start) {
        SimulationEngine& eng = sim->mutable_engine();
        eng.SetPowerWatch(cap_threshold);
        sim->RunUntilExact(horizon);
        const SimTime tripped = eng.power_watch_tripped_at();
        eng.SetPowerWatch(0.0);
        local.sim_seconds_stepped += static_cast<double>(eng.now() - sim_start);
        if (tripped != kNever) {
          cap_t = std::min(horizon, align(tripped));
          ++local.probe_runs;
          sim = SimulationBuilder(std::move(root_spec)).Build();
        }
      }
      // threshold == 0: every swept cap is "uncapped" — the branches
      // cannot diverge, so the fork rides at the latest boundary.
      for (const AxisFirstEffect& fe : plan_) {
        if (forked[fe.axis] && fe.cls == AxisClass::kPowerCap) {
          pending.push_back({fe.axis, cap_t});
        }
      }
    }
    std::sort(pending.begin(), pending.end(),
              [](const PendingFork& a, const PendingFork& b) {
                if (a.fork_t != b.fork_t) return a.fork_t < b.fork_t;
                return a.axis < b.axis;
              });

    // Depth-first over the forked axes: run the shared trajectory to the
    // next bound, snapshot, fork one branch per value in play, recurse.
    const std::function<void(std::unique_ptr<Simulation>, std::size_t,
                             std::vector<std::size_t>, std::size_t)>
        recurse = [&](std::unique_ptr<Simulation> node, std::size_t from,
                      std::vector<std::size_t> leaf_members, std::size_t depth) {
          local.max_depth = std::max(local.max_depth, depth);
          if (from == pending.size()) {
            const SimTime resumed = node->engine().now();
            node->Run();
            local.sim_seconds_stepped +=
                static_cast<double>(node->engine().now() - resumed);
            if (any_neutral) {
              // Members differ only in trajectory-neutral grid scales:
              // replay the accounting per member off one snapshot —
              // uniformly, so every row takes the same code path.
              const SimStateSnapshot snap = node->Snapshot();
              node.reset();
              for (const std::size_t i : leaf_members) {
                ExpandedScenario member = spec_.Expand(i);
                auto fork = Simulation::ForkWithGrid(snap, member.spec.grid);
                ++local.forks;
                rows.push_back(extract_row(*fork, i));
              }
            } else {
              rows.push_back(extract_row(*node, leaf_members.front()));
            }
            return;
          }
          const PendingFork& pf = pending[from];
          const SweepAxis& axis = spec_.axes[pf.axis];
          const SimTime resumed = node->engine().now();
          node->RunUntilExact(pf.fork_t);
          local.sim_seconds_stepped +=
              static_cast<double>(node->engine().now() - resumed);
          const SimStateSnapshot snap = node->Snapshot();
          node.reset();
          // Partition the members by their digit on this axis; fork once
          // per digit actually present (a subrange may skip some).
          std::vector<std::vector<std::size_t>> by_digit(axis.values.size());
          for (const std::size_t i : leaf_members) {
            by_digit[digit_of(i, pf.axis)].push_back(i);
          }
          std::size_t fanout = 0;
          for (std::size_t d = 0; d < by_digit.size(); ++d) {
            if (by_digit[d].empty()) continue;
            ++fanout;
            auto branch = Simulation::ForkWithPatch(snap, axis.key, axis.values[d]);
            ++local.forks;
            recurse(std::move(branch), from + 1, std::move(by_digit[d]), depth + 1);
          }
          local.max_fanout = std::max(local.max_fanout, fanout);
        };
    recurse(std::move(sim), 0, part, 0);
    return window;
  };

  // A plain run steps its whole window, on the tree as on the plain path.
  const auto run_plain = [&](std::size_t index, TreeStats& local) {
    PlainRun run = plain_run_(index);
    local.sim_seconds_plain += run.sim_seconds;
    local.sim_seconds_stepped += run.sim_seconds;
    return std::move(run.row);
  };

  const auto run_root = [&](const std::vector<std::size_t>& members) {
    TreeStats local;
    local.scenarios = members.size();

    // The bounded axes this root forks: those with more than one value
    // among its members (a lone value is baked in by Expand), and none at
    // all when ForkWithPatch would refuse every patch of the root's run.
    std::vector<bool> forked(spec_.axes.size(), false);
    bool forkable = false;
    try {
      forkable = PatchForkRefusal(spec_.Expand(members.front()).spec) == nullptr;
    } catch (const std::exception&) {
      // Unexpandable: every part falls back to plain failure rows below.
    }
    for (const AxisFirstEffect& fe : plan_) {
      if (!forkable || !patch_class(fe)) continue;
      const std::size_t first = digit_of(members.front(), fe.axis);
      for (const std::size_t i : members) {
        if (digit_of(i, fe.axis) != first) forked[fe.axis] = true;
      }
    }

    // Parts: members agreeing on every bounded axis the root does not fork.
    // Each part shares one trajectory, or runs plainly when it is alone.
    std::vector<std::vector<std::size_t>> parts;
    {
      std::unordered_map<std::size_t, std::size_t> part_of_key;
      for (const std::size_t i : members) {
        std::size_t key = 0;
        for (const AxisFirstEffect& fe : plan_) {
          if (patch_class(fe) && !forked[fe.axis]) {
            key += digit_of(i, fe.axis) * stride[fe.axis];
          }
        }
        auto [it, inserted] = part_of_key.try_emplace(key, parts.size());
        if (inserted) parts.emplace_back();
        parts[it->second].push_back(i);
      }
    }

    for (const std::vector<std::size_t>& part : parts) {
      std::vector<SweepRow> rows;
      rows.reserve(part.size());
      if (part.size() == 1) {
        rows.push_back(run_plain(part.front(), local));
        ++local.plain_runs;
      } else {
        try {
          const double window = run_part(part, forked, local, rows);
          local.sim_seconds_plain += static_cast<double>(part.size()) * window;
        } catch (const std::exception&) {
          // Plain per-scenario fallback: reproduces exactly what the plain
          // path would have produced for every member — ok rows and failure
          // rows alike — so a run-time refusal can never change the output.
          // The aborted shared prefix stays counted as stepped work.
          rows.clear();
          for (const std::size_t i : part) rows.push_back(run_plain(i, local));
          local.fallback_scenarios += part.size();
        }
      }
      for (SweepRow& row : rows) sink(std::move(row));
    }
    std::lock_guard<std::mutex> lock(mu);
    stats.Merge(local);
  };

  ParallelIndexFor(roots.size(), threads, [&](std::size_t r) { run_root(roots[r]); });
  return stats;
}

}  // namespace sraps
