#include "dataloaders/trace_table.h"

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "common/csv.h"

namespace sraps {
namespace {

/// One series' samples in file order.
struct SeriesBuilder {
  std::vector<SimDuration> offsets;
  std::vector<double> values;
  std::size_t bad_line = 0;  ///< first line whose offset does not extend it
};

/// One job's series as read: cpu_util, gpu_util, node_power_w.
struct JobSamples {
  JobId id = 0;
  std::array<SeriesBuilder, 3> series;
};

}  // namespace

TraceTable LoadTraceTable(const std::string& path) {
  CsvRowStream csv(path);
  const CsvColumn job_id = csv.Column("job_id");
  const CsvColumn offset = csv.Column("offset_s");
  const std::array<CsvColumn, 3> value = {csv.Column("cpu_util"), csv.Column("gpu_util"),
                                          csv.Column("node_power_w")};

  std::vector<JobSamples> jobs;  // in order of first appearance
  std::unordered_map<JobId, std::size_t> slot_of;
  std::size_t slot = 0;  // jobs[slot] is the last row's job
  while (csv.Next()) {
    const std::optional<std::int64_t> id = csv.Int(job_id);
    const std::optional<std::int64_t> off = csv.Int(offset);
    if (!id || !off) throw std::runtime_error(csv.Where() + ": missing job_id/offset_s");
    if (jobs.empty() || jobs[slot].id != *id) {
      const auto [it, inserted] = slot_of.try_emplace(*id, jobs.size());
      if (inserted) jobs.push_back({*id, {}});
      slot = it->second;
    }
    for (std::size_t s = 0; s < value.size(); ++s) {
      const std::optional<double> v = csv.Double(value[s]);
      if (!v) continue;
      SeriesBuilder& b = jobs[slot].series[s];
      const bool extends = *off >= 0 && (b.offsets.empty() || *off > b.offsets.back());
      if (!extends && b.bad_line == 0) b.bad_line = csv.line();
      b.offsets.push_back(*off);
      b.values.push_back(*v);
    }
  }

  TraceTable table;
  for (JobSamples& job : jobs) {
    JobTraces traces;
    const std::array<TraceSeries*, 3> out = {&traces.cpu_util, &traces.gpu_util,
                                             &traces.node_power_w};
    bool any = false;
    for (std::size_t s = 0; s < out.size(); ++s) {
      SeriesBuilder& b = job.series[s];
      if (b.offsets.empty()) continue;
      if (b.bad_line != 0) {
        throw std::invalid_argument(path + ":" + std::to_string(b.bad_line) + ": job " +
                                    std::to_string(job.id) + " " + value[s].name +
                                    ": offsets must be non-negative and increasing");
      }
      *out[s] = TraceSeries(std::move(b.offsets), std::move(b.values));
      any = true;
    }
    if (any) table.emplace(job.id, std::move(traces));
  }
  return table;
}

void SaveTraceTable(const std::string& path, const std::vector<Job>& jobs) {
  CsvWriter w({"job_id", "offset_s", "cpu_util", "gpu_util", "node_power_w"});
  for (const Job& job : jobs) {
    // Merge the offsets of all three series so each row can carry samples
    // from whichever series has one at that offset.
    std::map<SimDuration, std::array<std::string, 3>> rows;
    auto add = [&](const TraceSeries& s, int slot) {
      if (s.empty() || s.is_constant()) return;
      for (std::size_t i = 0; i < s.size(); ++i) {
        rows[s.offsets()[i]][slot] = CsvNumber(s.values()[i]);
      }
    };
    add(job.cpu_util, 0);
    add(job.gpu_util, 1);
    add(job.node_power_w, 2);
    for (const auto& [off, cells] : rows) {
      w.AddRow({std::to_string(job.id), std::to_string(off), cells[0], cells[1],
                cells[2]});
    }
  }
  w.Save(path);
}

void AttachTraces(std::vector<Job>& jobs, TraceTable traces) {
  // Jobs left to visit per traced id: the last one takes the series by move.
  std::unordered_map<JobId, std::size_t> left;
  for (const Job& job : jobs) {
    if (traces.count(job.id) != 0) ++left[job.id];
  }
  for (Job& job : jobs) {
    const auto it = traces.find(job.id);
    if (it == traces.end()) continue;
    const bool last = --left[job.id] == 0;
    const auto take = [last](TraceSeries& from, TraceSeries& to) {
      if (from.empty()) return;
      if (last) {
        to = std::move(from);
      } else {
        to = from;
      }
    };
    take(it->second.cpu_util, job.cpu_util);
    take(it->second.gpu_util, job.gpu_util);
    take(it->second.node_power_w, job.node_power_w);
  }
}

}  // namespace sraps
