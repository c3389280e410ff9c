#include "dataloaders/jobs_io.h"

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/csv.h"
#include "dataloaders/dataloader.h"

namespace sraps {

void WriteJobsCsv(const std::string& path, const std::vector<Job>& jobs,
                  const std::vector<bool>& shared_flags) {
  const bool with_shared = !shared_flags.empty();
  if (with_shared && shared_flags.size() != jobs.size()) {
    throw std::invalid_argument("WriteJobsCsv: shared_flags size mismatch");
  }
  std::vector<std::string> header = {"job_id", "user", "account", "submit_time",
                                     "start_time", "end_time", "time_limit",
                                     "num_nodes", "nodes_allocated", "priority",
                                     "avg_node_power_w"};
  if (with_shared) header.push_back("shared");
  CsvWriter w(std::move(header));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    std::string avg_power;
    if (!j.node_power_w.empty() && j.node_power_w.is_constant()) {
      avg_power = CsvNumber(j.node_power_w.values().front());
    }
    std::vector<std::string> row = {
        std::to_string(j.id), j.user, j.account, std::to_string(j.submit_time),
        std::to_string(j.recorded_start), std::to_string(j.recorded_end),
        std::to_string(j.time_limit), std::to_string(j.nodes_required),
        loader_detail::FormatNodeList(j.recorded_nodes), CsvNumber(j.priority),
        avg_power};
    if (with_shared) row.push_back(shared_flags[i] ? "1" : "0");
    w.AddRow(std::move(row));
  }
  w.Save(path);
}

std::vector<Job> ReadJobsCsv(const std::string& path, bool filter_shared) {
  CsvRowStream csv(path);
  const CsvColumn job_id = csv.Column("job_id");
  const CsvColumn user = csv.Column("user");
  const CsvColumn account = csv.Column("account");
  const CsvColumn submit = csv.Column("submit_time");
  const CsvColumn start = csv.Column("start_time");
  const CsvColumn end = csv.Column("end_time");
  const CsvColumn time_limit = csv.Column("time_limit");
  const CsvColumn num_nodes = csv.Column("num_nodes");
  const CsvColumn nodes = csv.Column("nodes_allocated");
  const CsvColumn priority = csv.Column("priority");
  const CsvColumn avg_power = csv.Column("avg_node_power_w");
  const CsvColumn shared = csv.Column("shared");
  const auto required = [&](const CsvColumn& col) {
    const std::optional<std::int64_t> v = csv.Int(col);
    if (!v) throw std::runtime_error(csv.Where() + ": empty " + col.name);
    return *v;
  };

  // The cells of a row are read in the order below, so a row's first fault
  // (in that order) is the one reported.
  std::vector<Job> jobs;
  while (csv.Next()) {
    if (filter_shared && shared.index) {
      if (const auto s = csv.Int(shared); s && *s != 0) continue;
    }
    Job j;
    j.id = required(job_id);
    j.user = csv.Cell(user);
    j.account = csv.Cell(account);
    j.submit_time = required(submit);
    j.recorded_start = csv.Int(start).value_or(-1);
    j.recorded_end = csv.Int(end).value_or(-1);
    j.time_limit = csv.Int(time_limit).value_or(0);
    j.nodes_required = static_cast<int>(required(num_nodes));
    const std::string& node_list = csv.Cell(nodes);
    try {
      j.recorded_nodes = loader_detail::ParseNodeList(node_list);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(csv.Where() + ": " + e.what());
    }
    j.priority = csv.Double(priority).value_or(0.0);
    if (const auto p = csv.Double(avg_power)) j.node_power_w = TraceSeries::Constant(*p);
    j.name = "job-" + std::to_string(j.id);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace sraps
