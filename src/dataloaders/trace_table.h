// Shared traces.csv reader/writer for the trace-bearing datasets
// (Frontier 15 s, Marconi100/PM100 20 s).  Schema:
//   job_id, offset_s, cpu_util, gpu_util, node_power_w
// Any of the three value columns may be empty per row; empty columns simply
// do not contribute samples to the corresponding series.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/trace_series.h"
#include "workload/job.h"

namespace sraps {

struct JobTraces {
  TraceSeries cpu_util;
  TraceSeries gpu_util;
  TraceSeries node_power_w;
};

/// Per-job series keyed by job id.
using TraceTable = std::map<JobId, JobTraces>;

/// Streams a traces.csv into per-job series; a job with no value in any
/// series has no entry.  Rows of different jobs may interleave, but each
/// series' offsets must be non-negative and strictly increasing in file
/// order (the writers sort them): a violation throws std::invalid_argument.
/// Malformed rows throw std::runtime_error and a missing column
/// std::out_of_range; every message names the file and the line.
TraceTable LoadTraceTable(const std::string& path);

/// Writes the traces of all jobs that have any, in the shared schema.
void SaveTraceTable(const std::string& path, const std::vector<Job>& jobs);

/// Attaches loaded traces to jobs in place (matching on job id).  The series
/// move into the jobs; only a job id that repeats in `jobs` costs a copy.
void AttachTraces(std::vector<Job>& jobs, TraceTable traces);

}  // namespace sraps
