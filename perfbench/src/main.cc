// perfbench: the end-to-end benchmark program of the digital twin.
//
//   perfbench generate-m100 --seed N --dir DIR
//   perfbench selftest
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//                 --result FILE [--data DIR] [--spans FILE] [--commit ID]
//
// `run` writes one JSON object to FILE: correct / attempted / failed /
// metrics (name -> value, in the unit BENCHMARK.json gives the name), plus
// the environment stamp, notes and failure lines.
// perfbench/run.py builds this binary and calls it; see that file.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTest();  // selftest.cc
}

namespace {

using perfbench::RunConfig;
using perfbench::WorkloadResult;

/// Timings from an unoptimised build are refused.
bool OptimisedBuild(std::string* why) {
#ifndef __OPTIMIZE__
  *why = "the benchmark was compiled without optimisation";
  return false;
#endif
  std::string type = PERFBENCH_BUILD_TYPE;
  std::transform(type.begin(), type.end(), type.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (type == "debug") {
    *why = "build type is Debug";
    return false;
  }
  // The last -O flag wins; "-O" alone means -O1.
  const std::string flags = PERFBENCH_CXX_FLAGS;
  std::string level = "0";
  for (std::size_t pos = flags.find("-O"); pos != std::string::npos;
       pos = flags.find("-O", pos + 2)) {
    const std::size_t end = flags.find(' ', pos);
    level = flags.substr(pos + 2, end == std::string::npos ? std::string::npos : end - pos - 2);
  }
  if (level != "0") return true;
  *why = "compiler flags carry no optimisation level: '" + flags + "'";
  return false;
}

sraps::JsonValue EnvStamp(const RunConfig& cfg, const std::string& commit) {
  sraps::JsonObject env;
  env["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  env["hardware_concurrency"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  env["compiler"] = std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")";
  env["commit"] = commit;
  env["workload"] = cfg.workload;
  env["seed"] = static_cast<std::int64_t>(cfg.seed);
  env["seconds"] = cfg.seconds;
  env["trace"] = cfg.trace;
  return sraps::JsonValue(std::move(env));
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench generate-m100 --seed N --dir DIR\n"
               "       perfbench selftest\n"
               "       perfbench run --workload W --seed N --seconds S --trace 0|1 "
               "--work DIR --result FILE [--data DIR] [--spans FILE] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return perfbench::RunSelfTest() == 0 ? 0 : 1;

  RunConfig cfg;
  std::string dir, result_path, commit = "unknown";
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.trace = value == "1";
      } else if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--work") {
        cfg.work_dir = value;
      } else if (flag == "--data") {
        cfg.data_dir = value;
      } else if (flag == "--spans") {
        cfg.spans_out = value;
      } else if (flag == "--result") {
        result_path = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--dir") {
        dir = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
      return 2;
    }
  }

  try {
    if (cmd == "generate-m100") {
      if (dir.empty()) return Usage();
      perfbench::GenerateM100Dataset(cfg.seed, dir);
      return 0;
    }
    if (cmd != "run" || result_path.empty() || cfg.work_dir.empty()) return Usage();
    std::string why;
    if (!OptimisedBuild(&why)) {
      std::fprintf(stderr, "perfbench: refusing to report timings: %s\n", why.c_str());
      return 3;
    }
    const WorkloadResult res = perfbench::RunWorkload(cfg);

    sraps::JsonObject metrics;
    for (const perfbench::Metric& m : res.metrics) metrics[m.name] = m.value;
    sraps::JsonArray notes, failures;
    for (const std::string& n : res.notes) notes.emplace_back(n);
    for (const std::string& f : res.failures) failures.emplace_back(f);
    sraps::JsonObject out;
    out["correct"] = res.failed == 0;
    out["attempted"] = static_cast<std::int64_t>(res.attempted);
    out["failed"] = static_cast<std::int64_t>(res.failed);
    out["metrics"] = sraps::JsonValue(std::move(metrics));
    out["env"] = EnvStamp(cfg, commit);
    out["notes"] = sraps::JsonValue(std::move(notes));
    out["failures"] = sraps::JsonValue(std::move(failures));
    std::ofstream file(result_path);
    file << sraps::JsonValue(std::move(out)).Dump(2) << "\n";
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
