// Unit tests for the dataloaders: registry plumbing, CSV round trips for all
// six systems, the feasible-replay synthesiser, and the Fig. 6 scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/csv.h"
#include "dataloaders/adastra.h"
#include "dataloaders/dataloader.h"
#include "dataloaders/frontier.h"
#include "dataloaders/fugaku.h"
#include "dataloaders/jobs_io.h"
#include "dataloaders/lassen.h"
#include "dataloaders/marconi.h"
#include "dataloaders/mini.h"
#include "dataloaders/replay_synth.h"
#include "dataloaders/trace_table.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

namespace fs = std::filesystem;

fs::path TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sraps_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Checks the recorded schedule never uses more than `cap` nodes at once.
void ExpectFeasibleSchedule(const std::vector<Job>& jobs, int cap) {
  struct Event {
    SimTime t;
    int delta;
  };
  std::vector<Event> events;
  for (const Job& j : jobs) {
    ASSERT_GE(j.recorded_start, j.submit_time) << "job " << j.id;
    ASSERT_GT(j.recorded_end, j.recorded_start) << "job " << j.id;
    events.push_back({j.recorded_start, j.nodes_required});
    events.push_back({j.recorded_end, -j.nodes_required});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;  // releases before claims at the same instant
  });
  int in_use = 0;
  for (const Event& e : events) {
    in_use += e.delta;
    ASSERT_LE(in_use, cap);
    ASSERT_GE(in_use, 0);
  }
}

TEST(RegistryTest, BuiltinLoadersRegistered) {
  RegisterBuiltinDataloaders();
  auto& reg = DataloaderRegistry::Instance();
  for (const char* name :
       {"frontier", "marconi100", "fugaku", "lassen", "adastraMI250", "mini"}) {
    EXPECT_TRUE(reg.Has(name)) << name;
    EXPECT_EQ(reg.Get(name).system_name(), name);
  }
  EXPECT_FALSE(reg.Has("unknown"));
  EXPECT_THROW(reg.Get("unknown"), std::invalid_argument);
}

TEST(NodeListTest, ParseFormatRoundTrip) {
  const std::vector<int> nodes = {3, 17, 42};
  EXPECT_EQ(loader_detail::ParseNodeList(loader_detail::FormatNodeList(nodes)), nodes);
  EXPECT_TRUE(loader_detail::ParseNodeList("").empty());
  EXPECT_EQ(loader_detail::ParseNodeList("5"), (std::vector<int>{5}));
}

TEST(NodeListTest, RejectsJunkNamingTheCell) {
  for (const std::string cell : {"3x|4", "x", "3| 4", "99999999999"}) {
    try {
      loader_detail::ParseNodeList(cell);
      ADD_FAILURE() << cell << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + cell + "'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(loader_detail::ParseNodeList("3||4|"), (std::vector<int>{3, 4}));
}

// --- replay synthesiser ------------------------------------------------------

TEST(ReplaySynthTest, ProducesFeasibleSchedule) {
  SyntheticWorkloadSpec wl;
  wl.horizon = 12 * kHour;
  wl.arrival_rate_per_hour = 60;
  wl.max_nodes = 32;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);
  ReplaySynthesisOptions rs;
  rs.total_nodes = 100;
  rs.utilization_cap = 0.9;
  rs.max_hold = 600;
  SynthesizeRecordedSchedule(jobs, rs);
  ExpectFeasibleSchedule(jobs, 90);
}

TEST(ReplaySynthTest, NodeListsDisjointOverTime) {
  SyntheticWorkloadSpec wl;
  wl.horizon = 4 * kHour;
  wl.max_nodes = 16;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);
  ReplaySynthesisOptions rs;
  rs.total_nodes = 64;
  SynthesizeRecordedSchedule(jobs, rs);
  // Any two jobs overlapping in time must have disjoint node sets.
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      const bool overlap = jobs[a].recorded_start < jobs[b].recorded_end &&
                           jobs[b].recorded_start < jobs[a].recorded_end;
      if (!overlap) continue;
      std::set<int> sa(jobs[a].recorded_nodes.begin(), jobs[a].recorded_nodes.end());
      for (int n : jobs[b].recorded_nodes) {
        ASSERT_EQ(sa.count(n), 0u)
            << "jobs " << jobs[a].id << " and " << jobs[b].id << " share node " << n;
      }
    }
  }
}

TEST(ReplaySynthTest, OversizeJobThrows) {
  std::vector<Job> jobs = {[] {
    Job j;
    j.id = 1;
    j.submit_time = 0;
    j.recorded_start = 0;
    j.recorded_end = 100;
    j.nodes_required = 200;
    return j;
  }()};
  ReplaySynthesisOptions rs;
  rs.total_nodes = 100;
  rs.utilization_cap = 0.9;
  EXPECT_THROW(SynthesizeRecordedSchedule(jobs, rs), std::invalid_argument);
}

TEST(ReplaySynthTest, InvalidOptionsThrow) {
  std::vector<Job> jobs;
  ReplaySynthesisOptions rs;
  rs.total_nodes = 0;
  EXPECT_THROW(SynthesizeRecordedSchedule(jobs, rs), std::invalid_argument);
}

// --- trace table ---------------------------------------------------------------

TEST(TraceTableTest, SaveLoadRoundTrip) {
  const fs::path dir = TempDir("tracetab");
  std::vector<Job> jobs(1);
  jobs[0].id = 7;
  jobs[0].cpu_util = TraceSeries({0, 20, 40}, {0.1, 0.5, 0.9});
  jobs[0].node_power_w = TraceSeries({0, 20}, {100.0, 300.0});
  SaveTraceTable((dir / "traces.csv").string(), jobs);
  const auto traces = LoadTraceTable((dir / "traces.csv").string());
  ASSERT_EQ(traces.count(7), 1u);
  EXPECT_DOUBLE_EQ(traces.at(7).cpu_util.Sample(25), 0.5);
  EXPECT_DOUBLE_EQ(traces.at(7).node_power_w.Sample(25), 300.0);
  EXPECT_TRUE(traces.at(7).gpu_util.empty());
  fs::remove_all(dir);
}

TEST(TraceTableTest, InterleavedJobsLoadAndDisorderNamesTheLine) {
  const fs::path dir = TempDir("tracetab_order");
  const std::string path = (dir / "traces.csv").string();
  {
    std::ofstream out(path);
    out << "job_id,offset_s,cpu_util,gpu_util,node_power_w\n"
        << "1,0,0.5,,\n2,0,0.25,,\n1,20,0.75,,100\n2,20,,,\n";
  }
  const TraceTable traces = LoadTraceTable(path);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces.at(1).cpu_util.offsets(), (std::vector<SimDuration>{0, 20}));
  EXPECT_DOUBLE_EQ(traces.at(1).node_power_w.Sample(0), 100.0);
  EXPECT_EQ(traces.at(2).cpu_util.size(), 1u);
  {
    std::ofstream out(path);
    out << "job_id,offset_s,cpu_util,gpu_util,node_power_w\n"
        << "1,20,0.5,,\n2,0,0.25,,\n1,20,0.75,,\n";
  }
  try {
    LoadTraceTable(path);
    ADD_FAILURE() << "a repeated offset loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":4: job 1 cpu_util"), std::string::npos)
        << e.what();
  }
  {
    std::ofstream out(path);
    out << "job_id,offset_s,cpu_util,gpu_util,node_power_w\n1,0,half,,\n";
  }
  try {
    LoadTraceTable(path);
    ADD_FAILURE() << "a malformed value loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2: 'half'"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(TraceTableTest, AttachGivesRepeatedIdsTheirOwnCopy) {
  std::vector<Job> jobs(3);
  jobs[0].id = 4;
  jobs[1].id = 5;
  jobs[2].id = 4;
  jobs[2].gpu_util = TraceSeries::Constant(0.3);
  TraceTable traces;
  traces[4].cpu_util = TraceSeries({0, 20}, {0.1, 0.9});
  AttachTraces(jobs, std::move(traces));
  EXPECT_EQ(jobs[0].cpu_util.values(), (std::vector<double>{0.1, 0.9}));
  EXPECT_EQ(jobs[2].cpu_util.values(), (std::vector<double>{0.1, 0.9}));
  EXPECT_TRUE(jobs[1].cpu_util.empty());
  EXPECT_TRUE(jobs[2].gpu_util.is_constant());  // an empty series attaches nothing
}

TEST(TraceTableTest, AttachMatchesIds) {
  std::vector<Job> jobs(2);
  jobs[0].id = 1;
  jobs[1].id = 2;
  std::map<JobId, JobTraces> traces;
  traces[2].cpu_util = TraceSeries({0}, {0.7});
  AttachTraces(jobs, traces);
  EXPECT_TRUE(jobs[0].cpu_util.empty());
  EXPECT_DOUBLE_EQ(jobs[1].cpu_util.Sample(0), 0.7);
}

// --- per-system generator/loader round trips ------------------------------------

TEST(MarconiTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("marconi");
  MarconiDatasetSpec spec;
  spec.span = 8 * kHour;
  spec.arrival_rate_per_hour = 30;
  const auto generated = GenerateMarconiDataset(dir.string(), spec);
  const auto loaded = MarconiLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id, generated[i].id);
    EXPECT_EQ(loaded[i].submit_time, generated[i].submit_time);
    EXPECT_EQ(loaded[i].recorded_start, generated[i].recorded_start);
    EXPECT_EQ(loaded[i].recorded_end, generated[i].recorded_end);
    EXPECT_EQ(loaded[i].nodes_required, generated[i].nodes_required);
    EXPECT_EQ(loaded[i].recorded_nodes, generated[i].recorded_nodes);
    EXPECT_EQ(loaded[i].account, generated[i].account);
  }
  // PM100 carries per-job traces.
  EXPECT_FALSE(loaded.front().cpu_util.empty());
  ExpectFeasibleSchedule(loaded, 980);
  fs::remove_all(dir);
}

TEST(FugakuTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("fugaku");
  FugakuDatasetSpec spec;
  spec.span = 12 * kHour;
  spec.low_rate_per_hour = 60;
  spec.high_rate_per_hour = 120;
  spec.high_load_start = 6 * kHour;
  spec.scale_nodes = 1024;
  const auto generated = GenerateFugakuDataset(dir.string(), spec);
  const auto loaded = FugakuLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  // Summary dataset: constant node power traces, no time series.
  for (const Job& j : loaded) {
    ASSERT_FALSE(j.node_power_w.empty());
    EXPECT_TRUE(j.node_power_w.is_constant());
    EXPECT_TRUE(j.cpu_util.empty());
  }
  ExpectFeasibleSchedule(loaded, 1024);
  fs::remove_all(dir);
}

TEST(FugakuTest, ArchetypesGiveDistinctPowerLevels) {
  const fs::path dir = TempDir("fugaku_arch");
  FugakuDatasetSpec spec;
  spec.span = kDay;
  spec.low_rate_per_hour = 200;
  spec.high_load_start = 2 * kDay;  // all low phase
  spec.scale_nodes = 1024;
  const auto jobs = GenerateFugakuDataset(dir.string(), spec);
  double compute_sum = 0, memory_sum = 0;
  int nc = 0, nm = 0;
  for (const Job& j : jobs) {
    if (j.name.rfind("compute", 0) == 0) {
      compute_sum += j.node_power_w.values().front();
      ++nc;
    } else if (j.name.rfind("memory", 0) == 0) {
      memory_sum += j.node_power_w.values().front();
      ++nm;
    }
  }
  ASSERT_GT(nc, 5);
  ASSERT_GT(nm, 5);
  EXPECT_GT(compute_sum / nc, memory_sum / nm + 20.0);  // compute-bound runs hotter
  fs::remove_all(dir);
}

TEST(FugakuTest, SliceConfigScales) {
  const SystemConfig slice = FugakuSliceConfig(2048);
  EXPECT_EQ(slice.TotalNodes(), 2048);
  EXPECT_EQ(slice.name, "fugaku");
}

TEST(LassenTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("lassen");
  LassenDatasetSpec spec;
  spec.span = 12 * kHour;
  spec.arrival_rate_per_hour = 40;
  const auto generated = GenerateLassenDataset(dir.string(), spec);
  const auto loaded = LassenLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    // Energy -> constant power reconstruction must match the generator.
    ASSERT_FALSE(loaded[i].node_power_w.empty());
    EXPECT_NEAR(loaded[i].node_power_w.values().front(),
                generated[i].node_power_w.values().front(), 1e-3);
  }
  ExpectFeasibleSchedule(loaded, 792);
  fs::remove_all(dir);
}

TEST(AdastraTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("adastra");
  AdastraDatasetSpec spec;
  spec.span = 2 * kDay;
  const auto generated = GenerateAdastraDataset(dir.string(), spec);
  const auto loaded = AdastraLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  ExpectFeasibleSchedule(loaded, 356);
  fs::remove_all(dir);
}

TEST(MiniTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("mini");
  MiniDatasetSpec spec;
  spec.span = 12 * kHour;
  const auto generated = GenerateMiniDataset(dir.string(), spec);
  ASSERT_FALSE(generated.empty());
  const auto loaded = MiniLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id, generated[i].id);
    EXPECT_EQ(loaded[i].nodes_required, generated[i].nodes_required);
    EXPECT_EQ(loaded[i].recorded_nodes, generated[i].recorded_nodes);
  }
  ExpectFeasibleSchedule(loaded, 16);
  fs::remove_all(dir);
}

TEST(AdastraTest, GpuPowerDerivation) {
  EXPECT_DOUBLE_EQ(DeriveAdastraGpuPowerW(1000, 200, 100), 700.0);
  EXPECT_DOUBLE_EQ(DeriveAdastraGpuPowerW(250, 200, 100), 0.0);  // floored
}

TEST(FrontierTest, GenerateLoadRoundTrip) {
  const fs::path dir = TempDir("frontier");
  FrontierDatasetSpec spec;
  spec.span = kDay;
  spec.arrival_rate_per_hour = 10;
  const auto generated = GenerateFrontierDataset(dir.string(), spec);
  const auto loaded = FrontierLoader().Load(dir.string());
  ASSERT_EQ(loaded.size(), generated.size());
  EXPECT_FALSE(loaded.front().gpu_util.empty() && loaded.front().cpu_util.empty());
  ExpectFeasibleSchedule(loaded, 9600);
  fs::remove_all(dir);
}

TEST(FrontierTest, GenerateCapsJobsAtTheUsableNodeCount) {
  // Seed 605's one-day workload draws a job above the 0.9 x 9,600 = 8,640
  // nodes the recorded-schedule synthesiser admits; generation must clamp
  // it there rather than throw.
  const fs::path dir = TempDir("frontier_cap");
  FrontierDatasetSpec spec;
  spec.span = kDay;
  spec.arrival_rate_per_hour = 10;
  spec.seed = 605;
  const auto jobs = GenerateFrontierDataset(dir.string(), spec);
  int largest = 0;
  for (const Job& j : jobs) largest = std::max(largest, j.nodes_required);
  EXPECT_EQ(largest, 8640);
  ExpectFeasibleSchedule(jobs, 9600);
  fs::remove_all(dir);
}

TEST(FrontierTest, PriorityBoostsLargeJobs) {
  // Same submit time: the larger request wins (leadership-class boost).
  EXPECT_GT(FrontierPriority(1000, 9216), FrontierPriority(1000, 16));
  // Age still matters: a much older small job beats a new small job.
  EXPECT_GT(FrontierPriority(0, 16), FrontierPriority(100000, 16));
}

TEST(FrontierTest, Fig6ScenarioShape) {
  const fs::path dir = TempDir("fig6");
  FrontierFig6Spec spec;
  const auto jobs = GenerateFrontierFig6Scenario(dir.string(), spec);
  ExpectFeasibleSchedule(jobs, 9600);

  // Exactly three hero jobs, run sequentially in the recorded schedule.
  std::vector<const Job*> heroes;
  for (const Job& j : jobs) {
    if (j.nodes_required == spec.full_system_nodes) heroes.push_back(&j);
  }
  ASSERT_EQ(heroes.size(), 3u);
  std::sort(heroes.begin(), heroes.end(), [](const Job* a, const Job* b) {
    return a->recorded_start < b->recorded_start;
  });
  EXPECT_GE(heroes[1]->recorded_start, heroes[0]->recorded_end);
  EXPECT_GE(heroes[2]->recorded_start, heroes[1]->recorded_end);
  // Heroes are submitted early but start only after the machine drains.
  EXPECT_GT(heroes[0]->recorded_start, heroes[0]->submit_time + kHour);
  fs::remove_all(dir);
}

TEST(MarconiTest, SharedNodeJobsFilteredOnLoad) {
  // PM100 contains shared-node jobs; the model does not support them, so the
  // loader must drop the flagged rows (§2.2) while the raw CSV keeps them.
  const fs::path dir = TempDir("marconi_shared");
  MarconiDatasetSpec spec;
  spec.span = 6 * kHour;
  spec.arrival_rate_per_hour = 40;
  const auto usable = GenerateMarconiDataset(dir.string(), spec);
  const CsvTable raw = CsvTable::Load((dir / "jobs.csv").string());
  ASSERT_GT(raw.num_rows(), usable.size());  // shared rows exist in the file
  std::size_t shared_rows = 0;
  for (std::size_t r = 0; r < raw.num_rows(); ++r) {
    if (raw.GetInt(r, "shared").value_or(0) != 0) ++shared_rows;
  }
  EXPECT_EQ(raw.num_rows(), usable.size() + shared_rows);
  const auto loaded = MarconiLoader().Load(dir.string());
  EXPECT_EQ(loaded.size(), usable.size());
  for (const Job& j : loaded) EXPECT_NE(j.account, "shared_acct");
  fs::remove_all(dir);
}

TEST(JobsIoTest, SharedColumnRoundTrip) {
  const fs::path dir = TempDir("jobsio_shared");
  std::vector<Job> jobs(2);
  for (int i = 0; i < 2; ++i) {
    jobs[i].id = i + 1;
    jobs[i].user = "u";
    jobs[i].account = "a";
    jobs[i].submit_time = 0;
    jobs[i].recorded_start = 0;
    jobs[i].recorded_end = 100;
    jobs[i].nodes_required = 1;
  }
  WriteJobsCsv((dir / "jobs.csv").string(), jobs, {false, true});
  EXPECT_EQ(ReadJobsCsv((dir / "jobs.csv").string(), true).size(), 1u);
  EXPECT_EQ(ReadJobsCsv((dir / "jobs.csv").string(), false).size(), 2u);
  fs::remove_all(dir);
}

TEST(JobsIoTest, EmptyAndPinnedColumnsSurvive) {
  const fs::path dir = TempDir("jobsio");
  std::vector<Job> jobs(2);
  jobs[0].id = 1;
  jobs[0].user = "u1";
  jobs[0].account = "with,comma";  // exercise CSV quoting
  jobs[0].submit_time = 10;
  jobs[0].recorded_start = 20;
  jobs[0].recorded_end = 50;
  jobs[0].nodes_required = 2;
  jobs[0].recorded_nodes = {4, 9};
  jobs[1].id = 2;
  jobs[1].user = "u2";
  jobs[1].account = "b";
  jobs[1].submit_time = 15;
  jobs[1].recorded_start = 30;
  jobs[1].recorded_end = 60;
  jobs[1].nodes_required = 1;
  jobs[1].node_power_w = TraceSeries::Constant(123.5);
  WriteJobsCsv((dir / "jobs.csv").string(), jobs);
  const auto back = ReadJobsCsv((dir / "jobs.csv").string());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].account, "with,comma");
  EXPECT_EQ(back[0].recorded_nodes, (std::vector<int>{4, 9}));
  EXPECT_TRUE(back[0].node_power_w.empty());
  EXPECT_DOUBLE_EQ(back[1].node_power_w.values().front(), 123.5);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sraps
