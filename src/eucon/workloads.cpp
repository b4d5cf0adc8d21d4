#include "eucon/workloads.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace eucon::workloads {

using rts::SubtaskSpec;
using rts::SystemSpec;
using rts::TaskSpec;

namespace {

TaskSpec task(std::string name, std::vector<SubtaskSpec> subtasks,
              double max_period, double min_period, double initial_period) {
  TaskSpec t;
  t.name = std::move(name);
  t.subtasks = std::move(subtasks);
  t.rate_min = 1.0 / max_period;
  t.rate_max = 1.0 / min_period;
  t.initial_rate = 1.0 / initial_period;
  return t;
}

}  // namespace

SystemSpec simple() {
  // Paper Table 1 (periods given as 1/R):
  //   T11 on P1, c=35, 1/Rmax=35, 1/Rmin=700, 1/r(0)=60
  //   T21 on P1, c=35 } same task,   1/Rmax=35, 1/Rmin=700, 1/r(0)=90
  //   T22 on P2, c=35 }
  //   T31 on P2, c=45, 1/Rmax=45, 1/Rmin=900, 1/r(0)=100
  SystemSpec s;
  s.num_processors = 2;
  s.tasks.push_back(task("T1", {{0, 35.0}}, 700.0, 35.0, 60.0));
  s.tasks.push_back(task("T2", {{0, 35.0}, {1, 35.0}}, 700.0, 35.0, 90.0));
  s.tasks.push_back(task("T3", {{1, 45.0}}, 900.0, 45.0, 100.0));
  s.validate();
  return s;
}

SystemSpec simple_relaxed() {
  SystemSpec s = simple();
  for (auto& t : s.tasks) t.rate_max = 1.0 / 10.0;
  s.validate();
  return s;
}

SystemSpec medium() {
  // 8 end-to-end tasks + 4 local tasks on 4 processors; 25 subtasks with
  // per-processor counts {7, 6, 6, 6}. All tasks share the rate range
  // [1/3000, 1/20] and start at period 400 — wide enough that every
  // execution-time factor in [0.1, 6] admits a feasible rate assignment.
  // Execution times are kept small relative to Ts = 1000 so that many
  // instances of every subtask run per sampling window (§3.2's requirement
  // on the sampling period), keeping the utilization measurement noise low.
  SystemSpec s;
  s.num_processors = 4;
  const double max_p = 1500.0, min_p = 10.0, init_p = 200.0;
  s.tasks.push_back(task("T1", {{0, 15.0}, {1, 12.5}, {2, 10.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T2", {{1, 14.0}, {2, 16.0}, {3, 12.5}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T3", {{2, 12.0}, {3, 15.0}, {0, 13.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T4", {{3, 17.5}, {0, 13.5}, {1, 11.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T5", {{0, 11.0}, {1, 13.0}, {2, 15.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T6", {{3, 20.0}, {0, 17.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T7", {{1, 15.0}, {2, 14.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T8", {{3, 13.0}, {1, 18.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T9", {{0, 22.5}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T10", {{0, 19.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T11", {{2, 21.0}}, max_p, min_p, init_p));
  s.tasks.push_back(task("T12", {{3, 18.0}}, max_p, min_p, init_p));
  s.validate();
  EUCON_ASSERT(s.num_subtasks() == 25, "MEDIUM must have 25 subtasks");
  const auto counts = s.subtasks_per_processor();
  EUCON_ASSERT(counts[0] == 7 && counts[1] == 6 && counts[2] == 6 && counts[3] == 6,
               "MEDIUM subtask counts must be {7,6,6,6}");
  return s;
}

SystemSpec large() {
  SystemSpec s;
  s.num_processors = 8;
  const double max_p = 2000.0, min_p = 8.0, init_p = 160.0;
  // 16 end-to-end tasks: rings of length 3 and 2 walking the processors,
  // plus 8 local tasks (one per processor): 16*?: chains sum to 48
  // subtasks, locals add 8 -> 56 subtasks, 7 per processor.
  int proc = 0;
  for (int i = 0; i < 8; ++i) {  // eight 3-chains
    const int p0 = proc % 8, p1 = (proc + 1) % 8, p2 = (proc + 3) % 8;
    s.tasks.push_back(task(std::string("L").append(std::to_string(i + 1)),
                           {{p0, 10.0 + i}, {p1, 12.0 + (i % 3)},
                            {p2, 9.0 + (i % 4)}},
                           max_p, min_p, init_p));
    proc += 1;
  }
  for (int i = 0; i < 12; ++i) {  // twelve 2-chains
    const int p0 = (proc + i) % 8, p1 = (proc + i + 2) % 8;
    s.tasks.push_back(task(std::string("L").append(std::to_string(9 + i)),
                           {{p0, 11.0 + (i % 5)}, {p1, 10.0 + (i % 4)}},
                           max_p, min_p, init_p));
  }
  // Locals are only needed where the subtask count has not reached 7;
  // compute the deficit per processor and fill.
  auto counts = s.subtasks_per_processor();
  int local_id = 21;
  for (int p = 0; p < 8; ++p) {
    while (counts[static_cast<std::size_t>(p)] < 7) {
      s.tasks.push_back(
          task(std::string("L").append(std::to_string(local_id++)),
               {{p, 14.0 + p}}, max_p, min_p, init_p));
      ++counts[static_cast<std::size_t>(p)];
    }
  }
  s.validate();
  return s;
}

control::MpcParams simple_controller_params() {
  control::MpcParams p;  // Table 2, SIMPLE row
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  return p;
}

control::MpcParams medium_controller_params() {
  control::MpcParams p;  // Table 2, MEDIUM row
  p.prediction_horizon = 4;
  p.control_horizon = 2;
  p.tref_over_ts = 4.0;
  return p;
}

SystemSpec random_workload(const RandomWorkloadParams& params,
                           std::uint64_t seed) {
  EUCON_REQUIRE(params.num_processors > 0 && params.num_tasks > 0,
                "random workload needs processors and tasks");
  EUCON_REQUIRE(params.min_chain >= 1 && params.max_chain >= params.min_chain,
                "bad chain length range");
  Rng rng(seed);
  SystemSpec s;
  s.num_processors = params.num_processors;
  for (int i = 0; i < params.num_tasks; ++i) {
    TaskSpec t;
    t.name = std::string("R").append(std::to_string(i + 1));
    const int chain =
        static_cast<int>(rng.uniform_int(params.min_chain, params.max_chain));
    // Walk across distinct processors where possible so chains actually
    // couple processors (like the paper's end-to-end tasks).
    int proc = static_cast<int>(rng.uniform_int(0, params.num_processors - 1));
    for (int j = 0; j < chain; ++j) {
      SubtaskSpec sub;
      sub.processor = proc;
      sub.estimated_exec = rng.uniform(params.min_exec, params.max_exec);
      t.subtasks.push_back(sub);
      if (params.num_processors > 1) {
        const int hop =
            static_cast<int>(rng.uniform_int(1, params.num_processors - 1));
        proc = (proc + hop) % params.num_processors;
      }
    }
    const double period = rng.uniform(params.min_period, params.max_period);
    t.initial_rate = 1.0 / period;
    t.rate_min = t.initial_rate / 8.0;
    t.rate_max = t.initial_rate * 8.0;
    s.tasks.push_back(std::move(t));
  }
  s.validate();
  return s;
}

SystemSpec chain_cluster(const ChainClusterParams& params,
                         std::uint64_t seed) {
  EUCON_REQUIRE(params.num_processors > 0, "chain cluster needs processors");
  EUCON_REQUIRE(params.tasks_per_processor >= 1,
                "chain cluster needs at least one task per processor");
  EUCON_REQUIRE(params.chain_length >= 1, "chain length must be >= 1");
  EUCON_REQUIRE(params.chain_length <= params.num_processors,
                "chain longer than the processor ring");
  EUCON_REQUIRE(params.subtask_decay > 0.0 && params.subtask_decay <= 1.0,
                "subtask_decay must be in (0, 1]");
  Rng rng(seed);
  SystemSpec s;
  s.num_processors = params.num_processors;
  const int m = params.num_processors * params.tasks_per_processor;
  s.tasks.reserve(static_cast<std::size_t>(m));
  for (int t = 0; t < m; ++t) {
    TaskSpec task;
    task.name = std::string("C").append(std::to_string(t + 1));
    const int p0 = t % params.num_processors;
    task.subtasks.reserve(static_cast<std::size_t>(params.chain_length));
    double scale = 1.0;
    for (int k = 0; k < params.chain_length; ++k) {
      SubtaskSpec sub;
      sub.processor = (p0 + k) % params.num_processors;
      sub.estimated_exec = scale * rng.uniform(params.min_exec, params.max_exec);
      scale *= params.subtask_decay;
      task.subtasks.push_back(sub);
    }
    const double period = rng.uniform(params.min_period, params.max_period);
    task.initial_rate = 1.0 / period;
    task.rate_min = task.initial_rate / 8.0;
    task.rate_max = task.initial_rate * 8.0;
    s.tasks.push_back(std::move(task));
  }
  s.validate();
  return s;
}

}  // namespace eucon::workloads
