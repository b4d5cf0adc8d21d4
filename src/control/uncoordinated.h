// The pre-EUCON baseline the paper argues against (§1-2): distributed
// feedback control scheduling that "assumed tasks on different processors
// were independent from each other" (the [17] approach).
//
// Each processor runs an isolated single-processor feedback controller
// (incremental PI on its own utilization error) and adjusts only the tasks
// ROOTED on it — using only the locally hosted execution time, as if the
// task had no subtasks elsewhere. The load a task imposes on *other*
// processors through its downstream subtasks is invisible to everyone:
// nobody models the coupling, so processors whose load is dominated by
// remote subtasks cannot be regulated.
//
// This controller exists to reproduce the paper's central motivation
// quantitatively (see bench_ablation section E2): on coupled workloads it
// fails exactly where the MIMO controller succeeds.
#pragma once

#include <vector>

#include "control/controller.h"
#include "control/model.h"

namespace eucon::control {

struct UncoordinatedParams {
  double kp = 0.3;
  double ki = 0.2;
};

class UncoordinatedFcsController final : public Controller {
 public:
  UncoordinatedFcsController(PlantModel model, UncoordinatedParams params,
                             linalg::Vector initial_rates);

  const linalg::Vector& update(const linalg::Vector& u) override;
  std::string name() const override { return "FCS-IND"; }

  // Which processor each task is rooted on (largest allocation share —
  // the ownership rule of control/topology.h).
  const std::vector<std::size_t>& roots() const { return root_; }

 private:
  PlantModel model_;
  UncoordinatedParams params_;
  std::vector<std::size_t> root_;       // task -> owning processor
  std::vector<double> local_exec_;      // task's c on its root processor
  linalg::Vector rates_;
  linalg::Vector e_prev_;
  bool have_prev_ = false;
};

}  // namespace eucon::control
