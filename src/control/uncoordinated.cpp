#include "control/uncoordinated.h"

#include <algorithm>

#include "common/check.h"
#include "control/topology.h"

namespace eucon::control {

using linalg::Vector;

UncoordinatedFcsController::UncoordinatedFcsController(PlantModel model,
                                                       UncoordinatedParams params,
                                                       Vector initial_rates)
    : model_(std::move(model)),
      params_(params),
      rates_(std::move(initial_rates)),
      e_prev_(model_.num_processors(), 0.0) {
  model_.validate();
  EUCON_REQUIRE(rates_.size() == model_.num_tasks(), "rate size mismatch");
  rates_ = rates_.clamped(model_.rate_min, model_.rate_max);

  root_ = compute_ownership(linalg::SparseMatrix::from_dense(model_.f));
  local_exec_.resize(root_.size());
  for (std::size_t j = 0; j < root_.size(); ++j)
    local_exec_[j] = model_.f(root_[j], j);
}

const Vector& UncoordinatedFcsController::update(const Vector& u) {
  EUCON_REQUIRE(u.size() == model_.num_processors(),
                "utilization vector size mismatch");
  const Vector e = model_.b - u;

  // Per-processor incremental PI on the local error only.
  Vector db(model_.num_processors());
  for (std::size_t p = 0; p < db.size(); ++p) {
    db[p] = params_.ki * e[p];
    if (have_prev_) db[p] += params_.kp * (e[p] - e_prev_[p]);
  }

  // Distribute each processor's requested utilization change equally over
  // the tasks rooted there, converting via the LOCAL execution time only —
  // the "independent tasks" assumption in action.
  std::vector<int> rooted_count(db.size(), 0);
  for (std::size_t j = 0; j < root_.size(); ++j) ++rooted_count[root_[j]];
  for (std::size_t j = 0; j < root_.size(); ++j) {
    const std::size_t p = root_[j];
    if (rooted_count[p] == 0) continue;
    const double dr =
        db[p] / (static_cast<double>(rooted_count[p]) * local_exec_[j]);
    rates_[j] = std::clamp(rates_[j] + dr, model_.rate_min[j],
                           model_.rate_max[j]);
  }
  e_prev_ = e;
  have_prev_ = true;
  return rates_;
}

}  // namespace eucon::control
