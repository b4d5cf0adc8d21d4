#include "control/open_loop.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "qp/lsqlin.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

OpenLoopController::OpenLoopController(const PlantModel& model,
                                       Vector preferred_rates)
    : model_(model) {
  model_.validate();
  const std::size_t n = model_.num_processors();
  const std::size_t m = model_.num_tasks();
  EUCON_REQUIRE(preferred_rates.size() == m, "preferred rate size mismatch");

  // min ||F r - B||² + eps ||r - preferred||²  s.t.  R_min <= r <= R_max.
  // The eps term selects, among the exact solutions of the (typically
  // underdetermined) design equation B = F r', the one nearest the
  // preferred profile.
  const double eps = 1e-4;
  Matrix c(n + m, m);
  Vector d(n + m);
  c.set_block(0, 0, model_.f);
  for (std::size_t i = 0; i < n; ++i) d[i] = model_.b[i];
  for (std::size_t j = 0; j < m; ++j) {
    c(n + j, j) = std::sqrt(eps);
    d[n + j] = std::sqrt(eps) * preferred_rates[j];
  }

  qp::LsqlinProblem prob;
  prob.c = std::move(c);
  prob.d = std::move(d);
  prob.lb = model_.rate_min;
  prob.ub = model_.rate_max;

  const auto res = qp::lsqlin(prob);
  EUCON_ASSERT(res.status == qp::Status::kOptimal,
               "open-loop design problem did not solve");
  rates_ = res.x.clamped(model_.rate_min, model_.rate_max);
}

const Vector& OpenLoopController::update(const Vector& /*u*/) { return rates_; }

Vector OpenLoopController::expected_utilization(double etf) const {
  Vector u = model_.f * rates_;
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = std::min(1.0, etf * u[i]);
  return u;
}

}  // namespace eucon::control
