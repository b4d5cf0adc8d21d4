// Adaptive (self-tuning) EUCON: the MPC controller with its G = I
// assumption replaced by on-line gain estimates.
//
// §6.3 of the paper analyses the cost of the fixed assumption: true gains
// above ~2 cause oscillation, above the critical gain divergence, and
// pessimistic estimates slow convergence. The follow-on EUCON literature
// addresses this with self-tuning; this controller composes the
// GainEstimator with the MpcController: each period it compares the
// utilization change it predicted against the one it measured, refreshes
// diag(ĝ), and rescales the prediction model — extending the stable
// operating range far past the fixed-model critical gain.
#pragma once

#include "control/controller.h"
#include "control/gain_estimator.h"
#include "control/mpc.h"

namespace eucon::control {

class AdaptiveMpcController final : public Controller {
 public:
  AdaptiveMpcController(PlantModel model, MpcParams params,
                        linalg::Vector initial_rates,
                        GainEstimatorParams estimator_params = {});

  const linalg::Vector& update(const linalg::Vector& u) override;
  std::string name() const override { return "EUCON-A"; }
  const Diagnostics* diagnostics() const override { return mpc_.diagnostics(); }

  const linalg::Vector& gain_estimate() const { return estimator_.gains(); }
  const MpcController& inner() const { return mpc_; }

 private:
  PlantModel model_;
  MpcController mpc_;
  GainEstimator estimator_;
  linalg::Vector u_prev_;
  bool have_prev_ = false;
};

}  // namespace eucon::control
