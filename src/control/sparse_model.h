// The plant model with a sparse allocation matrix — the cluster-scale
// counterpart of control/model.h.
//
// The paper's F is n×m with f_pj = total execution time of task j's
// subtasks on processor p; task chains touch a handful of processors each,
// so F's density falls as 1/n. At 1k–10k processors the dense Matrix stops
// being viable (10k × 20k doubles = 1.6 GB of zeros); SparsePlantModel
// stores F in CSR and the hierarchical controller builds its per-shard
// dense sub-blocks straight from the CSR structure.
#pragma once

#include "control/model.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "rts/spec.h"

namespace eucon::control {

struct SparsePlantModel {
  linalg::SparseMatrix f;   // n×m, CSR
  linalg::Vector b;         // n set points
  linalg::Vector rate_min;  // m
  linalg::Vector rate_max;  // m

  std::size_t num_processors() const { return f.rows(); }
  std::size_t num_tasks() const { return f.cols(); }

  void validate() const;

  // Dense view for the central controllers (EUCON, PID, OPEN, ...) and
  // small-n parity tests. Do not call at cluster scale — it materializes
  // the n×m zeros.
  PlantModel to_dense() const;
};

// Builds the sparse model from a task-set spec without ever materializing
// the dense F (the sparse analogue of make_plant_model, equal to it bit
// for bit: to_dense() reproduces make_plant_model's result exactly). Empty
// set_points = the Liu–Layland RMS bounds, as in the dense builder.
SparsePlantModel make_sparse_plant_model(const rts::SystemSpec& spec,
                                         const linalg::Vector& set_points = {});

// Compresses an existing dense model (small-n interop).
SparsePlantModel sparsify(const PlantModel& model);

// The paper's difference-equation plant (eq. 5-6) in isolation:
//
//   u(k) = u(k-1) + G F Δr(k-1)
//
// This is the model the stability analysis reasons about. Tests and the
// scaling bench close loops against it to separate control behavior from
// scheduling and measurement effects (the DES covers those). It steps
// allocation-free once constructed, at any n.
class SparseLinearPlant {
 public:
  // `gains` are the true utilization gains G (one per processor);
  // `initial_rates`, clamped to the model's rate bounds, seed the rate
  // memory used to form Δr and the initial utilization G F r(0).
  SparseLinearPlant(SparsePlantModel model, linalg::Vector gains,
                    linalg::Vector initial_rates);

  // Applies the rate vector r(k) and returns u(k+1), saturated to [0, 1].
  const linalg::Vector& step(const linalg::Vector& rates) EUCON_REALTIME;

  const linalg::Vector& utilization() const { return u_; }
  void set_utilization(const linalg::Vector& u);

 private:
  SparsePlantModel model_;
  linalg::Vector gains_;
  linalg::Vector rates_prev_;
  linalg::Vector dr_;     // scratch: r(k) - r(k-1)
  linalg::Vector du_;     // scratch: F Δr
  linalg::Vector u_;
};

}  // namespace eucon::control
