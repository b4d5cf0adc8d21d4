// Warm starts of the dual QP (qp/active_set.h): an LsqlinSolver that
// carries its factor and active set from one solve to the next must return
// what a fresh, cold solver returns on the same problem.
//
// The problems are MPC-shaped sequences, each solve related to the last:
// a closed loop drives the rates with the solutions (clamped into the box,
// so rates pin at their bounds), and the utilization follows a plant whose
// gain differs from the model's, with noise and an occasional jump. The
// shapes are SIMPLE, MEDIUM and LARGE with and without the utilization rows
// (hard and soft), and one shard of the cluster_des HIER controller (soft).
//
// Also here: the carried factor stays healthy over thousands of solves
// (JJ' = H^-1), and the MPC controller forgets it whenever C or its rows
// change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "control/hierarchical.h"
#include "control/mpc.h"
#include "control/sparse_model.h"
#include "eucon/workloads.h"
#include "linalg/qr.h"
#include "qp/lsqlin.h"

namespace eucon {
namespace {

using control::MpcParams;
using control::PlantModel;
using linalg::Matrix;
using linalg::SparseMatrix;
using linalg::Vector;

struct Shape {
  std::string name;
  PlantModel model;
  MpcParams params;
};

std::vector<Shape> paper_shapes() {
  return {
      {"simple", control::make_plant_model(workloads::simple()),
       workloads::simple_controller_params()},
      {"medium", control::make_plant_model(workloads::medium()),
       workloads::medium_controller_params()},
      {"large", control::make_plant_model(workloads::large()),
       workloads::medium_controller_params()},
  };
}

// Shard 1 of cluster_des's HIER controller (chain_cluster n = 256, task set
// 4100, shards of 32): the local model its MpcController solves over.
Shape hier_shard() {
  workloads::ChainClusterParams params;
  params.num_processors = 256;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  params.subtask_decay = 0.15;
  const rts::SystemSpec spec = workloads::chain_cluster(params, 4100);
  const control::SparsePlantModel sparse = control::make_sparse_plant_model(spec);
  MpcParams mpc;
  mpc.prediction_horizon = 2;
  mpc.control_horizon = 1;
  mpc.tref_over_ts = 4.0;
  mpc.constraint_mode = control::ConstraintMode::kSoftOnly;
  control::HierarchicalParams hier;
  hier.shard_size = 32;
  const control::HierarchicalMpcController ctrl(
      sparse, mpc, hier, spec.initial_rate_vector());
  const std::vector<std::size_t>& rows = ctrl.shard_rows(1);
  const std::vector<std::size_t>& tasks = ctrl.shard_tasks(1);
  Shape shape{"hier_shard", {}, mpc};
  shape.model.f = Matrix(rows.size(), tasks.size());
  shape.model.b = Vector(rows.size());
  shape.model.rate_min = Vector(tasks.size());
  shape.model.rate_max = Vector(tasks.size());
  for (std::size_t qi = 0; qi < rows.size(); ++qi) {
    shape.model.b[qi] = sparse.b[rows[qi]];
    for (std::size_t ji = 0; ji < tasks.size(); ++ji)
      shape.model.f(qi, ji) = sparse.f.at(rows[qi], tasks[ji]);
  }
  for (std::size_t ji = 0; ji < tasks.size(); ++ji) {
    shape.model.rate_min[ji] = sparse.rate_min[tasks[ji]];
    shape.model.rate_max[ji] = sparse.rate_max[tasks[ji]];
  }
  return shape;
}

// A closed loop around one shape's QP: step() builds this period's d and
// right-hand side, and advance() applies a solution and moves the plant.
// A hard loop solves over all of the MPC's rows, a soft one over the
// rate-bound tail (rate_rows(), as the MPC's fallback does). Without jumps
// the loop settles, and the same rows stay pinned for thousands of solves.
class Loop {
 public:
  Loop(const Shape& shape, bool hard, std::uint64_t seed, bool jumps = true)
      : model_(shape.model),
        mats_(control::build_mpc_matrices(shape.model, shape.params)),
        rows_(control::build_constraint_rows(
            shape.model, shape.params.control_horizon,
            std::vector<bool>(shape.model.num_processors(), true))),
        mh_(static_cast<std::size_t>(shape.params.control_horizon)),
        util_rows_(model_.num_processors() * mh_),
        hard_(hard),
        jumps_(jumps),
        rng_(seed),
        u_(model_.num_processors()),
        r_(model_.num_tasks()),
        gain_(model_.num_processors()) {
    for (std::size_t i = 0; i < u_.size(); ++i) {
      u_[i] = model_.b[i] * rng_.uniform(0.7, 1.3);
      gain_[i] = rng_.uniform(0.6, 1.8);
    }
    for (std::size_t j = 0; j < r_.size(); ++j) {
      const double roll = rng_.uniform(0.0, 1.0);
      r_[j] = roll < 0.2   ? model_.rate_min[j]
              : roll < 0.4 ? model_.rate_max[j]
                           : rng_.uniform(model_.rate_min[j],
                                          model_.rate_max[j]);
    }
  }

  const Matrix& c() const { return mats_.c; }
  const Vector& d() const { return d_; }
  qp::RowsView rows() const { return hard_ ? all_rows() : rate_rows(); }
  Vector b() const { return hard_ ? b_ : rate_b(); }
  qp::RowsView all_rows() const { return qp::RowsView(rows_, 0, rows_.rows()); }
  qp::RowsView rate_rows() const {
    return qp::RowsView(rows_, util_rows_, rows_.rows() - util_rows_);
  }
  Vector rate_b() const {
    Vector tail(b_.size() - util_rows_);
    for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = b_[util_rows_ + i];
    return tail;
  }

  // This period's d = du (B - u) and right-hand side over all rows.
  void step() {
    const std::size_t n = model_.num_processors();
    const std::size_t m = model_.num_tasks();
    d_ = mats_.du * (model_.b - u_);
    b_ = Vector(rows_.rows());
    std::size_t row = 0;
    for (std::size_t i = 0; i < mh_; ++i)
      for (std::size_t p = 0; p < n; ++p) b_[row++] = model_.b[p] - u_[p];
    for (std::size_t i = 0; i < mh_; ++i) {
      for (std::size_t j = 0; j < m; ++j)
        b_[row + j] = model_.rate_max[j] - r_[j];
      for (std::size_t j = 0; j < m; ++j)
        b_[row + m + j] = r_[j] - model_.rate_min[j];
      row += 2 * m;
    }
  }

  // Applies x's first block (clamped into the box) and moves the plant:
  // u += diag(gain) F Δr + noise, with a jump every 40 periods if enabled.
  void advance(const Vector& x, int k) {
    const std::size_t n = model_.num_processors();
    const std::size_t m = model_.num_tasks();
    Vector dr(m);
    for (std::size_t j = 0; j < m; ++j) {
      const double next =
          std::clamp(r_[j] + x[j], model_.rate_min[j], model_.rate_max[j]);
      dr[j] = next - r_[j];
      r_[j] = next;
    }
    const Vector du = model_.f * dr;
    const bool jump = jumps_ && k % 40 == 39;
    for (std::size_t p = 0; p < n; ++p) {
      u_[p] += gain_[p] * du[p] + rng_.uniform(-0.02, 0.02);
      if (jump) u_[p] = model_.b[p] * rng_.uniform(0.5, 1.5);
      u_[p] = std::clamp(u_[p], 0.0, 1.0);
    }
  }

  // The multipliers of the rows `active` at x: A_N' lambda = -2 C'(Cx - d)
  // (H x + f = 2 C'(C x - d) for H = 2 C'C, f = -2 C'd).
  std::vector<double> multipliers(const Vector& x,
                                  const std::vector<std::size_t>& active) const {
    if (active.empty()) return {};
    const Matrix dense = rows_.to_dense();
    const Vector g = -2.0 * linalg::transpose_times(mats_.c, mats_.c * x - d_);
    Matrix ant(x.size(), active.size());
    const std::size_t first = hard_ ? 0 : util_rows_;
    for (std::size_t k = 0; k < active.size(); ++k)
      for (std::size_t i = 0; i < x.size(); ++i)
        ant(i, k) = dense(first + active[k], i);
    const Vector lambda = linalg::Qr(ant).solve_least_squares(g);
    return lambda.data();
  }

 private:
  PlantModel model_;
  control::MpcMatrices mats_;
  SparseMatrix rows_;
  std::size_t mh_;
  std::size_t util_rows_;  // the leading rows that bound u
  bool hard_;
  bool jumps_;
  Rng rng_;
  Vector u_;
  Vector r_;
  Vector gain_;  // the plant's gain on each processor; the model's is 1
  Vector d_;
  Vector b_;
};

// Row indices in `a` but not in `b` (both ascending).
std::vector<std::size_t> minus(const std::vector<std::size_t>& a,
                               const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Every row of `extra` is active in `res` with a multiplier within 1e-12 of
// zero.
void expect_weakly_active(const Loop& loop, const qp::LsqlinResult& res,
                          const std::vector<std::size_t>& extra,
                          const std::string& where) {
  const std::vector<double> lambda = loop.multipliers(res.x, res.active);
  for (const std::size_t row : extra) {
    const auto at = std::find(res.active.begin(), res.active.end(), row);
    const double l = lambda[static_cast<std::size_t>(at - res.active.begin())];
    EXPECT_LE(std::abs(l), 1e-12) << where << " row " << row;
  }
}

struct Totals {
  long warm_iterations = 0;
  long cold_iterations = 0;
};

// Runs `solves` related solves through one carried solver and compares
// each with a fresh solver's.
Totals compare_warm_with_cold(const Shape& shape, bool hard, int solves,
                              std::uint64_t seed) {
  Loop loop(shape, hard, seed);
  qp::LsqlinSolver warm(loop.c());
  qp::QpWorkspace ws;
  ws.reserve(loop.c().cols(), loop.rows().rows());
  qp::LsqlinResult got;
  Totals totals;
  for (int k = 0; k < solves; ++k) {
    const std::string where = shape.name + (hard ? "/hard/" : "/soft/") +
                              std::to_string(k);
    loop.step();
    warm.solve_into(loop.d(), loop.rows(), loop.b(), {}, ws, got);
    qp::LsqlinSolver cold(loop.c());
    const qp::LsqlinResult want = cold.solve(loop.d(), loop.rows(), loop.b());
    totals.warm_iterations += got.iterations;
    totals.cold_iterations += want.iterations;

    EXPECT_EQ(got.status, want.status) << where;
    EXPECT_EQ(got.fast_path, want.fast_path) << where;
    if (got.status != qp::Status::kOptimal ||
        want.status != qp::Status::kOptimal) {
      loop.advance(Vector(loop.c().cols()), k);
      continue;
    }
    for (std::size_t i = 0; i < want.x.size(); ++i)
      EXPECT_NEAR(got.x[i], want.x[i], 1e-9 * (1.0 + std::abs(want.x[i])))
          << where << " x[" << i << "]";
    expect_weakly_active(loop, got, minus(got.active, want.active), where);
    expect_weakly_active(loop, want, minus(want.active, got.active), where);
    loop.advance(want.x, k);
  }
  return totals;
}

TEST(QpWarmStartTest, PaperShapesMatchColdSolves) {
  for (const Shape& shape : paper_shapes()) {
    for (const bool hard : {true, false}) {
      const Totals t = compare_warm_with_cold(shape, hard, 240, 77);
      // Resumes happened: the carried solver made fewer iterations.
      EXPECT_LT(t.warm_iterations, t.cold_iterations)
          << shape.name << (hard ? " hard" : " soft");
    }
  }
}

TEST(QpWarmStartTest, HierShardMatchesColdSolves) {
  const Totals t = compare_warm_with_cold(hier_shard(), false, 240, 78);
  // Most pinned rate bounds stay pinned: a resume keeps them, where a cold
  // solve re-adds every one.
  EXPECT_LT(2 * t.warm_iterations, t.cold_iterations);
}

TEST(QpWarmStartTest, CarriedFactorStaysAnInverseFactorOfH) {
  // After thousands of carried solves, J must still satisfy JJ' = H^-1 for
  // H = 2 C'C: the Givens rotations that update it are orthogonal only
  // while their norms are exact. A settled loop drops and re-adds the same
  // rows for thousands of solves, and J's entries for them decay until
  // sqrt(hi^2 + lo^2) underflows (max|JJ' - H^-1| then reads about 7e-3
  // here) and even hypot's result goes subnormal (about 3e-6 without the
  // scaling).
  const Shape shape = hier_shard();
  Loop loop(shape, false, 79, /*jumps=*/false);
  qp::LsqlinSolver solver(loop.c());
  qp::QpWorkspace ws;
  ws.reserve(loop.c().cols(), loop.rows().rows());
  qp::LsqlinResult res;
  int resumed_or_touched = 0;
  for (int k = 0; k < 5000; ++k) {
    loop.step();
    solver.solve_into(loop.d(), loop.rows(), loop.b(), {}, ws, res);
    ASSERT_EQ(res.status, qp::Status::kOptimal) << k;
    if (!res.fast_path) ++resumed_or_touched;
    loop.advance(res.x, k);
  }
  ASSERT_GT(resumed_or_touched, 4000);

  // H^-1 = (2 R'R)^-1 for C = QR, column by column: R' w = e_c, then
  // R h = w / 2.
  const std::size_t n = loop.c().cols();
  const linalg::Qr qr(loop.c());
  ASSERT_TRUE(qr.full_rank());
  const Matrix& r = qr.r();
  Matrix h_inv(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    Vector w(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = i == c ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) acc -= r(k, i) * w[k];
      w[i] = acc / r(i, i);
    }
    for (std::size_t i = n; i-- > 0;) {
      double acc = 0.5 * w[i];
      for (std::size_t k = i + 1; k < n; ++k) acc -= r(i, k) * h_inv(k, c);
      h_inv(i, c) = acc / r(i, i);
    }
  }
  const Matrix& jt = solver.dual_factor().jt;
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double jjt = 0.0;  // (JJ')_ij = sum_k J'(k, i) J'(k, j)
      for (std::size_t k = 0; k < n; ++k) jjt += jt(k, i) * jt(k, j);
      scale = std::max(scale, std::abs(h_inv(i, j)));
      worst = std::max(worst, std::abs(jjt - h_inv(i, j)));
    }
  }
  EXPECT_LE(worst, 1e-12 * scale) << "max|JJ' - H^-1| = " << worst;
}

TEST(QpWarmStartTest, TemplateSwitchStartsFromJ0) {
  // The MPC's fallback solves over the rate-bound tail of its rows, and the
  // next period over all of them again. The carried active set names rows
  // of the range it came from, so each switch forgets it: both solves match
  // a fresh solver's bit for bit.
  Loop loop(paper_shapes()[2], true, 80);
  qp::LsqlinSolver solver(loop.c());
  qp::QpWorkspace ws;
  ws.reserve(loop.c().cols(), loop.all_rows().rows());
  qp::LsqlinResult res;
  int checked = 0;
  for (int k = 0; k < 60; ++k) {
    loop.step();
    Vector applied;
    for (const bool tail : {false, true}) {
      const qp::RowsView rows = tail ? loop.rate_rows() : loop.all_rows();
      const Vector b = tail ? loop.rate_b() : loop.b();
      solver.solve_into(loop.d(), rows, b, {}, ws, res);
      const qp::LsqlinResult fresh =
          qp::LsqlinSolver(loop.c()).solve(loop.d(), rows, b);
      ASSERT_EQ(res.status, fresh.status) << k;
      EXPECT_EQ(res.iterations, fresh.iterations) << k;
      EXPECT_EQ(res.active, fresh.active) << k;
      for (std::size_t i = 0; i < res.x.size(); ++i)
        EXPECT_EQ(res.x[i], fresh.x[i]) << k << " x[" << i << "]";
      if (!res.fast_path) ++checked;
      if (!tail) applied = res.x;
    }
    loop.advance(res.status == qp::Status::kOptimal ? applied : res.x, k);
  }
  EXPECT_GT(checked, 20);
}

// --- MpcController: the carried state ends with C or the template ----------

// Overloads every processor by `over` of its set point.
Vector overloaded(const PlantModel& model, double over) {
  Vector u(model.num_processors());
  for (std::size_t p = 0; p < u.size(); ++p)
    u[p] = std::min(1.0, model.b[p] * (1.0 + over));
  return u;
}

// Drives `ctrl` through overloaded and underloaded periods, so that rows
// are active and carried when it returns.
void drive(control::MpcController& ctrl, const PlantModel& model) {
  for (int k = 0; k < 12; ++k)
    ctrl.update(overloaded(model, k % 3 != 0 ? 0.3 : -0.4));
  ctrl.update(overloaded(model, 0.3));
  ASSERT_FALSE(ctrl.diagnostics()->fast_path);
}

// A controller that has been running makes, after `change`, the same next
// update as a fresh one built at its rates and given `configure`: both
// solve from J0.
template <typename Change, typename Configure>
void expect_next_update_is_cold(const Change& change,
                                const Configure& configure, const char* what) {
  const PlantModel model = control::make_plant_model(workloads::medium());
  const MpcParams params = workloads::medium_controller_params();
  control::MpcController running(model, params,
                                 workloads::medium().initial_rate_vector());
  drive(running, model);
  change(running);
  control::MpcController fresh(model, params, running.current_rates());
  configure(fresh);
  // The last driven period's load again: its rows would stay active, so a
  // carried active set that survived `change` would be resumed from.
  const Vector u = overloaded(model, 0.3);
  const Vector got = running.update(u);
  const Vector want = fresh.update(u);
  ASSERT_FALSE(fresh.diagnostics()->fast_path) << what;
  EXPECT_EQ(running.diagnostics()->iterations,
            fresh.diagnostics()->iterations)
      << what;
  for (std::size_t j = 0; j < want.size(); ++j)
    EXPECT_EQ(got[j], want[j]) << what << " task " << j;
}

template <typename Change>
void expect_next_update_is_cold(const Change& change, const char* what) {
  expect_next_update_is_cold(change, change, what);
}

TEST(MpcWarmStartTest, GainChangeForgetsTheCarriedState) {
  expect_next_update_is_cold(
      [](control::MpcController& c) {
        Vector g(c.model().num_processors(), 1.0);
        g[0] = 1.05;
        c.set_gain_estimate(g);
      },
      "gain");
}

TEST(MpcWarmStartTest, AdmissionChangeForgetsTheCarriedState) {
  expect_next_update_is_cold(
      [](control::MpcController& c) {
        std::vector<bool> enabled(c.model().num_tasks(), true);
        enabled[1] = false;
        c.set_enabled_tasks(enabled);
      },
      "admission");
}

TEST(MpcWarmStartTest, TrackedSetChangeForgetsTheCarriedState) {
  expect_next_update_is_cold(
      [](control::MpcController& c) {
        std::vector<bool> tracked(c.model().num_processors(), true);
        tracked[2] = false;
        c.set_tracked_processors(tracked);
      },
      "tracked set");
}

TEST(MpcWarmStartTest, FallbackReSolveForgetsTheCarriedState) {
  // A period so overloaded that no rate vector meets u <= B falls back to
  // the rate-bound rows; the next hard solve then starts from J0.
  expect_next_update_is_cold(
      [](control::MpcController& c) {
        const Vector u(c.model().num_processors(), 1.0);
        for (int k = 0; k < 30 && !c.diagnostics()->fallback; ++k)
          c.update(u);
        ASSERT_TRUE(c.diagnostics()->fallback);
      },
      [](control::MpcController&) {}, "fallback");
}

}  // namespace
}  // namespace eucon
