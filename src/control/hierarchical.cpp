#include "control/hierarchical.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "control/topology.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

void HierarchicalParams::validate() const {
  EUCON_REQUIRE(shard_size >= 1, "shard size must be >= 1");
}

// Builds one sweep partition: processor p goes to shard (p + offset) /
// shard_size (offset 0 = the base partition; offset shard_size / 2 = the
// staggered one, whose first shard is half-sized so every base boundary
// falls in a staggered shard's interior).
std::vector<HierarchicalMpcController::Shard>
HierarchicalMpcController::build_partition(std::size_t offset,
                                           MpcParams params) {
  const std::size_t n = model_.num_processors();
  const std::size_t m = model_.num_tasks();
  const std::size_t num_shards =
      (n + offset + hier_.shard_size - 1) / hier_.shard_size;
  std::vector<Shard> shards(num_shards);

  // Tasks go to the shard of their owning processor (the shared
  // largest-entry / lowest-index rule); iterating tasks in order keeps
  // each shard's owned list ascending.
  const std::vector<std::size_t> owner = compute_ownership(model_.f);
  for (std::size_t j = 0; j < m; ++j)
    shards[(owner[j] + offset) / hier_.shard_size].owned.push_back(j);

  // pos[q] = qi + 1 while processor q sits at shard.rows[qi]; reused (and
  // cleared) across shards.
  std::vector<std::size_t> pos(n, 0);
  for (Shard& shard : shards) {
    // A shard whose processors own no tasks has nothing to actuate; it
    // keeps no local controller and update() skips it.
    if (shard.owned.empty()) continue;

    for (std::size_t j : shard.owned)
      for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k) {
        const std::size_t q = ft_.col_index(k);
        if (pos[q] == 0) {
          shard.rows.push_back(q);
          pos[q] = 1;
        }
      }
    std::sort(shard.rows.begin(), shard.rows.end());
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi)
      pos[shard.rows[qi]] = qi + 1;

    // Local plant: rows = observed processors, columns = owned tasks, both
    // ascending, scattered straight off the CSR columns (absent entries
    // stay zero).
    PlantModel local;
    local.f = Matrix(shard.rows.size(), shard.owned.size());
    local.b = Vector(shard.rows.size());
    local.rate_min = Vector(shard.owned.size());
    local.rate_max = Vector(shard.owned.size());
    Vector local_rates(shard.owned.size());
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi)
      local.b[qi] = model_.b[shard.rows[qi]];
    for (std::size_t ji = 0; ji < shard.owned.size(); ++ji) {
      const std::size_t j = shard.owned[ji];
      for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k)
        local.f(pos[ft_.col_index(k)] - 1, ji) = ft_.value(k);
      local.rate_min[ji] = model_.rate_min[j];
      local.rate_max[ji] = model_.rate_max[j];
      local_rates[ji] = rates_[j];
    }
    for (std::size_t q : shard.rows) pos[q] = 0;

    shard.u_scratch = Vector(shard.rows.size());
    shard.r_scratch = Vector(shard.owned.size());
    // Every local MPC solves through the one shared workspace, reserved
    // growth-only as locals are built: capacity ends at the largest
    // shard's constraint template across both partitions, independent of
    // the shard count.
    shard.local = std::make_unique<MpcController>(
        std::move(local), params, std::move(local_rates), &shared_ws_);
  }
  EUCON_ASSERT(std::any_of(shards.begin(), shards.end(),
                           [](const Shard& s) { return s.local != nullptr; }),
               "no shard controllers constructed");
  return shards;
}

HierarchicalMpcController::HierarchicalMpcController(SparsePlantModel model,
                                                     MpcParams params,
                                                     HierarchicalParams hier,
                                                     Vector initial_rates,
                                                     Sweep sweep)
    : model_(std::move(model)),
      hier_(hier),
      sweep_(sweep),
      rates_(std::move(initial_rates)) {
  model_.validate();
  hier_.validate();
  const std::size_t n = model_.num_processors();
  EUCON_REQUIRE(rates_.size() == model_.num_tasks(),
                "initial rate vector size mismatch");
  rates_ = rates_.clamped(model_.rate_min, model_.rate_max);

  // F^T's rows are F's columns — each task's processor list, ascending.
  // Kept as a member: the update sweep feeds each shard's rate moves
  // forward into the prediction through these rows.
  ft_ = model_.f.transposed();
  u_pred_ = Vector(n);

  partitions_.push_back(build_partition(0, params));
  // The staggered partition exists to break boundary wedges, so a base
  // partition without internal boundaries (one shard, or one-processor
  // shards where the offset degenerates) doesn't need it — and skipping
  // it keeps the single-shard case bit-identical to the central MPC.
  const std::size_t offset = hier_.shard_size / 2;
  if (partitions_.front().size() > 1 && offset > 0)
    partitions_.push_back(build_partition(offset, params));
}

std::unique_ptr<HierarchicalMpcController>
HierarchicalMpcController::decentralized(SparsePlantModel model,
                                         MpcParams params,
                                         Vector initial_rates) {
  HierarchicalParams hier;
  hier.shard_size = 1;
  return std::make_unique<HierarchicalMpcController>(
      std::move(model), params, hier, std::move(initial_rates),
      Sweep::kJacobi);
}

const Vector& HierarchicalMpcController::update(const Vector& u) {
  EUCON_REQUIRE(u.size() == model_.num_processors(),
                "utilization vector size mismatch");
  // One sweep over this period's partition (parity alternates between the
  // base and staggered layouts): shards solve in index order against ũ,
  // which starts at the measurement. Gauss–Seidel absorbs each shard's
  // commanded rate moves into ũ through the nominal plant (Δũ = F Δr,
  // scattered off F^T's rows) before the next shard solves, so each shard
  // attacks the residual error its predecessors left — no double-actuation
  // on boundary rows, and corrections cross every shard boundary within
  // the period. Jacobi leaves ũ at the measurement for every shard. All
  // scratch is preallocated — steady-state periods never touch the heap.
  const bool advance = sweep_ == Sweep::kGaussSeidel;
  std::vector<Shard>& shards = partitions_[period_ % partitions_.size()];
  ++period_;
  u_pred_ = u;
  diag_.iterations = 0;
  diag_.fast_path = true;
  diag_.fallback = false;
  diag_.status = qp::Status::kOptimal;
  for (Shard& shard : shards) {
    if (shard.local == nullptr) continue;
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi)
      shard.u_scratch[qi] = std::clamp(u_pred_[shard.rows[qi]], 0.0, 1.0);
    // The other partition actuated the same tasks last period: bring this
    // local's rate belief r(k-1) back to the rates actually applied.
    for (std::size_t ji = 0; ji < shard.owned.size(); ++ji)
      shard.r_scratch[ji] = rates_[shard.owned[ji]];
    shard.local->sync_rates(shard.r_scratch);
    const Vector& r_local = shard.local->update(shard.u_scratch);
    const Diagnostics& local = *shard.local->diagnostics();
    diag_.iterations += local.iterations;
    diag_.fast_path = diag_.fast_path && local.fast_path;
    diag_.fallback = diag_.fallback || local.fallback;
    if (diag_.status == qp::Status::kOptimal) diag_.status = local.status;
    for (std::size_t ji = 0; ji < shard.owned.size(); ++ji) {
      const std::size_t j = shard.owned[ji];
      const double dr = r_local[ji] - rates_[j];
      if (advance && dr != 0.0)  // eucon-lint: allow(float-equality)
        for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k)
          u_pred_[ft_.col_index(k)] += ft_.value(k) * dr;
      rates_[j] = r_local[ji];
    }
  }
  diag_.count_update();
  return rates_;
}

const std::vector<std::size_t>& HierarchicalMpcController::shard_tasks(
    std::size_t s) const {
  EUCON_REQUIRE(s < num_shards(), "shard index out of range");
  return partitions_.front()[s].owned;
}

const std::vector<std::size_t>& HierarchicalMpcController::shard_rows(
    std::size_t s) const {
  EUCON_REQUIRE(s < num_shards(), "shard index out of range");
  return partitions_.front()[s].rows;
}

std::size_t HierarchicalMpcController::max_shard_problem_size() const {
  std::size_t largest = 0;
  for (const std::vector<Shard>& partition : partitions_)
    for (const Shard& shard : partition)
      largest = std::max(largest, shard.owned.size());
  return largest;
}

std::pair<std::size_t, std::size_t>
HierarchicalMpcController::workspace_capacity() const {
  return {shared_ws_.max_vars(), shared_ws_.max_cons()};
}

}  // namespace eucon::control
