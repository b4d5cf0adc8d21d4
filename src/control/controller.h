// Common interface for utilization controllers (EUCON, OPEN, PID, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "linalg/vector.h"
#include "qp/active_set.h"

namespace eucon::control {

// What a QP-backed controller's optimizer did: the last update, then run
// totals (docs/observability.md).
struct Diagnostics {
  int iterations = 0;      // dual adds plus drops, warm drops included
                           // (both solves on fallback)
  bool fast_path = false;  // iteration 0 feasible; never in a fallback period
  bool fallback = false;   // the hard instance failed; util rows dropped
  qp::Status status = qp::Status::kOptimal;  // of the applied solve
  // The applied solve's active rows, ascending. Empty for the sharded
  // controllers, whose shard row numbers have no global meaning.
  std::span<const std::size_t> active;

  // Each total is the sum of the per-update values above.
  std::uint64_t updates = 0;
  std::uint64_t qp_iterations = 0;
  std::uint64_t fast_path_hits = 0;
  std::uint64_t fallbacks = 0;

  // Adds the last update's values to the totals.
  void count_update() {
    ++updates;
    qp_iterations += static_cast<std::uint64_t>(iterations);
    fast_path_hits += fast_path ? 1 : 0;
    fallbacks += fallback ? 1 : 0;
  }
};

class Controller {
 public:
  virtual ~Controller() = default;

  // Invoked at the end of every sampling period with the measured
  // utilization vector u(k); returns the task-rate vector r(k) to apply for
  // the next period. The reference stays valid until the next update() (it
  // aliases the controller's internal rate state) — copy it to keep it.
  virtual const linalg::Vector& update(const linalg::Vector& u) = 0;

  virtual std::string name() const = 0;

  // The optimizer's record, valid until the next update(); null for
  // controllers without a QP (OPEN, PID, FCS-IND).
  virtual const Diagnostics* diagnostics() const { return nullptr; }
};

}  // namespace eucon::control
