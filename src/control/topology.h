// Task-ownership topology of the sharded controller (control/hierarchical.h)
// in both its per-processor (DEUCON) and per-shard (HIER) configurations.
//
// Ownership partitions the actuators: every task is commanded by exactly
// one controller, the one responsible for the processor that OWNS the
// task. The rule, stated once here so every configuration — and the
// fault injector's actuation messages (eucon/experiment.cpp) — agrees:
//
//   owner(j) = the processor with the largest allocation entry f(i, j);
//   exact ties break to the LOWEST processor index.
//
// A task whose F column is all zero touches no processor and cannot be
// controlled — that is a model error, reported with the offending task
// index.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.h"

namespace eucon::control {

// Computes owner(j) for every task j from the n×m allocation matrix in
// sparse form: O(nnz), no dense column scans. Throws (naming the task)
// when a column is all zero or holds no positive entry.
std::vector<std::size_t> compute_ownership(const linalg::SparseMatrix& f);

}  // namespace eucon::control
