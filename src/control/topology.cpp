#include "control/topology.h"

#include "common/check.h"

namespace eucon::control {

std::vector<std::size_t> compute_ownership(const linalg::SparseMatrix& f) {
  const std::size_t n = f.rows();
  const std::size_t m = f.cols();
  std::vector<std::size_t> owners(m, 0);

  // F^T's rows are F's columns: each task's processor list, ascending. The
  // strict `>` comparison over ascending indices realizes the documented
  // lowest-index tie-break.
  const linalg::SparseMatrix ft = f.transposed();
  for (std::size_t j = 0; j < m; ++j) {
    double best = 0.0;
    std::size_t owner = n;  // sentinel: no positive entry seen
    for (std::size_t k = ft.row_begin(j); k < ft.row_end(j); ++k) {
      if (ft.value(k) > best) {
        best = ft.value(k);
        owner = ft.col_index(k);
      }
    }
    EUCON_REQUIRE(owner < n,
                  "task " + std::to_string(j) +
                      " touches no processor (all-zero allocation column)");
    owners[j] = owner;
  }
  return owners;
}

}  // namespace eucon::control
