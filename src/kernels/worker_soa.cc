#include "kernels/worker_soa.h"

namespace comx {
namespace kernels {

void WorkerSoA::Reset(size_t n) {
  x_.assign(n, 0.0);
  y_.assign(n, 0.0);
  radius2_.assign(n, 0.0);
  available_since_.assign(n, 0.0);
  available_.assign(n, 0);
}

}  // namespace kernels
}  // namespace comx
