// Sparse general matrix-matrix multiplication (SpGEMM), C = A * B.
//
// The paper's introduction names sparse matrix-matrix products alongside
// SpMV as the core operations sparse neural networks rely on (§1).  The
// implementation is Gustavson's row-merge algorithm with a dense
// accumulator per row; the cost model charges the data-dependent FLOP and
// byte volumes computed from the actual operands.
#pragma once

#include <memory>

#include "matrix/csr.hpp"

namespace mgko {


/// C = A * B for CSR operands on the same executor.
template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> spgemm(
    const Csr<ValueType, IndexType>* a, const Csr<ValueType, IndexType>* b);


}  // namespace mgko
