// Jacobi preconditioner: scalar (block size 1) and block variants.
//
// The paper's config-solver example (Listing 2) instantiates GMRES with a
// Jacobi preconditioner of block size 1.  The block variant inverts the
// dense diagonal blocks at generate time and applies them as small GEMVs.
#pragma once

#include <memory>

#include "core/array.hpp"
#include "core/lin_op.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/workspace.hpp"

namespace mgko::preconditioner {


struct jacobi_parameters {
    /// Diagonal-block edge length; 1 selects the scalar path.
    size_type max_block_size{1};
};


template <typename ValueType, typename IndexType>
class Jacobi;

template <typename ValueType, typename IndexType>
class JacobiFactory : public LinOpFactory {
public:
    JacobiFactory(std::shared_ptr<const Executor> exec,
                  jacobi_parameters params)
        : LinOpFactory{std::move(exec)}, params_{params}
    {}
    const jacobi_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override;

private:
    jacobi_parameters params_;
};

template <typename ValueType, typename IndexType>
class jacobi_builder : public jacobi_parameters {
public:
    jacobi_builder& with_max_block_size(size_type size)
    {
        max_block_size = size;
        return *this;
    }
    std::shared_ptr<JacobiFactory<ValueType, IndexType>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<JacobiFactory<ValueType, IndexType>>(
            std::move(exec), *this);
    }
};


template <typename ValueType = double, typename IndexType = int32>
class Jacobi : public solver::EnableAdvancedApply<ValueType> {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    static jacobi_builder<ValueType, IndexType> build() { return {}; }

    size_type block_size() const { return block_size_; }

protected:
    friend class JacobiFactory<ValueType, IndexType>;
    Jacobi(std::shared_ptr<const Executor> exec, jacobi_parameters params,
           std::shared_ptr<const Csr<ValueType, IndexType>> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using solver::EnableAdvancedApply<ValueType>::apply_impl;

private:
    size_type block_size_;
    /// Scalar path: 1/diag per row.  Block path: inverted bs x bs blocks,
    /// stored contiguously block after block (row-major within a block).
    array<ValueType> inv_data_;
};


}  // namespace mgko::preconditioner
