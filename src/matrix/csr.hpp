// Compressed Sparse Row matrix, modeled on gko::matrix::Csr.
//
// CSR is the primary format of the paper's evaluation.  Each backend runs a
// different SpMV kernel, mirroring Ginkgo's strategy system:
//   reference: textbook serial row loop
//   omp:       nnz-balanced row partition across threads (or classical
//              equal-rows blocks when the strategy says so)
//   cuda(sim): load-balanced nnz split (the Ginkgo "load-balancing SpMV"
//              the paper cites)
//   hip(sim):  wavefront-chunked variant (64-row chunks)
#pragma once

#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/array.hpp"
#include "core/lin_op.hpp"
#include "core/matrix_data.hpp"
#include "core/types.hpp"
#include "sim/cost_model.hpp"

namespace mgko {


template <typename ValueType>
class Dense;
template <typename ValueType, typename IndexType>
class Coo;
template <typename ValueType, typename IndexType>
class Ell;
template <typename ValueType, typename IndexType>
class SellCs;


template <typename ValueType = double, typename IndexType = int32>
class Csr : public LinOp {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    /// Whether matrix_data<ValueType, IndexType> is the interchange type
    /// itself, so that the typed read covers it.
    static constexpr bool reads_interchange_natively =
        std::is_same_v<ValueType, double> && std::is_same_v<IndexType, int64>;

    /// SpMV strategy selector (paper: Ginkgo picks load-balanced kernels;
    /// the ablation bench compares against the classical row split).
    enum class strategy { automatic, classical, load_balanced };

    static std::unique_ptr<Csr> create(std::shared_ptr<const Executor> exec,
                                       dim2 size = {}, size_type nnz = 0);

    /// Reads `data` (see read()); a size or entry count IndexType cannot
    /// hold is refused before anything is allocated.
    static std::unique_ptr<Csr> create_from_data(
        std::shared_ptr<const Executor> exec,
        const matrix_data<ValueType, IndexType>& data);
    static std::unique_ptr<Csr> create_from_data(
        std::shared_ptr<const Executor> exec,
        const matrix_data<double, int64>& data)
        requires(!reads_interchange_natively);

    /// A matrix whose row r will hold counts[r] entries: row pointers set,
    /// column indices and values left for the caller to write.  The entry
    /// count is summed in size_type; when it exceeds IndexType's range this
    /// throws BadParameter naming it, before anything is allocated.
    static std::unique_ptr<Csr> create_with_row_counts(
        std::shared_ptr<const Executor> exec, dim2 size,
        const std::vector<size_type>& counts);

    /// Fills from staging triplets.  Rows, columns or an entry count that
    /// IndexType cannot hold are refused with BadParameter, never narrowed.
    /// One pass on the executor's threads checks every index against the
    /// size (OutOfBounds for the first bad entry) and whether the entries
    /// are strictly row-major.  Row-major entries are written straight into
    /// the arrays; any other order is copied, sorted and its duplicates
    /// summed first, which gives the same arrays.
    void read(const matrix_data<ValueType, IndexType>& data);
    /// The same reader from the interchange triplets that read_mtx and the
    /// bindings produce: values and columns are narrowed as
    /// matrix_data::cast narrows them, without staging a narrowed copy of
    /// row-major input.
    void read(const matrix_data<double, int64>& data)
        requires(!reads_interchange_natively);
    matrix_data<ValueType, IndexType> to_data() const;

    ValueType* get_values() { return values_.get_data(); }
    const ValueType* get_const_values() const
    {
        return values_.get_const_data();
    }
    IndexType* get_col_idxs() { return col_idxs_.get_data(); }
    const IndexType* get_const_col_idxs() const
    {
        return col_idxs_.get_const_data();
    }
    IndexType* get_row_ptrs() { return row_ptrs_.get_data(); }
    const IndexType* get_const_row_ptrs() const
    {
        return row_ptrs_.get_const_data();
    }

    size_type get_num_stored_elements() const { return values_.size(); }

    void set_strategy(strategy s) { strategy_ = s; }
    strategy get_strategy() const { return strategy_; }

    std::unique_ptr<Csr> transpose() const;
    std::unique_ptr<Csr> clone_to(std::shared_ptr<const Executor> exec) const;
    std::unique_ptr<Csr> clone() const { return clone_to(get_executor()); }

    /// Sorts the column indices within each row (required by the ILU/IC
    /// factorizations and the triangular solvers).
    void sort_by_column_index();
    bool is_sorted_by_column_index() const;

    /// Extracts the main diagonal into an n x 1 Dense (missing entries as
    /// zero), used by the Jacobi preconditioner.
    std::unique_ptr<Dense<ValueType>> extract_diagonal() const;

    void convert_to(Dense<ValueType>* result) const;
    void convert_to(Coo<ValueType, IndexType>* result) const;
    void convert_to(Ell<ValueType, IndexType>* result) const;
    void convert_to(SellCs<ValueType, IndexType>* result) const;

    /// Structural statistics feeding the SimClock cost profile; cached and
    /// invalidated when the structure changes.
    sim::kernel_profile spmv_profile(sim::spmv_strategy s,
                                     const sim::MachineModel& m,
                                     size_type vec_cols, bool advanced) const;

protected:
    Csr(std::shared_ptr<const Executor> exec, dim2 size, size_type nnz);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    void apply_impl(const LinOp* alpha, const LinOp* b, const LinOp* beta,
                    LinOp* x) const override;

    void invalidate_profile_cache() const
    {
        miss_rate_ = -1.0;
        imbalance_cache_.clear();
    }

private:
    template <typename V2, typename I2>
    friend class Csr;

    template <typename SourceValue, typename SourceIndex>
    static std::unique_ptr<Csr> from_triplets(
        std::shared_ptr<const Executor> exec,
        const matrix_data<SourceValue, SourceIndex>& data);
    template <typename SourceValue, typename SourceIndex>
    void read_triplets(const matrix_data<SourceValue, SourceIndex>& data);

    array<ValueType> values_;
    array<IndexType> col_idxs_;
    array<IndexType> row_ptrs_;
    strategy strategy_{strategy::automatic};

    mutable double miss_rate_{-1.0};
    mutable std::map<std::pair<int, int>, double> imbalance_cache_;
};


}  // namespace mgko
