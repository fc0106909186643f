#include "batch/batch_dense.hpp"

#include <algorithm>

#include "batch/batch_kernels.hpp"
#include "core/kernel_utils.hpp"
#include "matrix/dense.hpp"

namespace mgko::batch {

template <typename ValueType>
Dense<ValueType>::Dense(std::shared_ptr<const Executor> exec, batch_dim size)
    : BatchLinOp{exec, size},
      values_{exec, size.num_systems * size.common.area()}
{}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create(
    std::shared_ptr<const Executor> exec, batch_dim size)
{
    return std::unique_ptr<Dense>{new Dense{std::move(exec), size}};
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_filled(
    std::shared_ptr<const Executor> exec, batch_dim size, ValueType value)
{
    auto result = create(std::move(exec), size);
    result->fill(value);
    return result;
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_duplicate(
    std::shared_ptr<const Executor> exec, size_type num_systems,
    const matrix_data<ValueType, int64>& data)
{
    data.validate();
    auto result =
        create(std::move(exec), batch_dim{num_systems, data.size});
    result->fill(zero<ValueType>());
    const auto elems = result->stride();
    auto* values = result->get_values();
    for (const auto& e : data.entries) {
        values[e.row * data.size.cols + e.col] = e.value;
    }
    for (size_type s = 1; s < num_systems; ++s) {
        std::copy_n(values, elems, values + s * elems);
    }
    return result;
}


template <typename ValueType>
ValueType& Dense<ValueType>::at(size_type sys, size_type row, size_type col)
{
    if (sys < 0 || sys >= get_num_systems()) {
        throw OutOfBounds(__FILE__, __LINE__, sys, get_num_systems());
    }
    if (row < 0 || row >= get_common_size().rows) {
        throw OutOfBounds(__FILE__, __LINE__, row, get_common_size().rows);
    }
    if (col < 0 || col >= get_common_size().cols) {
        throw OutOfBounds(__FILE__, __LINE__, col, get_common_size().cols);
    }
    return values_.get_data()[sys * stride() + row * get_common_size().cols +
                              col];
}


template <typename ValueType>
ValueType Dense<ValueType>::at(size_type sys, size_type row,
                               size_type col) const
{
    return const_cast<Dense*>(this)->at(sys, row, col);
}


template <typename ValueType>
void Dense<ValueType>::fill(ValueType value)
{
    values_.fill(value);
}


template <typename ValueType>
void Dense<ValueType>::copy_from(const Dense* other)
{
    MGKO_ENSURE(other != nullptr, "copy_from requires a source");
    MGKO_ASSERT_EQUAL_DIMENSIONS("batch copy_from", get_common_size(),
                                 other->get_common_size());
    MGKO_ENSURE(get_num_systems() == other->get_num_systems(),
                "batch copy_from requires matching batch sizes");
    get_executor()->copy_from(other->get_executor().get(), values_.bytes(),
                              other->get_const_values(), get_values());
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::clone() const
{
    auto result = create(get_executor(), get_size());
    result->copy_from(this);
    return result;
}


template <typename ValueType>
std::unique_ptr<mgko::Dense<ValueType>> Dense<ValueType>::extract_system(
    size_type s) const
{
    MGKO_ENSURE(s >= 0 && s < get_num_systems(),
                "system index out of bounds");
    auto result = mgko::Dense<ValueType>::create(get_executor(),
                                                 get_common_size());
    std::copy_n(system_const_values(s), stride(), result->get_values());
    return result;
}


template <typename ValueType>
void Dense<ValueType>::assign_system(size_type s,
                                     const mgko::Dense<ValueType>* src)
{
    MGKO_ENSURE(s >= 0 && s < get_num_systems(),
                "system index out of bounds");
    MGKO_ASSERT_EQUAL_DIMENSIONS("batch assign_system", get_common_size(),
                                 src->get_size());
    std::copy_n(src->get_const_values(), stride(), system_values(s));
}


template <typename ValueType>
void Dense<ValueType>::apply_impl(const BatchLinOp* b, BatchLinOp* x) const
{
    auto batch_b = as_batch_dense<ValueType>(b);
    auto batch_x = as_batch_dense<ValueType>(x);
    const auto rows = get_common_size().rows;
    const auto cols = get_common_size().cols;
    const auto vec_cols = batch_b->get_common_size().cols;
    get_executor()->run("batch_dense_apply", [&](const Executor* e) {
        kernels::batch::dense_apply(
            e->real_threads(), get_num_systems(), nullptr,
            get_const_values(), rows, cols, batch_b->get_const_values(),
            vec_cols, batch_x->get_values());
        kernels::tick(
            e, kernels::batch::batch_stream_profile(
                   get_num_systems(),
                   static_cast<double>(
                       (rows * cols + cols * vec_cols + rows * vec_cols) *
                       sizeof(ValueType)),
                   2.0 * static_cast<double>(rows * cols * vec_cols)));
    });
}


template <typename ValueType>
void Dense<ValueType>::apply_raw(const std::uint8_t* active,
                                 const ValueType* b, ValueType* x) const
{
    MGKO_ENSURE(get_common_size().rows == get_common_size().cols,
                "raw strided apply requires square operator batches");
    const auto rows = get_common_size().rows;
    const auto active_systems =
        kernels::batch::count_active(active, get_num_systems());
    get_executor()->run("batch_dense_apply", [&](const Executor* e) {
        kernels::batch::dense_apply(e->real_threads(),
                                    get_num_systems(), active,
                                    get_const_values(), rows, rows, b,
                                    size_type{1}, x);
        kernels::tick(
            e, kernels::batch::batch_stream_profile(
                   active_systems,
                   static_cast<double>((rows * rows + 2 * rows) *
                                       sizeof(ValueType)),
                   2.0 * static_cast<double>(rows * rows)));
    });
}


template <typename ValueType>
void Dense<ValueType>::residual_raw(const std::uint8_t* active,
                                    const ValueType* b, const ValueType* x,
                                    ValueType* r) const
{
    MGKO_ENSURE(get_common_size().rows == get_common_size().cols,
                "raw strided residual requires square operator batches");
    const auto rows = get_common_size().rows;
    const auto active_systems =
        kernels::batch::count_active(active, get_num_systems());
    get_executor()->run("batch_dense_residual", [&](const Executor* e) {
        kernels::batch::dense_residual(e->real_threads(),
                                       get_num_systems(), active,
                                       get_const_values(), rows, b, x, r);
        kernels::tick(
            e, kernels::batch::batch_stream_profile(
                   active_systems,
                   static_cast<double>((rows * rows + 3 * rows) *
                                       sizeof(ValueType)),
                   2.0 * static_cast<double>(rows * rows) +
                       static_cast<double>(rows)));
    });
}


template <typename ValueType>
Dense<ValueType>* as_batch_dense(BatchLinOp* op)
{
    auto result = dynamic_cast<Dense<ValueType>*>(op);
    if (result == nullptr) {
        MGKO_NOT_SUPPORTED(
            "operand is not a batch::Dense of the expected value type");
    }
    return result;
}


template <typename ValueType>
const Dense<ValueType>* as_batch_dense(const BatchLinOp* op)
{
    return as_batch_dense<ValueType>(const_cast<BatchLinOp*>(op));
}


#define MGKO_DECLARE_BATCH_DENSE(ValueType)                                 \
    template class Dense<ValueType>;                                        \
    template Dense<ValueType>* as_batch_dense<ValueType>(BatchLinOp*);      \
    template const Dense<ValueType>* as_batch_dense<ValueType>(             \
        const BatchLinOp*)
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_BATCH_DENSE);


}  // namespace mgko::batch
