#include "matrix/convolution.hpp"

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/dense.hpp"

namespace mgko {


template <typename ValueType>
Convolution<ValueType>::Convolution(std::shared_ptr<const Executor> exec,
                                    size_type height, size_type width,
                                    const std::vector<double>& kernel)
    : LinOp{exec, dim2{height * width}},
      height_{height},
      width_{width},
      k_{0},
      kernel_{exec, static_cast<size_type>(kernel.size())}
{
    const auto k = static_cast<size_type>(
        std::llround(std::sqrt(static_cast<double>(kernel.size()))));
    MGKO_ENSURE(k * k == static_cast<size_type>(kernel.size()),
                "convolution kernel must be square");
    MGKO_ENSURE(k % 2 == 1, "convolution kernel size must be odd");
    MGKO_ENSURE(height > 0 && width > 0, "empty image");
    k_ = k;
    for (std::size_t i = 0; i < kernel.size(); ++i) {
        kernel_.get_data()[static_cast<size_type>(i)] =
            static_cast<ValueType>(kernel[i]);
    }
}


template <typename ValueType>
std::unique_ptr<Convolution<ValueType>> Convolution<ValueType>::create(
    std::shared_ptr<const Executor> exec, size_type height, size_type width,
    const std::vector<double>& kernel)
{
    return std::unique_ptr<Convolution>{
        new Convolution{std::move(exec), height, width, kernel}};
}


namespace {

template <typename V>
void conv2d(const Executor* exec, const V* kernel, mgko::size_type k,
            mgko::size_type height, mgko::size_type width, const Dense<V>* b,
            Dense<V>* x, bool advanced, V alpha, V beta)
{
    using mgko::size_type;
    const auto vec_cols = b->get_size().cols;
    const auto half = static_cast<std::int64_t>(k / 2);
    kernels::parallel_for(exec->real_threads(), height, [&](size_type row) {
        for (size_type col = 0; col < width; ++col) {
            for (size_type c = 0; c < vec_cols; ++c) {
                using acc_t = accumulate_t<V>;
                acc_t acc{};
                for (std::int64_t di = -half; di <= half; ++di) {
                    const auto si = static_cast<std::int64_t>(row) + di;
                    if (si < 0 || si >= static_cast<std::int64_t>(height)) {
                        continue;  // zero padding
                    }
                    for (std::int64_t dj = -half; dj <= half; ++dj) {
                        const auto sj = static_cast<std::int64_t>(col) + dj;
                        if (sj < 0 ||
                            sj >= static_cast<std::int64_t>(width)) {
                            continue;
                        }
                        const auto kidx =
                            static_cast<size_type>((di + half) *
                                                       static_cast<std::int64_t>(k) +
                                                   (dj + half));
                        const auto pixel =
                            static_cast<size_type>(si) * width +
                            static_cast<size_type>(sj);
                        acc += static_cast<acc_t>(kernel[kidx]) *
                               static_cast<acc_t>(
                                   b->get_const_values()
                                       [pixel * b->get_stride() + c]);
                    }
                }
                auto& out = x->get_values()
                                [(row * width + col) * x->get_stride() + c];
                out = !advanced           ? V{acc}
                      : beta == zero<V>() ? alpha * V{acc}
                                          : alpha * V{acc} + beta * out;
            }
        }
    });
    const double pixels =
        static_cast<double>(height) * static_cast<double>(width) *
        static_cast<double>(vec_cols);
    const double taps = static_cast<double>(k) * static_cast<double>(k);
    // Stencil reads are cache/shared-memory friendly: each input pixel is
    // reused k^2 times, so the streamed volume is ~2 images + the kernel.
    mgko::kernels::tick(
        exec, sim::profile_stream(2.0 * pixels * sizeof(V) + taps * sizeof(V),
                                  2.0 * pixels * taps, 0.9));
}

}  // namespace


template <typename ValueType>
void Convolution<ValueType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    get_executor()->run("conv2d", [&](const Executor* e) {
        conv2d(e, kernel_.get_const_data(), k_, height_, width_, dense_b,
               dense_x, false, one<ValueType>(), zero<ValueType>());
    });
}


template <typename ValueType>
void Convolution<ValueType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                        const LinOp* beta, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto a = as_dense<ValueType>(alpha)->at(0, 0);
    const auto bt = as_dense<ValueType>(beta)->at(0, 0);
    get_executor()->run("conv2d", [&](const Executor* e) {
        conv2d(e, kernel_.get_const_data(), k_, height_, width_, dense_b,
               dense_x, true, a, bt);
    });
}


#define MGKO_DECLARE_CONVOLUTION(ValueType) \
    template class Convolution<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_CONVOLUTION);


}  // namespace mgko
