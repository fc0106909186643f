#include "bindings/api.hpp"

#include <algorithm>
#include <cctype>

#include "bindings/registry.hpp"
#include "matrix/dense.hpp"
#include "serve/solve_server.hpp"
#include "solver/solver_base.hpp"

namespace mgko::bind {

namespace {

std::string lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/// Composes the mangled binding name from runtime type tags — the dispatch
/// step of the paper's §5.1 funcxx_<type> scheme.
std::string mangle(const std::string& base, dtype v)
{
    return base + "_" + to_string(v);
}

std::string mangle(const std::string& base, dtype v, itype i)
{
    return base + "_" + to_string(v) + "_" + to_string(i);
}

std::string mangle_fmt(const std::string& base, const std::string& fmt,
                       dtype v, itype i)
{
    return base + "_" + lower(fmt) + "_" + to_string(v) + "_" + to_string(i);
}

Value boxed_device(const Device& dev)
{
    MGKO_ENSURE(dev.valid(), "operation requires a valid device");
    return box("device", dev.executor());
}

/// Calls through the registry with overhead probing charged to `exec`;
/// the probe also emits the per-call binding-dispatch event to any loggers
/// attached via bind::add_logger.
Value probed_call(const std::shared_ptr<const Executor>& exec,
                  const std::string& name, List args)
{
    ensure_bindings_registered();
    CallProbe probe{exec, name.c_str()};
    return Module::instance().call(name, args);
}

std::string normalize_format(const std::string& format)
{
    const auto f = lower(format);
    if (f == "csr") {
        return "Csr";
    }
    if (f == "coo") {
        return "Coo";
    }
    if (f == "ell") {
        return "Ell";
    }
    if (f == "hybrid" || f == "hyb") {
        return "Hybrid";
    }
    if (f == "sellcs" || f == "sell" || f == "sell-c-sigma") {
        return "Sellcs";
    }
    throw BadParameter(__FILE__, __LINE__,
                       "unknown matrix format: " + format);
}

}  // namespace


Device device(const std::string& name, int id)
{
    // Servers first: the solve server's executor and this one then both
    // feed the metrics an env-started telemetry server exports.
    serve::start_from_env();
    return Device{create_executor(name, id)};
}


// --- Tensor -----------------------------------------------------------------

Tensor Tensor::wrap(dtype vt, std::shared_ptr<LinOp> op)
{
    Tensor result;
    result.vt_ = vt;
    result.op_ = std::move(op);
    return result;
}

dim2 Tensor::shape() const
{
    MGKO_ENSURE(valid(), "tensor is empty");
    return op_->get_size();
}

Device Tensor::device() const
{
    MGKO_ENSURE(valid(), "tensor is empty");
    return Device{std::const_pointer_cast<Executor>(op_->get_executor())};
}

double Tensor::item(size_type row, size_type col) const
{
    return probed_call(op_->get_executor(), mangle("tensor_item", vt_),
                       {Value{box("tensor", op_)}, Value{row}, Value{col}})
        .as_double();
}

void Tensor::set_item(size_type row, size_type col, double value)
{
    probed_call(op_->get_executor(), mangle("tensor_set_item", vt_),
                {Value{box("tensor", op_)}, Value{row}, Value{col},
                 Value{value}});
}

void Tensor::fill(double value)
{
    probed_call(op_->get_executor(), mangle("tensor_fill", vt_),
                {Value{box("tensor", op_)}, Value{value}});
}

double Tensor::norm() const
{
    return probed_call(op_->get_executor(), mangle("tensor_norm", vt_),
                       {Value{box("tensor", op_)}})
        .as_double();
}

double Tensor::dot(const Tensor& other) const
{
    return probed_call(op_->get_executor(), mangle("tensor_dot", vt_),
                       {Value{box("tensor", op_)},
                        Value{box("tensor", other.op_)}})
        .as_double();
}

void Tensor::add_scaled(double alpha, const Tensor& other)
{
    probed_call(op_->get_executor(), mangle("tensor_add_scaled", vt_),
                {Value{box("tensor", op_)}, Value{alpha},
                 Value{box("tensor", other.op_)}});
}

void Tensor::scale(double alpha)
{
    probed_call(op_->get_executor(), mangle("tensor_scale", vt_),
                {Value{box("tensor", op_)}, Value{alpha}});
}

Tensor Tensor::matmul(const Tensor& b) const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("tensor_matmul", vt_),
                              {Value{box("tensor", op_)},
                               Value{box("tensor", b.op_)}});
    return wrap(vt_, result.as<LinOp>("tensor"));
}

Tensor Tensor::t_matmul(const Tensor& b) const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("tensor_t_matmul", vt_),
                              {Value{box("tensor", op_)},
                               Value{box("tensor", b.op_)}});
    return wrap(vt_, result.as<LinOp>("tensor"));
}

Tensor Tensor::clone() const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("tensor_clone", vt_),
                              {Value{box("tensor", op_)}});
    return wrap(vt_, result.as<LinOp>("tensor"));
}

Tensor Tensor::to(const Device& target) const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("tensor_to_device", vt_),
                              {Value{box("tensor", op_)},
                               boxed_device(target)});
    return wrap(vt_, result.as<LinOp>("tensor"));
}

std::vector<double> Tensor::to_host() const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("tensor_export", vt_),
                              {Value{box("tensor", op_)}});
    // The export is this call's own vector: move it out of its box.
    return std::move(*result.as<std::vector<double>>("host_f64"));
}


Tensor as_tensor(const Device& dev, dim2 dims, const std::string& dtype_name,
                 double fill)
{
    const auto vt = dtype_from_string(dtype_name);
    auto result = probed_call(dev.executor(), mangle("tensor_create", vt),
                              {boxed_device(dev), Value{dims.rows},
                               Value{dims.cols}, Value{fill}});
    return Tensor::wrap(vt, result.as<LinOp>("tensor"));
}


Tensor empty(const Device& dev, dim2 dims, const std::string& dtype_name)
{
    const auto vt = dtype_from_string(dtype_name);
    auto result = probed_call(dev.executor(), mangle("tensor_empty", vt),
                              {boxed_device(dev), Value{dims.rows},
                               Value{dims.cols}});
    return Tensor::wrap(vt, result.as<LinOp>("tensor"));
}


Tensor as_tensor(const Device& dev, const std::vector<double>& host_data,
                 dim2 dims, const std::string& dtype_name)
{
    const auto vt = dtype_from_string(dtype_name);
    auto host = std::make_shared<const std::vector<double>>(host_data);
    auto result =
        probed_call(dev.executor(), mangle("tensor_from_host", vt),
                    {boxed_device(dev), Value{box("host_f64", host)},
                     Value{dims.rows}, Value{dims.cols}});
    return Tensor::wrap(vt, result.as<LinOp>("tensor"));
}


namespace {

template <typename T>
Tensor view_impl(const Device& dev, T* data, dim2 dims)
{
    const auto vt = dtype_of<T>::value;
    auto result = probed_call(
        dev.executor(), mangle("tensor_view", vt),
        {boxed_device(dev),
         Value{static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(data))},
         Value{dims.rows}, Value{dims.cols}});
    return Tensor::wrap(vt, result.template as<LinOp>("tensor"));
}

}  // namespace

Tensor from_buffer(const Device& dev, double* data, dim2 dims)
{
    return view_impl(dev, data, dims);
}

Tensor from_buffer(const Device& dev, float* data, dim2 dims)
{
    return view_impl(dev, data, dims);
}


// --- Matrix -----------------------------------------------------------------

Matrix Matrix::wrap(dtype vt, itype it, std::string format,
                    std::shared_ptr<LinOp> op)
{
    Matrix result;
    result.vt_ = vt;
    result.it_ = it;
    result.format_ = std::move(format);
    result.op_ = std::move(op);
    return result;
}

dim2 Matrix::shape() const
{
    MGKO_ENSURE(valid(), "matrix is empty");
    return op_->get_size();
}

Device Matrix::device() const
{
    MGKO_ENSURE(valid(), "matrix is empty");
    return Device{std::const_pointer_cast<Executor>(op_->get_executor())};
}

size_type Matrix::nnz() const { return nnz_; }

Tensor Matrix::spmv(const Tensor& b) const
{
    // A plain apply writes every element of its output and reads none, in
    // every format, so the output needs no fill.
    auto x = empty(device(), dim2{shape().rows, b.shape().cols},
                   to_string(vt_));
    apply(b, x);
    return x;
}

void Matrix::apply(const Tensor& b, Tensor& x) const
{
    probed_call(op_->get_executor(),
                mangle_fmt("matrix_apply", format_, vt_, it_),
                {Value{box("matrix", op_)}, Value{box("tensor", b.op())},
                 Value{box("tensor", x.op())}});
}

Matrix Matrix::matmul(const Matrix& other) const
{
    MGKO_ENSURE(format_ == "Csr" && other.format_ == "Csr",
                "matmul requires CSR operands (convert first)");
    auto result = probed_call(op_->get_executor(),
                              mangle("matrix_spgemm", vt_, it_),
                              {Value{box("matrix", op_)},
                               Value{box("matrix", other.op_)}});
    const auto& pair = result.as_list();
    auto product =
        Matrix::wrap(vt_, it_, "Csr", pair.at(0).as<LinOp>("matrix"));
    product.set_nnz(pair.at(1).as_int());
    return product;
}


Matrix Matrix::to_format(const std::string& format) const
{
    const auto target = normalize_format(format);
    if (target == format_) {
        return *this;
    }
    const auto name = "matrix_convert_" + lower(format_) + "_to_" +
                      lower(target) + "_" + to_string(vt_) + "_" +
                      to_string(it_);
    auto result = probed_call(op_->get_executor(), name,
                              {Value{box("matrix", op_)}});
    const auto& pair = result.as_list();
    auto converted =
        Matrix::wrap(vt_, it_, target, pair.at(0).as<LinOp>("matrix"));
    converted.nnz_ = pair.at(1).as_int();
    return converted;
}


namespace {

Matrix matrix_from_boxed(const Value& result, dtype vt, itype it,
                         const std::string& format)
{
    const auto& pair = result.as_list();
    auto mat = Matrix::wrap(vt, it, format, pair.at(0).as<LinOp>("matrix"));
    mat.set_nnz(pair.at(1).as_int());
    return mat;
}

}  // namespace


Matrix read(const Device& dev, const std::string& path,
            const std::string& dtype_name, const std::string& format,
            const std::string& index_name)
{
    const auto vt = dtype_from_string(dtype_name);
    const auto it = itype_from_string(index_name);
    const auto fmt = normalize_format(format);
    auto result = probed_call(dev.executor(),
                              mangle_fmt("matrix_read", fmt, vt, it),
                              {boxed_device(dev), Value{path}});
    return matrix_from_boxed(result, vt, it, fmt);
}


Matrix matrix_from_data(const Device& dev,
                        const matrix_data<double, int64>& data,
                        const std::string& dtype_name,
                        const std::string& format,
                        const std::string& index_name)
{
    const auto vt = dtype_from_string(dtype_name);
    const auto it = itype_from_string(index_name);
    const auto fmt = normalize_format(format);
    auto shared =
        std::make_shared<const matrix_data<double, int64>>(data);
    auto result = probed_call(dev.executor(),
                              mangle_fmt("matrix_from_data", fmt, vt, it),
                              {boxed_device(dev),
                               Value{box("matrix_data", shared)}});
    return matrix_from_boxed(result, vt, it, fmt);
}


// --- Preconditioner -----------------------------------------------------------

Preconditioner Preconditioner::wrap(std::shared_ptr<const LinOp> op)
{
    Preconditioner result;
    result.op_ = std::move(op);
    return result;
}

namespace preconditioner {

Preconditioner ilu(const Device& dev, const Matrix& mtx)
{
    auto result = probed_call(
        dev.executor(),
        mangle("precond_ilu", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())}});
    return Preconditioner::wrap(result.as<const LinOp>("precond"));
}

Preconditioner ic(const Device& dev, const Matrix& mtx)
{
    auto result = probed_call(
        dev.executor(),
        mangle("precond_ic", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())}});
    return Preconditioner::wrap(result.as<const LinOp>("precond"));
}

Preconditioner jacobi(const Device& dev, const Matrix& mtx,
                      size_type block_size)
{
    auto result = probed_call(
        dev.executor(),
        mangle("precond_jacobi", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         Value{block_size}});
    return Preconditioner::wrap(result.as<const LinOp>("precond"));
}

}  // namespace preconditioner


// --- Solver ---------------------------------------------------------------------

Solver Solver::wrap(dtype vt, std::shared_ptr<LinOp> op)
{
    Solver result;
    result.vt_ = vt;
    result.op_ = std::move(op);
    return result;
}

std::pair<Logger, Tensor> Solver::apply(const Tensor& b, Tensor& x) const
{
    auto result = probed_call(op_->get_executor(),
                              mangle("solver_apply", vt_),
                              {Value{box("solver", op_)},
                               Value{box("tensor", b.op())},
                               Value{box("tensor", x.op())}});
    Logger logger;
    if (!result.is_none()) {
        logger = Logger{
            result.as<const log::ConvergenceLogger>("logger")};
    }
    return {logger, x};
}


namespace solver {

namespace {

Value precond_value(const Preconditioner& precond)
{
    if (!precond.valid()) {
        return {};
    }
    return box("precond", precond.op());
}

}  // namespace

Solver gmres(const Device& dev, const Matrix& mtx,
             const Preconditioner& precond, size_type max_iters,
             size_type krylov_dim, double reduction_factor)
{
    auto result = probed_call(
        dev.executor(),
        mangle("solver_gmres", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         precond_value(precond), Value{max_iters}, Value{krylov_dim},
         Value{reduction_factor}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}

namespace {

Solver krylov_common(const char* name, const Device& dev, const Matrix& mtx,
                     const Preconditioner& precond, size_type max_iters,
                     double reduction_factor)
{
    auto result = probed_call(
        dev.executor(), mangle(name, mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         precond_value(precond), Value{max_iters}, Value{reduction_factor}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}

}  // namespace

Solver cg(const Device& dev, const Matrix& mtx, const Preconditioner& precond,
          size_type max_iters, double reduction_factor)
{
    return krylov_common("solver_cg", dev, mtx, precond, max_iters,
                         reduction_factor);
}

Solver cgs(const Device& dev, const Matrix& mtx,
           const Preconditioner& precond, size_type max_iters,
           double reduction_factor)
{
    return krylov_common("solver_cgs", dev, mtx, precond, max_iters,
                         reduction_factor);
}

Solver bicgstab(const Device& dev, const Matrix& mtx,
                const Preconditioner& precond, size_type max_iters,
                double reduction_factor)
{
    return krylov_common("solver_bicgstab", dev, mtx, precond, max_iters,
                         reduction_factor);
}

Solver fcg(const Device& dev, const Matrix& mtx,
           const Preconditioner& precond, size_type max_iters,
           double reduction_factor)
{
    return krylov_common("solver_fcg", dev, mtx, precond, max_iters,
                         reduction_factor);
}

Solver lower_trs(const Device& dev, const Matrix& mtx, bool unit_diagonal)
{
    auto result = probed_call(
        dev.executor(),
        mangle("solver_lower_trs", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         Value{unit_diagonal}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}

Solver upper_trs(const Device& dev, const Matrix& mtx, bool unit_diagonal)
{
    auto result = probed_call(
        dev.executor(),
        mangle("solver_upper_trs", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         Value{unit_diagonal}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}

Solver direct(const Device& dev, const Matrix& mtx)
{
    auto result = probed_call(
        dev.executor(),
        mangle("solver_direct", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}

}  // namespace solver


// --- convolution ------------------------------------------------------------

Conv2d Conv2d::wrap(dtype vt, dim2 image, std::shared_ptr<LinOp> op)
{
    Conv2d result;
    result.vt_ = vt;
    result.image_ = image;
    result.op_ = std::move(op);
    return result;
}

Tensor Conv2d::apply(const Tensor& image) const
{
    MGKO_ENSURE(valid(), "convolution operator is empty");
    auto out = as_tensor(Device{std::const_pointer_cast<Executor>(
                             op_->get_executor())},
                         image.shape(), to_string(vt_), 0.0);
    probed_call(op_->get_executor(), mangle("conv2d_apply", vt_),
                {Value{box("conv", op_)}, Value{box("tensor", image.op())},
                 Value{box("tensor", out.op())}});
    return out;
}

Conv2d convolution(const Device& dev, size_type height, size_type width,
                   const std::vector<double>& kernel,
                   const std::string& dtype_name)
{
    const auto vt = dtype_from_string(dtype_name);
    List boxed_kernel;
    boxed_kernel.reserve(kernel.size());
    for (const double v : kernel) {
        boxed_kernel.emplace_back(v);
    }
    auto result = probed_call(dev.executor(), mangle("conv2d_create", vt),
                              {boxed_device(dev), Value{height}, Value{width},
                               Value{boxed_kernel}});
    return Conv2d::wrap(vt, dim2{height, width},
                        result.as<LinOp>("conv"));
}


Solver config_solver(const Device& dev, const Matrix& mtx,
                     const config::Json& options)
{
    // The dict -> JSON step happens here, in memory (paper §5: "without
    // depending on any temporary configuration files on disk").
    auto normalized =
        std::make_shared<const config::Json>(config::Json::parse(
            options.dump()));
    auto result = probed_call(
        dev.executor(),
        mangle("config_solver", mtx.value_type(), mtx.index_type()),
        {boxed_device(dev), Value{box("matrix", mtx.op())},
         Value{box("json", normalized)}});
    return Solver::wrap(mtx.value_type(), result.as<LinOp>("solver"));
}


std::pair<Logger, Tensor> solve(const Device& dev, const Matrix& mtx,
                                const Tensor& b, Tensor& x,
                                const config::Json& options)
{
    return config_solver(dev, mtx, options).apply(b, x);
}


}  // namespace mgko::bind
