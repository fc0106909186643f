// The Pythonic front end — the pyGinkgo API surface (paper §3.5,
// Listings 1-2), realized as C++ functions with dynamically typed handles.
//
//   auto dev    = bind::device("cuda");
//   auto mtx    = bind::read(dev, "m1.mtx", "double", "Csr");
//   auto b      = bind::as_tensor(dev, {n, 1}, "double", 1.0);
//   auto x      = bind::as_tensor(dev, {n, 1}, "double", 0.0);
//   auto precon = bind::preconditioner::ilu(dev, mtx);
//   auto solver = bind::solver::gmres(dev, mtx, precon, 1000, 30, 1e-6);
//   auto [logger, result] = solver.apply(b, x);
//
// Every operation composes a mangled binding name from the handle's dtype
// strings ("csr_apply_double_int32") and calls through the registry,
// paying the measured boxing/GIL/lookup overhead plus the modeled
// interpreter constant — the quantity Fig. 5b/5c isolates.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bindings/boxed.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "core/lin_op.hpp"
#include "core/matrix_data.hpp"
#include "log/logger.hpp"

namespace mgko::bind {


/// pg.device("cuda") — wraps an executor (paper §4.1).
class Device {
public:
    Device() = default;
    explicit Device(std::shared_ptr<Executor> exec) : exec_{std::move(exec)} {}

    const std::shared_ptr<Executor>& executor() const { return exec_; }
    std::string name() const { return exec_ ? exec_->name() : "<none>"; }
    bool valid() const { return exec_ != nullptr; }

private:
    std::shared_ptr<Executor> exec_;
};

/// Creates the executor `name` names.  The first call also starts the
/// servers MGKO_TELEMETRY_PORT / MGKO_SOLVE_PORT ask for
/// (serve::start_from_env).
Device device(const std::string& name, int id = 0);


/// Returned by Solver::apply alongside the solution (paper §3.5).  A
/// default-constructed (invalid) Logger answers every query with a benign
/// value instead of dereferencing its missing impl.
class Logger {
public:
    Logger() = default;
    explicit Logger(std::shared_ptr<const log::ConvergenceLogger> impl)
        : impl_{std::move(impl)}
    {}

    bool valid() const { return impl_ != nullptr; }
    size_type num_iterations() const
    {
        return impl_ ? impl_->num_iterations() : 0;
    }
    bool converged() const { return impl_ && impl_->has_converged(); }
    /// NaN when invalid or nothing was logged (see
    /// ConvergenceLogger::final_residual_norm).
    double final_residual_norm() const
    {
        return impl_ ? impl_->final_residual_norm()
                     : std::numeric_limits<double>::quiet_NaN();
    }
    const std::string& stop_reason() const
    {
        static const std::string empty;
        return impl_ ? impl_->stop_reason() : empty;
    }
    const std::vector<double>& residual_history() const
    {
        static const std::vector<double> empty;
        return impl_ ? impl_->residual_history() : empty;
    }

private:
    std::shared_ptr<const log::ConvergenceLogger> impl_;
};


/// Dense multi-vector handle (pg.as_tensor).
class Tensor {
public:
    Tensor() = default;

    dim2 shape() const;
    dtype value_type() const { return vt_; }
    std::string dtype_name() const { return to_string(vt_); }
    Device device() const;
    bool valid() const { return op_ != nullptr; }

    /// Host-side element access (through the binding layer).
    double item(size_type row, size_type col = 0) const;
    void set_item(size_type row, size_type col, double value);

    void fill(double value);
    double norm() const;
    double dot(const Tensor& other) const;
    /// this += alpha * other
    void add_scaled(double alpha, const Tensor& other);
    void scale(double alpha);
    /// this(m,k) @ b(k,n)
    Tensor matmul(const Tensor& b) const;
    /// thisᵀ(k,m) @ b(m,n) without materializing the transpose
    Tensor t_matmul(const Tensor& b) const;

    Tensor clone() const;
    Tensor to(const Device& target) const;
    /// Row-major host export (the numpy() escape hatch).
    std::vector<double> to_host() const;

    // -- internal plumbing (used by the binding implementation and pyside) --
    const std::shared_ptr<LinOp>& op() const { return op_; }
    static Tensor wrap(dtype vt, std::shared_ptr<LinOp> op);

private:
    dtype vt_{dtype::f64};
    std::shared_ptr<LinOp> op_;
};

/// pg.as_tensor(device=dev, dim=(n,1), dtype="double", fill=1.0)
Tensor as_tensor(const Device& dev, dim2 dims,
                 const std::string& dtype_name = "double", double fill = 0.0);
/// np.empty's counterpart: an uninitialized tensor, for outputs the next
/// call overwrites in full (Matrix::apply, the spmv result).  Reading an
/// element before it is written gives an unspecified value.
Tensor empty(const Device& dev, dim2 dims,
             const std::string& dtype_name = "double");
/// pg.as_tensor(numpy_array, device=dev) — copies host data in.
Tensor as_tensor(const Device& dev, const std::vector<double>& host_data,
                 dim2 dims, const std::string& dtype_name = "double");
/// Buffer protocol: wraps external memory zero-copy; the caller keeps
/// ownership (paper §5.2).  The element type selects the dtype.
Tensor from_buffer(const Device& dev, double* data, dim2 dims);
Tensor from_buffer(const Device& dev, float* data, dim2 dims);


/// Sparse matrix handle (pg.read / pg.matrix_from_data).
class Matrix {
public:
    Matrix() = default;

    dim2 shape() const;
    size_type nnz() const;
    dtype value_type() const { return vt_; }
    itype index_type() const { return it_; }
    const std::string& format() const { return format_; }
    Device device() const;
    bool valid() const { return op_ != nullptr; }

    /// x = A b into a new tensor from bind::empty: one launch, no fill.
    Tensor spmv(const Tensor& b) const;
    /// In-place apply into an existing tensor; x's prior contents are
    /// never read.
    void apply(const Tensor& b, Tensor& x) const;
    /// Converts between formats ("Csr", "Coo", "Ell", "Hybrid").
    Matrix to_format(const std::string& format) const;
    /// Sparse matrix product C = this @ other (CSR operands).
    Matrix matmul(const Matrix& other) const;

    const std::shared_ptr<LinOp>& op() const { return op_; }
    static Matrix wrap(dtype vt, itype it, std::string format,
                       std::shared_ptr<LinOp> op);
    /// Stored-element count is captured at construction (a cached Python
    /// attribute, not a bound call).
    void set_nnz(size_type nnz) { nnz_ = nnz; }

private:
    dtype vt_{dtype::f64};
    itype it_{itype::i32};
    std::string format_{"Csr"};
    size_type nnz_{0};
    std::shared_ptr<LinOp> op_;
};

/// pg.read(device=dev, path=fn, dtype="double", format="Csr")
Matrix read(const Device& dev, const std::string& path,
            const std::string& dtype_name = "double",
            const std::string& format = "Csr",
            const std::string& index_name = "int32");
/// Builds from staging data (the synthetic-workload path of the benches).
Matrix matrix_from_data(const Device& dev,
                        const matrix_data<double, int64>& data,
                        const std::string& dtype_name = "double",
                        const std::string& format = "Csr",
                        const std::string& index_name = "int32");


/// Generated preconditioner handle.
class Preconditioner {
public:
    Preconditioner() = default;
    bool valid() const { return op_ != nullptr; }
    const std::shared_ptr<const LinOp>& op() const { return op_; }
    static Preconditioner wrap(std::shared_ptr<const LinOp> op);

private:
    std::shared_ptr<const LinOp> op_;
};

namespace preconditioner {
/// pg.preconditioner.Ilu(dev, mtx)
Preconditioner ilu(const Device& dev, const Matrix& mtx);
Preconditioner ic(const Device& dev, const Matrix& mtx);
Preconditioner jacobi(const Device& dev, const Matrix& mtx,
                      size_type block_size = 1);
}  // namespace preconditioner


/// Generated solver handle.
class Solver {
public:
    Solver() = default;
    bool valid() const { return op_ != nullptr; }

    /// Solves into x (which holds the initial guess) and returns the
    /// convergence logger together with the solution handle — the
    /// `logger, result = solver.apply(b, x)` shape of Listing 1.
    std::pair<Logger, Tensor> apply(const Tensor& b, Tensor& x) const;

    const std::shared_ptr<LinOp>& op() const { return op_; }
    static Solver wrap(dtype vt, std::shared_ptr<LinOp> op);

private:
    dtype vt_{dtype::f64};
    std::shared_ptr<LinOp> op_;
};

namespace solver {
/// pg.solver.gmres(dev, mtx, precond, max_iters, krylov_dim,
/// reduction_factor) — the direct solver bindings of Listing 1 / Figure 2.
Solver gmres(const Device& dev, const Matrix& mtx,
             const Preconditioner& precond = {}, size_type max_iters = 1000,
             size_type krylov_dim = 30, double reduction_factor = 1e-6);
Solver cg(const Device& dev, const Matrix& mtx,
          const Preconditioner& precond = {}, size_type max_iters = 1000,
          double reduction_factor = 1e-6);
Solver cgs(const Device& dev, const Matrix& mtx,
           const Preconditioner& precond = {}, size_type max_iters = 1000,
           double reduction_factor = 1e-6);
Solver bicgstab(const Device& dev, const Matrix& mtx,
                const Preconditioner& precond = {},
                size_type max_iters = 1000, double reduction_factor = 1e-6);
Solver fcg(const Device& dev, const Matrix& mtx,
           const Preconditioner& precond = {}, size_type max_iters = 1000,
           double reduction_factor = 1e-6);
Solver lower_trs(const Device& dev, const Matrix& mtx,
                 bool unit_diagonal = false);
Solver upper_trs(const Device& dev, const Matrix& mtx,
                 bool unit_diagonal = false);
/// The direct (dense LU) solver of Figure 2.
Solver direct(const Device& dev, const Matrix& mtx);
}  // namespace solver


/// 2D convolution operator handle (the paper's §7 outlook feature).
class Conv2d {
public:
    Conv2d() = default;
    bool valid() const { return op_ != nullptr; }
    dim2 image_shape() const { return image_; }

    /// Applies the stencil to an image tensor of (height*width) x cols.
    Tensor apply(const Tensor& image) const;

    static Conv2d wrap(dtype vt, dim2 image, std::shared_ptr<LinOp> op);

private:
    dtype vt_{dtype::f64};
    dim2 image_{};
    std::shared_ptr<LinOp> op_;
};

/// Builds a centered k x k stencil operator over height x width images.
Conv2d convolution(const Device& dev, size_type height, size_type width,
                   const std::vector<double>& kernel,
                   const std::string& dtype_name = "double");

/// The generic config-solver entry point: builds the solver described by a
/// Python-style dictionary (paper §5, Listing 2).  The dictionary is
/// serialized to JSON in memory — no temporary files.
Solver config_solver(const Device& dev, const Matrix& mtx,
                     const config::Json& options);

/// pg.solve(...): one-shot convenience over config_solver.
std::pair<Logger, Tensor> solve(const Device& dev, const Matrix& mtx,
                                const Tensor& b, Tensor& x,
                                const config::Json& options);


}  // namespace mgko::bind
