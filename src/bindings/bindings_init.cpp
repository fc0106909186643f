// Registration of the pre-instantiated binding surface.
//
// This is the moral equivalent of the PYBIND11_MODULE block: every
// value-type x index-type x format combination of every bound operation is
// instantiated here and registered under its mangled name (paper §5.1 —
// "pre-instantiation of all possible template parameter combinations that
// the Python side might require").
#include <fcntl.h>
#include <unistd.h>

#include <mutex>

#include "batch/batch_bicgstab.hpp"
#include "batch/batch_cg.hpp"
#include "batch/batch_csr.hpp"
#include "batch/batch_dense.hpp"
#include "batch/batch_jacobi.hpp"
#include "bindings/registry.hpp"
#include "config/config_solver.hpp"
#include "core/dispatch.hpp"
#include "core/mtx_io.hpp"
#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "matrix/convolution.hpp"
#include "serve/solve_server.hpp"
#include "serve/telemetry_server.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/ell.hpp"
#include "matrix/hybrid.hpp"
#include "matrix/sellcs.hpp"
#include "matrix/spgemm.hpp"
#include "multigrid/amg_solver.hpp"
#include "reorder/reorder.hpp"
#include "solver/direct.hpp"
#include "preconditioner/ilu.hpp"
#include "preconditioner/jacobi.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
#include "solver/fcg.hpp"
#include "solver/gmres.hpp"
#include "solver/solver_base.hpp"
#include "solver/triangular.hpp"
#include "stop/criterion.hpp"

namespace mgko::bind {

namespace {

std::shared_ptr<Executor> unbox_device(const Value& v)
{
    return v.as<Executor>("device");
}

std::shared_ptr<LinOp> unbox_linop(const Value& v, const char* tag)
{
    return v.as<LinOp>(tag);
}

template <typename V>
std::shared_ptr<Dense<V>> unbox_tensor(const Value& v)
{
    auto op = unbox_linop(v, "tensor");
    auto dense = std::dynamic_pointer_cast<Dense<V>>(op);
    if (!dense) {
        throw BadParameter(__FILE__, __LINE__,
                           "tensor has a different dtype than the bound "
                           "function expects");
    }
    return dense;
}

template <typename Mat>
std::shared_ptr<Mat> unbox_matrix(const Value& v)
{
    auto op = unbox_linop(v, "matrix");
    auto mat = std::dynamic_pointer_cast<Mat>(op);
    if (!mat) {
        throw BadParameter(__FILE__, __LINE__,
                           "matrix has a different format/dtype than the "
                           "bound function expects");
    }
    return mat;
}

Value box_linop(const char* tag, std::shared_ptr<LinOp> op)
{
    return box(tag, std::move(op));
}

// Appended to a std::string rather than `"_" + to_string(v)`: GCC 12 at -O3
// reports a false -Wrestrict overlap for `const char* + std::string&&`.
std::string suffix(dtype v)
{
    std::string result{"_"};
    result += to_string(v);
    return result;
}

std::string suffix(dtype v, itype i)
{
    auto result = suffix(v);
    result += "_";
    result += to_string(i);
    return result;
}


// --- tensor bindings (per value type) --------------------------------------

template <typename V>
void register_tensor_bindings(Module& m)
{
    const auto s = suffix(dtype_of<V>::value);

    m.def("tensor_create" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        const auto rows = args.at(1).as_int();
        const auto cols = args.at(2).as_int();
        const auto fill = args.at(3).as_double();
        auto tensor = Dense<V>::create_filled(exec, dim2{rows, cols},
                                              static_cast<V>(fill));
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(tensor)});
    });

    // No fill kernel: the caller overwrites every element (np.empty).
    m.def("tensor_empty" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        const auto rows = args.at(1).as_int();
        const auto cols = args.at(2).as_int();
        auto tensor = Dense<V>::create(exec, dim2{rows, cols});
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(tensor)});
    });

    m.def("tensor_from_host" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto host = args.at(1).as<const std::vector<double>>("host_f64");
        const auto rows = args.at(2).as_int();
        const auto cols = args.at(3).as_int();
        MGKO_ENSURE(static_cast<size_type>(host->size()) >= rows * cols,
                    "host buffer smaller than requested tensor");
        auto tensor = Dense<V>::create(exec, dim2{rows, cols});
        const double* src = host->data();
        V* dst = tensor->get_values();
        const auto stride = tensor->get_stride();
        for (size_type r = 0; r < rows; ++r) {
            for (size_type c = 0; c < cols; ++c) {
                dst[r * stride + c] = static_cast<V>(src[r * cols + c]);
            }
        }
        exec->charge_copy(nullptr, rows * cols *
                                       static_cast<size_type>(sizeof(V)));
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(tensor)});
    });

    m.def("tensor_view" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto* data = reinterpret_cast<V*>(
            static_cast<std::uintptr_t>(args.at(1).as_int()));
        const auto rows = args.at(2).as_int();
        const auto cols = args.at(3).as_int();
        auto tensor = Dense<V>::create_view(exec, dim2{rows, cols}, data);
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(tensor)});
    });

    m.def("tensor_item" + s, [](const List& args) -> Value {
        auto t = unbox_tensor<V>(args.at(0));
        return Value{to_float(t->at(args.at(1).as_int(),
                                    args.at(2).as_int())) +
                     0.0};
    });

    m.def("tensor_set_item" + s, [](const List& args) -> Value {
        auto t = unbox_tensor<V>(args.at(0));
        t->at(args.at(1).as_int(), args.at(2).as_int()) =
            static_cast<V>(args.at(3).as_double());
        return {};
    });

    m.def("tensor_fill" + s, [](const List& args) -> Value {
        unbox_tensor<V>(args.at(0))
            ->fill(static_cast<V>(args.at(1).as_double()));
        return {};
    });

    m.def("tensor_norm" + s, [](const List& args) -> Value {
        // Frobenius norm: combine the per-column norms.
        auto t = unbox_tensor<V>(args.at(0));
        auto norms = Dense<V>::create(t->get_executor(),
                                      dim2{1, t->get_size().cols});
        t->compute_norm2(norms.get());
        double acc = 0.0;
        for (size_type c = 0; c < t->get_size().cols; ++c) {
            const double v = to_float(norms->at(0, c));
            acc += v * v;
        }
        return Value{std::sqrt(acc)};
    });

    m.def("tensor_dot" + s, [](const List& args) -> Value {
        // Frobenius inner product: sum of per-column dots.
        auto a = unbox_tensor<V>(args.at(0));
        auto b = unbox_tensor<V>(args.at(1));
        auto dots = Dense<V>::create(a->get_executor(),
                                     dim2{1, a->get_size().cols});
        a->compute_dot(b.get(), dots.get());
        double acc = 0.0;
        for (size_type c = 0; c < a->get_size().cols; ++c) {
            acc += to_float(dots->at(0, c));
        }
        return Value{acc};
    });

    m.def("tensor_add_scaled" + s, [](const List& args) -> Value {
        auto x = unbox_tensor<V>(args.at(0));
        auto alpha = Dense<V>::create(x->get_executor(), dim2{1, 1});
        alpha->get_values()[0] = static_cast<V>(args.at(1).as_double());
        x->add_scaled(alpha.get(), unbox_tensor<V>(args.at(2)).get());
        return {};
    });

    m.def("tensor_scale" + s, [](const List& args) -> Value {
        auto x = unbox_tensor<V>(args.at(0));
        auto alpha = Dense<V>::create(x->get_executor(), dim2{1, 1});
        alpha->get_values()[0] = static_cast<V>(args.at(1).as_double());
        x->scale(alpha.get());
        return {};
    });

    m.def("tensor_matmul" + s, [](const List& args) -> Value {
        auto a = unbox_tensor<V>(args.at(0));
        auto b = unbox_tensor<V>(args.at(1));
        auto x = Dense<V>::create(
            a->get_executor(),
            dim2{a->get_size().rows, b->get_size().cols});
        a->apply(b.get(), x.get());
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(x)});
    });

    m.def("tensor_t_matmul" + s, [](const List& args) -> Value {
        auto a = unbox_tensor<V>(args.at(0));
        auto b = unbox_tensor<V>(args.at(1));
        auto x = Dense<V>::create(
            a->get_executor(),
            dim2{a->get_size().cols, b->get_size().cols});
        a->transpose_apply(b.get(), x.get());
        return box_linop("tensor", std::shared_ptr<LinOp>{std::move(x)});
    });

    m.def("tensor_clone" + s, [](const List& args) -> Value {
        return box_linop("tensor", std::shared_ptr<LinOp>{
                                       unbox_tensor<V>(args.at(0))->clone()});
    });

    m.def("tensor_to_device" + s, [](const List& args) -> Value {
        auto t = unbox_tensor<V>(args.at(0));
        auto exec = unbox_device(args.at(1));
        return box_linop("tensor",
                         std::shared_ptr<LinOp>{t->clone_to(std::move(exec))});
    });

    m.def("tensor_export" + s, [](const List& args) -> Value {
        auto t = unbox_tensor<V>(args.at(0));
        const auto rows = t->get_size().rows;
        const auto cols = t->get_size().cols;
        auto host = std::make_shared<std::vector<double>>(
            static_cast<std::size_t>(rows * cols));
        const V* src = t->get_const_values();
        const auto stride = t->get_stride();
        double* dst = host->data();
        for (size_type r = 0; r < rows; ++r) {
            for (size_type c = 0; c < cols; ++c) {
                dst[r * cols + c] = to_float(src[r * stride + c]);
            }
        }
        return box("host_f64", std::shared_ptr<const std::vector<double>>{
                                   std::move(host)});
    });

    m.def("conv2d_create" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        const auto height = args.at(1).as_int();
        const auto width = args.at(2).as_int();
        std::vector<double> kernel;
        for (const auto& v : args.at(3).as_list()) {
            kernel.push_back(v.as_double());
        }
        return box_linop("conv",
                         std::shared_ptr<LinOp>{Convolution<V>::create(
                             std::move(exec), height, width, kernel)});
    });

    m.def("conv2d_apply" + s, [](const List& args) -> Value {
        auto conv = unbox_linop(args.at(0), "conv");
        auto b = unbox_tensor<V>(args.at(1));
        auto x = unbox_tensor<V>(args.at(2));
        conv->apply(b.get(), x.get());
        return {};
    });

    m.def("solver_apply" + s, [](const List& args) -> Value {
        auto solver = unbox_linop(args.at(0), "solver");
        auto b = unbox_tensor<V>(args.at(1));
        auto x = unbox_tensor<V>(args.at(2));
        solver->apply(b.get(), x.get());
        auto iterative =
            std::dynamic_pointer_cast<mgko::solver::IterativeSolver<V>>(
                solver);
        if (!iterative) {
            // A config "reorder" key wraps the solver; the logger lives on
            // the inner operator running in the permuted space.
            if (auto reordered =
                    std::dynamic_pointer_cast<mgko::reorder::ReorderedOperator>(
                        solver)) {
                iterative = std::dynamic_pointer_cast<
                    mgko::solver::IterativeSolver<V>>(
                    reordered->inner_operator());
            }
        }
        if (iterative) {
            return box("logger",
                       std::shared_ptr<const log::ConvergenceLogger>{
                           iterative->get_logger()});
        }
        return {};
    });
}


// --- matrix / solver / preconditioner bindings (per value x index type) ----

template <typename V, typename I>
void register_matrix_bindings(Module& m)
{
    const auto s = suffix(dtype_of<V>::value, itype_of<I>::value);

    auto box_matrix = [](std::shared_ptr<LinOp> op, size_type nnz) -> Value {
        List result;
        result.emplace_back(box_linop("matrix", std::move(op)));
        result.emplace_back(nnz);
        return Value{std::move(result)};
    };

    auto register_format = [&](const std::string& fmt, auto format_token) {
        using Mat = typename decltype(format_token)::type;
        // Csr reads the interchange triplets itself; every other format
        // reads a copy narrowed to its types.
        auto from_data = [](std::shared_ptr<const Executor> exec,
                            const matrix_data<double, int64>& data) {
            if constexpr (std::is_same_v<Mat, Csr<V, I>>) {
                return Mat::create_from_data(std::move(exec), data);
            } else {
                return Mat::create_from_data(std::move(exec),
                                             data.template cast<V, I>());
            }
        };
        m.def("matrix_read_" + fmt + s,
              [box_matrix, from_data](const List& args) -> Value {
                  auto exec = unbox_device(args.at(0));
                  auto mat = from_data(std::move(exec),
                                       read_mtx(args.at(1).as_string()));
                  const auto nnz = mat->get_num_stored_elements();
                  return box_matrix(std::shared_ptr<LinOp>{std::move(mat)},
                                    nnz);
              });

        m.def("matrix_from_data_" + fmt + s,
              [box_matrix, from_data](const List& args) -> Value {
                  auto exec = unbox_device(args.at(0));
                  auto data = args.at(1).as<const matrix_data<double, int64>>(
                      "matrix_data");
                  auto mat = from_data(std::move(exec), *data);
                  const auto nnz = mat->get_num_stored_elements();
                  return box_matrix(std::shared_ptr<LinOp>{std::move(mat)},
                                    nnz);
              });

        m.def("matrix_apply_" + fmt + s, [](const List& args) -> Value {
            auto mat = unbox_matrix<Mat>(args.at(0));
            auto b = unbox_tensor<V>(args.at(1));
            auto x = unbox_tensor<V>(args.at(2));
            mat->apply(b.get(), x.get());
            return {};
        });
    };
    register_format("csr", type_token<Csr<V, I>>{});
    register_format("coo", type_token<Coo<V, I>>{});
    register_format("ell", type_token<Ell<V, I>>{});
    register_format("hybrid", type_token<Hybrid<V, I>>{});
    register_format("sellcs", type_token<SellCs<V, I>>{});

    // Format conversions (through the staging representation for the
    // non-CSR pairs; CSR owns direct paths).
    m.def("matrix_convert_csr_to_coo" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Csr<V, I>>(args.at(0));
              auto dst = Coo<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_csr_to_ell" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Csr<V, I>>(args.at(0));
              auto dst = Ell<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_coo_to_csr" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Coo<V, I>>(args.at(0));
              auto dst = Csr<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_ell_to_csr" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Ell<V, I>>(args.at(0));
              auto dst = Csr<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_csr_to_hybrid" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Csr<V, I>>(args.at(0));
              auto dst = Hybrid<V, I>::create_from_data(src->get_executor(),
                                                        src->to_data());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_hybrid_to_csr" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Hybrid<V, I>>(args.at(0));
              auto dst = Csr<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_csr_to_sellcs" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<Csr<V, I>>(args.at(0));
              auto dst = SellCs<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });
    m.def("matrix_convert_sellcs_to_csr" + s,
          [box_matrix](const List& args) -> Value {
              auto src = unbox_matrix<SellCs<V, I>>(args.at(0));
              auto dst = Csr<V, I>::create(src->get_executor());
              src->convert_to(dst.get());
              const auto nnz = dst->get_num_stored_elements();
              return box_matrix(std::shared_ptr<LinOp>{std::move(dst)}, nnz);
          });

    // Preconditioners (Figure 2: IC and ILU bound explicitly + Jacobi).
    m.def("precond_ilu" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        return box("precond", std::shared_ptr<const LinOp>{
                                  mgko::preconditioner::Ilu<V, I>::create(
                                      std::move(exec), std::move(mat))});
    });
    m.def("precond_ic" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        return box("precond", std::shared_ptr<const LinOp>{
                                  mgko::preconditioner::Ic<V, I>::create(
                                      std::move(exec), std::move(mat))});
    });
    m.def("precond_jacobi" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        auto factory = mgko::preconditioner::Jacobi<V, I>::build()
                           .with_max_block_size(args.at(2).as_int())
                           .on(std::move(exec));
        return box("precond",
                   std::shared_ptr<const LinOp>{factory->generate(mat)});
    });
    // args: device, matrix, theta, max_levels, min_coarse_rows, smoother,
    //       cycles
    m.def("precond_amg" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        auto factory =
            mgko::multigrid::AmgPreconditioner<V, I>::build()
                .with_theta(args.at(2).as_double())
                .with_max_levels(args.at(3).as_int())
                .with_min_coarse_rows(args.at(4).as_int())
                .with_smoother(mgko::multigrid::smoother_from_string(
                    args.at(5).as_string()))
                .with_cycles(args.at(6).as_int())
                .on(std::move(exec));
        return box("precond",
                   std::shared_ptr<const LinOp>{factory->generate(mat)});
    });

    // Direct solver bindings.
    auto make_criteria = [](const List& args, std::size_t max_iters_idx,
                            std::size_t reduction_idx) {
        std::vector<std::shared_ptr<const stop::CriterionFactory>> criteria;
        criteria.push_back(
            stop::iteration(args.at(max_iters_idx).as_int()));
        criteria.push_back(
            stop::residual_norm(args.at(reduction_idx).as_double()));
        return criteria;
    };
    auto maybe_precond = [](const Value& v) -> std::shared_ptr<const LinOp> {
        if (v.is_none()) {
            return nullptr;
        }
        return v.as<const LinOp>("precond");
    };

    // args: device, matrix, precond|none, max_iters, krylov_dim, reduction
    m.def("solver_gmres" + s, [=](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        auto builder = mgko::solver::Gmres<V>::build();
        for (auto& c : make_criteria(args, 3, 5)) {
            builder.with_criteria(c);
        }
        builder.with_krylov_dim(args.at(4).as_int());
        if (auto p = maybe_precond(args.at(2))) {
            builder.with_generated_preconditioner(p);
        }
        return box_linop("solver", builder.on(std::move(exec))->generate(mat));
    });

    auto register_krylov = [&](const std::string& name, auto solver_token) {
        using SolverT = typename decltype(solver_token)::type;
        // args: device, matrix, precond|none, max_iters, reduction
        m.def("solver_" + name + s, [=](const List& args) -> Value {
            auto exec = unbox_device(args.at(0));
            auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
            auto builder = SolverT::build();
            for (auto& c : make_criteria(args, 3, 4)) {
                builder.with_criteria(c);
            }
            if (auto p = maybe_precond(args.at(2))) {
                builder.with_generated_preconditioner(p);
            }
            return box_linop("solver",
                             builder.on(std::move(exec))->generate(mat));
        });
    };
    register_krylov("cg", type_token<mgko::solver::Cg<V>>{});
    register_krylov("cgs", type_token<mgko::solver::Cgs<V>>{});
    register_krylov("bicgstab", type_token<mgko::solver::Bicgstab<V>>{});
    register_krylov("fcg", type_token<mgko::solver::Fcg<V>>{});

    // Standalone AMG V-cycle solver.
    // args: device, matrix, max_iters, reduction, theta, smoother
    m.def("solver_amg" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        auto factory =
            mgko::multigrid::AmgSolver<V, I>::build()
                .with_criteria(stop::iteration(args.at(2).as_int()))
                .with_criteria(
                    stop::residual_norm(args.at(3).as_double()))
                .with_theta(args.at(4).as_double())
                .with_smoother(mgko::multigrid::smoother_from_string(
                    args.at(5).as_string()))
                .on(std::move(exec));
        return box_linop("solver", factory->generate(mat));
    });

    // C = A @ B (sparse matrix product; §1 names it next to SpMV as a
    // core sparse-ML operation).
    m.def("matrix_spgemm" + s, [box_matrix](const List& args) -> Value {
        auto a = unbox_matrix<Csr<V, I>>(args.at(0));
        auto b = unbox_matrix<Csr<V, I>>(args.at(1));
        auto c = mgko::spgemm(a.get(), b.get());
        const auto nnz = c->get_num_stored_elements();
        return box_matrix(std::shared_ptr<LinOp>{std::move(c)}, nnz);
    });

    m.def("solver_direct" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        return box_linop("solver",
                         mgko::solver::Direct<V, I>::build_on(std::move(exec))
                             ->generate(mat));
    });

    m.def("solver_lower_trs" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        return box_linop("solver",
                         mgko::solver::LowerTrs<V, I>::build()
                             .with_unit_diagonal(args.at(2).as_bool())
                             .on(std::move(exec))
                             ->generate(mat));
    });
    m.def("solver_upper_trs" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        return box_linop("solver",
                         mgko::solver::UpperTrs<V, I>::build()
                             .with_unit_diagonal(args.at(2).as_bool())
                             .on(std::move(exec))
                             ->generate(mat));
    });

    // The generic config-solver entry point (paper §5): the Python dict has
    // already been serialized to JSON by the front end.
    m.def("config_solver" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_matrix<Csr<V, I>>(args.at(1));
        auto json = args.at(2).as<const config::Json>("json");
        return box_linop(
            "solver",
            config::parse_factory(*json, std::move(exec))->generate(mat));
    });
}


// --- batched bindings (paper §5.1 applied to mgko::batch) ------------------
//
// The batched surface follows the same pre-instantiation scheme as the
// single-system one: every value-type (x index-type) combination of every
// batched operation is registered under its mangled name, so a string
// lookup reaches a fully typed batched solver without any template
// machinery on the caller's side.

std::shared_ptr<batch::BatchLinOp> unbox_batch_op(const Value& v,
                                                  const char* tag)
{
    return v.as<batch::BatchLinOp>(tag);
}

template <typename V>
std::shared_ptr<batch::Dense<V>> unbox_batch_tensor(const Value& v)
{
    auto op = unbox_batch_op(v, "batch_tensor");
    auto dense = std::dynamic_pointer_cast<batch::Dense<V>>(op);
    if (!dense) {
        throw BadParameter(__FILE__, __LINE__,
                           "batch tensor has a different dtype than the "
                           "bound function expects");
    }
    return dense;
}

/// Per-system diagnostics of a batched solve, exported as a list of dicts —
/// the shape a Python caller would iterate over.
Value export_batch_log(const batch::BatchConvergenceLogger& log)
{
    List systems;
    for (size_type s = 0; s < log.num_systems(); ++s) {
        Dict entry;
        entry.emplace_back("iterations",
                           Value{static_cast<std::int64_t>(
                               log.num_iterations(s))});
        entry.emplace_back("residual_norm",
                           Value{log.final_residual_norm(s)});
        entry.emplace_back("converged", Value{log.has_converged(s)});
        entry.emplace_back("reason", Value{log.stop_reason(s)});
        systems.emplace_back(Dict{std::move(entry)});
    }
    return Value{std::move(systems)};
}

template <typename V>
void register_batch_tensor_bindings(Module& m)
{
    const auto s = suffix(dtype_of<V>::value);

    // args: device, num_systems, rows, cols, fill
    m.def("batch_tensor_create" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        const auto num = args.at(1).as_int();
        const auto rows = args.at(2).as_int();
        const auto cols = args.at(3).as_int();
        auto tensor = batch::Dense<V>::create_filled(
            exec,
            batch::batch_dim{static_cast<size_type>(num), dim2{rows, cols}},
            static_cast<V>(args.at(4).as_double()));
        return box("batch_tensor",
                   std::shared_ptr<batch::BatchLinOp>{std::move(tensor)});
    });

    m.def("batch_tensor_item" + s, [](const List& args) -> Value {
        auto t = unbox_batch_tensor<V>(args.at(0));
        return Value{to_float(t->at(args.at(1).as_int(), args.at(2).as_int(),
                                    args.at(3).as_int())) +
                     0.0};
    });

    m.def("batch_tensor_set_item" + s, [](const List& args) -> Value {
        auto t = unbox_batch_tensor<V>(args.at(0));
        t->at(args.at(1).as_int(), args.at(2).as_int(), args.at(3).as_int()) =
            static_cast<V>(args.at(4).as_double());
        return {};
    });

    m.def("batch_tensor_fill" + s, [](const List& args) -> Value {
        unbox_batch_tensor<V>(args.at(0))
            ->fill(static_cast<V>(args.at(1).as_double()));
        return {};
    });

    // args: solver, b, x — advances every system of the batch and returns
    // the per-system convergence records.
    m.def("batch_solver_apply" + s, [](const List& args) -> Value {
        auto solver = unbox_batch_op(args.at(0), "batch_solver");
        auto b = unbox_batch_tensor<V>(args.at(1));
        auto x = unbox_batch_tensor<V>(args.at(2));
        solver->apply(b.get(), x.get());
        if (auto iterative =
                std::dynamic_pointer_cast<batch::BatchIterativeSolver<V>>(
                    solver)) {
            return export_batch_log(*iterative->get_batch_logger());
        }
        return {};
    });
}

template <typename V, typename I>
void register_batch_matrix_bindings(Module& m)
{
    const auto s = suffix(dtype_of<V>::value, itype_of<I>::value);

    // args: device, num_systems, matrix_data — shared pattern, values
    // duplicated across the batch (edited per system afterwards).
    m.def("batch_csr_from_data" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        const auto num = static_cast<size_type>(args.at(1).as_int());
        auto data =
            args.at(2).as<const matrix_data<double, int64>>("matrix_data");
        auto mat = batch::Csr<V, I>::create_duplicate(
            std::move(exec), num, data->template cast<V, I>());
        const auto nnz = mat->get_num_stored_elements_per_system();
        List result;
        result.emplace_back(
            box("batch_matrix",
                std::shared_ptr<batch::BatchLinOp>{std::move(mat)}));
        result.emplace_back(static_cast<std::int64_t>(nnz));
        return Value{std::move(result)};
    });

    // args: matrix, sys, row, col, value — per-system coefficient edit on
    // the shared pattern (entries absent from the pattern throw).
    m.def("batch_csr_set_entry" + s, [](const List& args) -> Value {
        auto op = unbox_batch_op(args.at(0), "batch_matrix");
        auto mat = std::dynamic_pointer_cast<batch::Csr<V, I>>(op);
        if (!mat) {
            throw BadParameter(__FILE__, __LINE__,
                               "batch matrix has a different format/dtype "
                               "than the bound function expects");
        }
        const auto sys = static_cast<size_type>(args.at(1).as_int());
        const auto row = args.at(2).as_int();
        const auto col = static_cast<I>(args.at(3).as_int());
        const auto* row_ptrs = mat->get_const_row_ptrs();
        const auto* col_idxs = mat->get_const_col_idxs();
        MGKO_ENSURE(row >= 0 &&
                        row < static_cast<std::int64_t>(
                                  mat->get_common_size().rows),
                    "row index out of range");
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (col_idxs[k] == col) {
                mat->system_values(sys)[k] =
                    static_cast<V>(args.at(4).as_double());
                return {};
            }
        }
        throw BadParameter(__FILE__, __LINE__,
                           "entry is not part of the shared sparsity "
                           "pattern of the batched CSR matrix");
    });

    // args: matrix, b, x — one batched SpMV launch across all systems.
    m.def("batch_matrix_apply" + s, [](const List& args) -> Value {
        auto mat = unbox_batch_op(args.at(0), "batch_matrix");
        auto b = unbox_batch_tensor<V>(args.at(1));
        auto x = unbox_batch_tensor<V>(args.at(2));
        mat->apply(b.get(), x.get());
        return {};
    });

    // args: device — the batched scalar-Jacobi factory (generated against
    // the system inside the solver builder).
    m.def("batch_precond_jacobi" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        return box("batch_precond",
                   std::shared_ptr<const batch::BatchLinOpFactory>{
                       batch::Jacobi<V>::build().on(std::move(exec))});
    });

    auto register_batch_krylov = [&](const std::string& name,
                                     auto solver_token) {
        using SolverT = typename decltype(solver_token)::type;
        // args: device, matrix, precond|none, max_iters, reduction
        m.def("batch_solver_" + name + s, [](const List& args) -> Value {
            auto exec = unbox_device(args.at(0));
            auto mat = unbox_batch_op(args.at(1), "batch_matrix");
            auto builder = SolverT::build();
            builder.with_criteria(stop::iteration(args.at(3).as_int()));
            builder.with_criteria(
                stop::residual_norm(args.at(4).as_double()));
            if (!args.at(2).is_none()) {
                builder.with_preconditioner(
                    args.at(2).as<const batch::BatchLinOpFactory>(
                        "batch_precond"));
            }
            return box("batch_solver",
                       std::shared_ptr<batch::BatchLinOp>{
                           builder.on(std::move(exec))->generate(mat)});
        });
    };
    register_batch_krylov("cg", type_token<batch::Cg<V>>{});
    register_batch_krylov("bicgstab", type_token<batch::Bicgstab<V>>{});

    // args: device, matrix, json — the "batch": N config entry point.
    m.def("batch_config_solver" + s, [](const List& args) -> Value {
        auto exec = unbox_device(args.at(0));
        auto mat = unbox_batch_op(args.at(1), "batch_matrix");
        auto json = args.at(2).as<const config::Json>("json");
        return box("batch_solver",
                   std::shared_ptr<batch::BatchLinOp>{
                       config::batch_config_solver(*json, std::move(exec),
                                                   std::move(mat))});
    });
}

// --- observability bindings (module-level, no type suffix) ------------------
//
// The Python front end exposes these as mgko.metrics_text() etc.; they
// operate on the process-wide metrics registry and flight recorder, so a
// caller can scrape totals or pull a Perfetto-loadable trace of the last
// events per thread (flight_dump) without touching executors.

void register_observability_bindings(Module& m)
{
    m.def("metrics_text", [](const List&) -> Value {
        return Value{log::shared_metrics()->registry().prometheus_text()};
    });
    m.def("metrics_json", [](const List&) -> Value {
        return Value{log::shared_metrics()->registry().to_json()};
    });
    m.def("metrics_reset", [](const List&) -> Value {
        log::shared_metrics()->registry().reset();
        return {};
    });

    // args: [rate] — sets the request-trace sampling probability (the
    // binding twin of MGKO_TRACE_SAMPLE); with no argument just returns
    // the current rate.
    m.def("trace_sample", [](const List& args) -> Value {
        if (!args.empty() && !args.at(0).is_none()) {
            log::set_trace_sample_rate(args.at(0).as_double());
        }
        return Value{log::trace_sample_rate()};
    });
    // The calling thread's active trace context as a W3C traceparent
    // string; "" when no context is in scope (see log/trace_context.hpp).
    m.def("traceparent", [](const List&) -> Value {
        const auto ctx = log::current_trace_context();
        return Value{ctx.valid() ? ctx.traceparent() : std::string{}};
    });

    // args: [port] — starts the process-wide telemetry server (port 0 or
    // no argument binds an ephemeral port) and returns the bound port.
    m.def("telemetry_start", [](const List& args) -> Value {
        int port = 0;
        if (!args.empty() && !args.at(0).is_none()) {
            port = static_cast<int>(args.at(0).as_int());
        }
        return Value{static_cast<std::int64_t>(serve::telemetry_start(port))};
    });
    m.def("telemetry_stop", [](const List&) -> Value {
        serve::telemetry_stop();
        return {};
    });

    // args: [port] — starts the process-wide solve-as-a-service server
    // (port 0 or no argument binds an ephemeral port) and returns the
    // bound port.  Same conflict semantics as telemetry_start.
    m.def("solve_server_start", [](const List& args) -> Value {
        int port = 0;
        if (!args.empty() && !args.at(0).is_none()) {
            port = static_cast<int>(args.at(0).as_int());
        }
        return Value{
            static_cast<std::int64_t>(serve::solve_server_start(port))};
    });
    m.def("solve_server_stop", [](const List&) -> Value {
        serve::solve_server_stop();
        return {};
    });
    m.def("solve_server_port", [](const List&) -> Value {
        return Value{static_cast<std::int64_t>(serve::solve_server_port())};
    });
    m.def("solve_server_stats", [](const List&) -> Value {
        return Value{serve::solve_server_stats_json()};
    });

    // --- measured tier (sampling profiler + hardware counters) ---

    // args: [hz] — starts (or retunes) the SIGPROF sampling profiler at
    // `hz` samples per second (default 99); hz 0 stops it.  Returns the
    // active rate.
    m.def("sampling_start", [](const List& args) -> Value {
        int hz = 99;
        if (!args.empty() && !args.at(0).is_none()) {
            hz = static_cast<int>(args.at(0).as_int());
        }
        if (hz == 0) {
            log::sampling_stop();
        } else {
            log::sampling_start(hz);
        }
        return Value{static_cast<std::int64_t>(log::sampling_hz())};
    });
    m.def("sampling_stop", [](const List&) -> Value {
        log::sampling_stop();
        return {};
    });
    m.def("sampling_hz", [](const List&) -> Value {
        return Value{static_cast<std::int64_t>(log::sampling_hz())};
    });
    // The aggregated samples as folded stacks ("frame;frame;... count"
    // lines, flamegraph.pl-ready).
    m.def("sampling_folded", [](const List&) -> Value {
        return Value{log::sampling_folded()};
    });
    // The aggregated samples as pprof-like JSON (the /profile_cpu.json
    // body).
    m.def("sampling_profile", [](const List&) -> Value {
        return Value{log::sampling_profile_json()};
    });
    m.def("sampling_reset", [](const List&) -> Value {
        log::sampling_reset();
        return {};
    });

    // args: [mode] — enables the hardware-counter tier: "auto" (default)
    // probes perf_event_open and falls back to rusage, "rusage" forces
    // the fallback, "off" disables; any other mode throws BadParameter
    // (see log::hw_counters_enable).  Returns the active source.
    m.def("hw_counters", [](const List& args) -> Value {
        std::string mode = "auto";
        if (!args.empty() && !args.at(0).is_none()) {
            mode = args.at(0).as_string();
        }
        if (mode == "off") {
            log::hw_counters_disable();
        } else {
            log::hw_counters_enable(mode);
        }
        return Value{std::string{log::hw_counters_source()}};
    });
    m.def("hw_counters_source", [](const List&) -> Value {
        return Value{std::string{log::hw_counters_source()}};
    });
    // Per-kernel accumulated counters as JSON.
    m.def("hw_counters_json", [](const List&) -> Value {
        return Value{log::hw_counters_json()};
    });
    m.def("hw_counters_reset", [](const List&) -> Value {
        log::hw_counters_reset();
        return {};
    });

    // args: [path] — with a path, writes the flight recorder's black box
    // there as text (the postmortem format) and returns the path; with no
    // argument returns the Chrome Trace JSON of the snapshot.
    m.def("flight_dump", [](const List& args) -> Value {
        auto recorder = log::shared_flight_recorder();
        if (args.empty() || args.at(0).is_none()) {
            return Value{recorder->to_chrome_trace_json()};
        }
        const std::string path = args.at(0).as_string();
        const int fd =
            ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        MGKO_ENSURE(fd >= 0, "flight_dump: cannot write '" + path + "'");
        recorder->write_postmortem(fd, "flight_dump binding");
        ::close(fd);
        return Value{path};
    });
}

}  // namespace


void ensure_bindings_registered()
{
    static std::once_flag once;
    std::call_once(once, [] {
        auto& m = Module::instance();

#define MGKO_REGISTER_TENSOR(V) register_tensor_bindings<V>(m)
        MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_REGISTER_TENSOR);
#undef MGKO_REGISTER_TENSOR

#define MGKO_REGISTER_MATRIX(V, I) register_matrix_bindings<V, I>(m)
        MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_REGISTER_MATRIX);
#undef MGKO_REGISTER_MATRIX

#define MGKO_REGISTER_BATCH_TENSOR(V) register_batch_tensor_bindings<V>(m)
        MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_REGISTER_BATCH_TENSOR);
#undef MGKO_REGISTER_BATCH_TENSOR

#define MGKO_REGISTER_BATCH_MATRIX(V, I) \
    register_batch_matrix_bindings<V, I>(m)
        MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(
            MGKO_REGISTER_BATCH_MATRIX);
#undef MGKO_REGISTER_BATCH_MATRIX

        register_observability_bindings(m);

        // The always-on tier covers the binding layer too: every bound
        // call lands in the flight recorder's ring unless the user set
        // MGKO_FLIGHT_RECORDER=0.
        add_logger(log::flight_recorder_from_env());
    });
}


}  // namespace mgko::bind
