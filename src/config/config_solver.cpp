#include "config/config_solver.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <vector>

#include "batch/batch_bicgstab.hpp"
#include "batch/batch_cg.hpp"
#include "batch/batch_jacobi.hpp"
#include "core/dispatch.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/ell.hpp"
#include "matrix/hybrid.hpp"
#include "matrix/sellcs.hpp"
#include "multigrid/amg_solver.hpp"
#include "preconditioner/ilu.hpp"
#include "preconditioner/jacobi.hpp"
#include "reorder/reorder.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
#include "solver/direct.hpp"
#include "solver/fcg.hpp"
#include "solver/gmres.hpp"
#include "solver/ir.hpp"
#include "solver/triangular.hpp"
#include "stop/criterion.hpp"

namespace mgko::config {

namespace {

/// Rejects config keys outside `valid` so a typo ("thetta") fails loudly
/// instead of silently running with the default; the message lists every
/// key the chosen solver/preconditioner accepts.
void validate_config_keys(const Json& config, std::vector<std::string> valid,
                          const std::string& context)
{
    std::sort(valid.begin(), valid.end());
    for (const auto& [key, value] : config.items()) {
        (void)value;
        if (!std::binary_search(valid.begin(), valid.end(), key)) {
            std::string list;
            for (const auto& k : valid) {
                list += list.empty() ? k : ", " + k;
            }
            throw BadParameter(__FILE__, __LINE__,
                               "unknown config key '" + key + "' for " +
                                   context + " (valid keys: " + list + ")");
        }
    }
}

/// Keys every solver config accepts (dtype selection and storage/reorder
/// transforms), plus the chosen solver's own.
std::vector<std::string> solver_config_keys(
    std::initializer_list<const char*> extra)
{
    std::vector<std::string> valid{"type",      "value_type", "index_type",
                                   "format",    "reorder",    "slice_size",
                                   "sorting_window"};
    valid.insert(valid.end(), extra.begin(), extra.end());
    return valid;
}


multigrid::amg_parameters parse_amg_parameters(const Json& config)
{
    multigrid::amg_parameters p;
    p.theta = config.get_or("theta", Json{p.theta}).as_double();
    p.max_levels = static_cast<size_type>(
        config.get_or("max_levels",
                      Json{static_cast<std::int64_t>(p.max_levels)})
            .as_int());
    p.min_coarse_rows = static_cast<size_type>(
        config.get_or("min_coarse_rows",
                      Json{static_cast<std::int64_t>(p.min_coarse_rows)})
            .as_int());
    p.smoother = multigrid::smoother_from_string(
        config.get_or("smoother", Json{multigrid::to_string(p.smoother)})
            .as_string());
    p.pre_sweeps = static_cast<size_type>(
        config.get_or("pre_sweeps",
                      Json{static_cast<std::int64_t>(p.pre_sweeps)})
            .as_int());
    p.post_sweeps = static_cast<size_type>(
        config.get_or("post_sweeps",
                      Json{static_cast<std::int64_t>(p.post_sweeps)})
            .as_int());
    p.smoothed_prolongation =
        config.get_or("smoothed_prolongation", Json{p.smoothed_prolongation})
            .as_bool();
    p.cycles = static_cast<size_type>(
        config.get_or("cycles", Json{static_cast<std::int64_t>(p.cycles)})
            .as_int());
    return p;
}


stop::baseline parse_baseline(const std::string& name)
{
    if (name == "rhs_norm" || name == "rhs") {
        return stop::baseline::rhs_norm;
    }
    if (name == "initial_resnorm" || name == "initial") {
        return stop::baseline::initial_resnorm;
    }
    if (name == "absolute") {
        return stop::baseline::absolute;
    }
    throw BadParameter(__FILE__, __LINE__,
                       "unknown residual baseline: " + name);
}


std::vector<std::shared_ptr<const stop::CriterionFactory>> parse_criteria(
    const Json& config)
{
    std::vector<std::shared_ptr<const stop::CriterionFactory>> result;
    if (config.contains("criteria")) {
        for (const auto& entry : config.at("criteria").elements()) {
            const auto& type = entry.at("type").as_string();
            if (type == "stop::Iteration" || type == "Iteration") {
                result.push_back(
                    stop::iteration(entry.at("max_iters").as_int()));
            } else if (type == "stop::ResidualNorm" ||
                       type == "ResidualNorm") {
                result.push_back(stop::residual_norm(
                    entry.at("reduction_factor").as_double(),
                    parse_baseline(
                        entry.get_or("baseline", Json{"rhs_norm"})
                            .as_string())));
            } else {
                throw BadParameter(__FILE__, __LINE__,
                                   "unknown criterion type: " + type);
            }
        }
    }
    // Listing-1-style keyword shorthands.
    if (config.contains("max_iters")) {
        result.push_back(stop::iteration(config.at("max_iters").as_int()));
    }
    if (config.contains("reduction_factor")) {
        result.push_back(stop::residual_norm(
            config.at("reduction_factor").as_double(),
            parse_baseline(
                config.get_or("baseline", Json{"rhs_norm"}).as_string())));
    }
    if (result.empty()) {
        throw BadParameter(__FILE__, __LINE__,
                           "config selects no stopping criteria (provide "
                           "'criteria', 'max_iters', or 'reduction_factor')");
    }
    return result;
}


template <typename V, typename I>
std::shared_ptr<const LinOpFactory> parse_preconditioner(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    const auto& type = config.at("type").as_string();
    if (type == "preconditioner::Jacobi" || type == "Jacobi" ||
        type == "jacobi") {
        validate_config_keys(config, {"type", "max_block_size"},
                             "preconditioner \"jacobi\"");
        return preconditioner::Jacobi<V, I>::build()
            .with_max_block_size(config.get_or("max_block_size", Json{1})
                                     .as_int())
            .on(std::move(exec));
    }
    if (type == "preconditioner::Ilu" || type == "Ilu" || type == "ilu") {
        validate_config_keys(config, {"type"}, "preconditioner \"ilu\"");
        return preconditioner::Ilu<V, I>::build_on(std::move(exec));
    }
    if (type == "preconditioner::Ic" || type == "Ic" || type == "ic") {
        validate_config_keys(config, {"type"}, "preconditioner \"ic\"");
        return preconditioner::Ic<V, I>::build_on(std::move(exec));
    }
    if (type == "preconditioner::Amg" || type == "Amg" || type == "amg" ||
        type == "multigrid::Amg") {
        validate_config_keys(
            config,
            {"type", "theta", "max_levels", "min_coarse_rows", "smoother",
             "cycles", "pre_sweeps", "post_sweeps", "smoothed_prolongation"},
            "preconditioner \"amg\"");
        return std::make_shared<
            multigrid::AmgPreconditionerFactory<V, I>>(
            std::move(exec), parse_amg_parameters(config));
    }
    throw BadParameter(__FILE__, __LINE__,
                       "unknown preconditioner type: " + type);
}


/// Factory wrapper implementing the config keys "format" and "reorder":
/// at generate() time the CSR system is permuted (P A Pᵀ), converted to
/// the requested storage format, and handed to the wrapped solver factory;
/// when a reordering is active the generated solver is wrapped in a
/// reorder::ReorderedLinOp so callers keep working in the original index
/// space.
template <typename V, typename I>
class TransformedFactory : public LinOpFactory {
public:
    TransformedFactory(std::shared_ptr<const Executor> exec,
                       std::shared_ptr<const LinOpFactory> inner,
                       mat_format format, reorder::strategy strategy,
                       size_type slice_size, size_type sorting_window)
        : LinOpFactory{std::move(exec)},
          inner_{std::move(inner)},
          format_{format},
          strategy_{strategy},
          slice_size_{slice_size},
          sorting_window_{sorting_window}
    {}

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override
    {
        auto csr = std::dynamic_pointer_cast<const Csr<V, I>>(system);
        if (!csr) {
            throw BadParameter(
                __FILE__, __LINE__,
                "'format'/'reorder' config keys require a CSR system matrix "
                "of the config's value_type/index_type");
        }
        auto perm = reorder::make_permutation(strategy_, csr.get());
        std::shared_ptr<const Csr<V, I>> working =
            strategy_ == reorder::strategy::none ? csr
                                                 : perm.permute(csr.get());
        std::shared_ptr<const LinOp> converted = working;
        if (format_ == mat_format::sellcs) {
            converted = SellCs<V, I>::create_from_data(
                get_executor(), working->to_data(), slice_size_,
                sorting_window_);
        } else if (format_ != mat_format::csr) {
            converted = dispatch_format(
                format_, [&](auto token) -> std::shared_ptr<const LinOp> {
                    using Mat =
                        typename decltype(token)::template type<V, I>;
                    return Mat::create_from_data(get_executor(),
                                                 working->to_data());
                });
        }
        auto solver = inner_->generate(std::move(converted));
        if (strategy_ == reorder::strategy::none) {
            return solver;
        }
        return reorder::ReorderedLinOp<V, I>::create(
            std::shared_ptr<LinOp>{std::move(solver)}, std::move(perm));
    }

private:
    std::shared_ptr<const LinOpFactory> inner_;
    mat_format format_;
    reorder::strategy strategy_;
    size_type slice_size_;
    size_type sorting_window_;
};


template <typename V, typename I>
std::shared_ptr<const LinOpFactory> parse_factory_inner(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    const auto& type = config.at("type").as_string();

    // Direct and triangular solvers carry no criteria.
    if (type == "solver::Direct" || type == "Direct" || type == "direct") {
        validate_config_keys(config, solver_config_keys({}),
                             "solver \"direct\"");
        return solver::Direct<V, I>::build_on(std::move(exec));
    }
    if (type == "solver::LowerTrs" || type == "LowerTrs") {
        validate_config_keys(config, solver_config_keys({"unit_diagonal"}),
                             "solver \"LowerTrs\"");
        return solver::LowerTrs<V, I>::build()
            .with_unit_diagonal(
                config.get_or("unit_diagonal", Json{false}).as_bool())
            .on(std::move(exec));
    }
    if (type == "solver::UpperTrs" || type == "UpperTrs") {
        validate_config_keys(config, solver_config_keys({"unit_diagonal"}),
                             "solver \"UpperTrs\"");
        return solver::UpperTrs<V, I>::build()
            .with_unit_diagonal(
                config.get_or("unit_diagonal", Json{false}).as_bool())
            .on(std::move(exec));
    }

    // The standalone V-cycle solver: stopping criteria plus the hierarchy
    // knobs; the multigrid cycle itself is the preconditioning, so no
    // "preconditioner" sub-object applies here.
    if (type == "solver::Amg" || type == "Amg" || type == "amg" ||
        type == "multigrid::AmgSolver") {
        validate_config_keys(
            config,
            solver_config_keys({"criteria", "max_iters", "reduction_factor",
                                "baseline", "theta", "max_levels",
                                "min_coarse_rows", "smoother", "pre_sweeps",
                                "post_sweeps", "smoothed_prolongation"}),
            "solver \"amg\"");
        multigrid::amg_solver_parameters params;
        params.criteria = parse_criteria(config);
        params.amg = parse_amg_parameters(config);
        return std::make_shared<multigrid::AmgSolverFactory<V, I>>(
            std::move(exec), std::move(params));
    }

    const bool known_iterative =
        type == "solver::Cg" || type == "Cg" || type == "cg" ||
        type == "solver::Cgs" || type == "Cgs" || type == "cgs" ||
        type == "solver::Bicgstab" || type == "Bicgstab" ||
        type == "bicgstab" || type == "solver::Fcg" || type == "Fcg" ||
        type == "fcg" || type == "solver::Gmres" || type == "Gmres" ||
        type == "gmres" || type == "solver::Ir" || type == "Ir" ||
        type == "ir" || type == "richardson";
    if (!known_iterative) {
        throw BadParameter(__FILE__, __LINE__,
                           "unknown solver type: " + type);
    }
    validate_config_keys(
        config,
        solver_config_keys({"criteria", "max_iters", "reduction_factor",
                            "baseline", "preconditioner", "krylov_dim",
                            "relaxation_factor", "inner_precision"}),
        "solver \"" + type + "\"");

    auto criteria = parse_criteria(config);
    std::shared_ptr<const LinOpFactory> precond;
    if (config.contains("preconditioner") &&
        !config.at("preconditioner").is_null()) {
        precond =
            parse_preconditioner<V, I>(config.at("preconditioner"), exec);
    }

    auto configure = [&](auto builder) {
        for (auto& c : criteria) {
            builder.with_criteria(c);
        }
        if (precond) {
            builder.with_preconditioner(precond);
        }
        builder.with_krylov_dim(config.get_or("krylov_dim", Json{30}).as_int());
        builder.with_relaxation_factor(
            config.get_or("relaxation_factor", Json{1.0}).as_double());
        builder.with_inner_precision(solver::precision_from_string(
            config.get_or("inner_precision", Json{"double"}).as_string()));
        return std::shared_ptr<const LinOpFactory>{builder.on(exec)};
    };

    if (type == "solver::Cg" || type == "Cg" || type == "cg") {
        return configure(solver::Cg<V>::build());
    }
    if (type == "solver::Cgs" || type == "Cgs" || type == "cgs") {
        return configure(solver::Cgs<V>::build());
    }
    if (type == "solver::Bicgstab" || type == "Bicgstab" ||
        type == "bicgstab") {
        return configure(solver::Bicgstab<V>::build());
    }
    if (type == "solver::Fcg" || type == "Fcg" || type == "fcg") {
        return configure(solver::Fcg<V>::build());
    }
    if (type == "solver::Gmres" || type == "Gmres" || type == "gmres") {
        return configure(solver::Gmres<V>::build());
    }
    if (type == "solver::Ir" || type == "Ir" || type == "ir" ||
        type == "richardson") {
        return configure(solver::Ir<V>::build());
    }
    throw BadParameter(__FILE__, __LINE__, "unknown solver type: " + type);
}


template <typename V, typename I>
std::shared_ptr<const LinOpFactory> parse_factory_typed(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    auto factory = parse_factory_inner<V, I>(config, exec);
    // Storage-format and reordering transforms apply uniformly to every
    // solver type; both strings are validated here even at their defaults.
    const auto format = format_from_string(
        config.get_or("format", Json{"csr"}).as_string());
    const auto strategy = reorder::strategy_from_string(
        config.get_or("reorder", Json{"none"}).as_string());
    if (format == mat_format::csr && strategy == reorder::strategy::none) {
        return factory;
    }
    const auto slice_size = static_cast<size_type>(
        config.get_or("slice_size",
                      Json{static_cast<std::int64_t>(
                          SellCs<V, I>::default_slice_size)})
            .as_int());
    const auto sorting_window = static_cast<size_type>(
        config.get_or("sorting_window",
                      Json{static_cast<std::int64_t>(
                          SellCs<V, I>::default_sorting_window)})
            .as_int());
    return std::make_shared<TransformedFactory<V, I>>(
        std::move(exec), std::move(factory), format, strategy, slice_size,
        sorting_window);
}


template <typename V>
std::shared_ptr<const batch::BatchLinOpFactory> parse_batch_factory_typed(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    const auto& type = config.at("type").as_string();
    const auto expected = config.at("batch").as_int();
    MGKO_ENSURE(expected >= 0, "'batch' must be a non-negative system count");
    validate_config_keys(
        config,
        {"type", "batch", "value_type", "index_type", "criteria", "max_iters",
         "reduction_factor", "baseline", "preconditioner"},
        "batched solver \"" + type + "\"");

    auto criteria = parse_criteria(config);
    std::shared_ptr<const batch::BatchLinOpFactory> precond;
    if (config.contains("preconditioner") &&
        !config.at("preconditioner").is_null()) {
        const auto& ptype = config.at("preconditioner").at("type").as_string();
        if (ptype == "preconditioner::Jacobi" || ptype == "Jacobi" ||
            ptype == "jacobi") {
            precond = batch::Jacobi<V>::build().on(exec);
        } else {
            throw BadParameter(__FILE__, __LINE__,
                               "unknown batched preconditioner type: " +
                                   ptype +
                                   " (batched configs support Jacobi)");
        }
    }

    auto configure = [&](auto builder) {
        for (auto& c : criteria) {
            builder.with_criteria(c);
        }
        if (precond) {
            builder.with_preconditioner(precond);
        }
        builder.with_batch_size(static_cast<size_type>(expected));
        return std::shared_ptr<const batch::BatchLinOpFactory>{
            builder.on(exec)};
    };

    if (type == "solver::Cg" || type == "Cg" || type == "cg" ||
        type == "batch::Cg") {
        return configure(batch::Cg<V>::build());
    }
    if (type == "solver::Bicgstab" || type == "Bicgstab" ||
        type == "bicgstab" || type == "batch::Bicgstab") {
        return configure(batch::Bicgstab<V>::build());
    }
    throw BadParameter(__FILE__, __LINE__,
                       "unknown batched solver type: " + type +
                           " (batched configs support Cg and Bicgstab)");
}

}  // namespace


dtype config_value_type(const Json& config)
{
    return dtype_from_string(
        config.get_or("value_type", Json{"double"}).as_string());
}


itype config_index_type(const Json& config)
{
    return itype_from_string(
        config.get_or("index_type", Json{"int32"}).as_string());
}


std::shared_ptr<const LinOpFactory> parse_factory(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    MGKO_ENSURE(config.is_object(), "solver config must be a JSON object");
    if (config.contains("batch")) {
        throw BadParameter(
            __FILE__, __LINE__,
            "config carries a 'batch' key: batched configurations go "
            "through parse_batch_factory / batch_config_solver, which "
            "generate from a batch::Csr or batch::Dense system");
    }
    return dispatch_value_index(
        config_value_type(config), config_index_type(config),
        [&](auto v, auto i) -> std::shared_ptr<const LinOpFactory> {
            using V = typename decltype(v)::type;
            using I = typename decltype(i)::type;
            return parse_factory_typed<V, I>(config, exec);
        });
}


std::unique_ptr<LinOp> config_solver(const Json& config,
                                     std::shared_ptr<const Executor> exec,
                                     std::shared_ptr<const LinOp> system)
{
    return parse_factory(config, std::move(exec))->generate(std::move(system));
}


std::unique_ptr<LinOp> generate_solver(const Json& config,
                                       std::shared_ptr<const Executor> exec,
                                       const matrix_data<double, int64>& data)
{
    log::ScopedSpan span{nullptr, exec.get(), "config.generate"};
    return dispatch_value_index(
        config_value_type(config), config_index_type(config),
        [&](auto v, auto i) -> std::unique_ptr<LinOp> {
            using V = typename decltype(v)::type;
            using I = typename decltype(i)::type;
            std::shared_ptr<const LinOp> system;
            {
                log::ScopedSpan read_span{nullptr, exec.get(),
                                          "config.generate.read"};
                system = Csr<V, I>::create_from_data(exec, data);
            }
            return config_solver(config, exec, std::move(system));
        });
}


solve_report apply_solver(const Json& config,
                          std::shared_ptr<const Executor> exec, LinOp* solver,
                          const std::vector<double>& rhs,
                          const std::vector<double>& initial_guess)
{
    MGKO_ENSURE(solver != nullptr, "apply_solver requires a solver");
    const auto rows = solver->get_size().rows;
    MGKO_ENSURE(static_cast<size_type>(rhs.size()) == rows,
                "rhs length " + std::to_string(rhs.size()) +
                    " does not match the system's " + std::to_string(rows) +
                    " rows");
    MGKO_ENSURE(initial_guess.empty() ||
                    static_cast<size_type>(initial_guess.size()) == rows,
                "initial guess length does not match the system");
    return dispatch_value_index(
        config_value_type(config), config_index_type(config),
        [&](auto v, auto) -> solve_report {
            using V = typename decltype(v)::type;
            auto b = Dense<V>::create(exec, dim2{rows, 1});
            auto x = Dense<V>::create(exec, dim2{rows, 1});
            V* b_values = b->get_values();
            V* x_values = x->get_values();
            const auto b_stride = b->get_stride();
            const auto x_stride = x->get_stride();
            for (size_type r = 0; r < rows; ++r) {
                b_values[r * b_stride] = static_cast<V>(rhs[r]);
                x_values[r * x_stride] = initial_guess.empty()
                                             ? zero<V>()
                                             : static_cast<V>(initial_guess[r]);
            }
            solver->apply(b.get(), x.get());
            solve_report report;
            report.solution.resize(rows);
            for (size_type r = 0; r < rows; ++r) {
                report.solution[r] =
                    static_cast<double>(to_float(x_values[r * x_stride]));
            }
            // The convergence log lives on the typed iterative solver; a
            // config "reorder" key wraps it in a ReorderedLinOp whose
            // inner operator runs in the permuted space.
            auto* iterative =
                dynamic_cast<solver::IterativeSolver<V>*>(solver);
            if (iterative == nullptr) {
                if (auto* reordered =
                        dynamic_cast<reorder::ReorderedOperator*>(solver)) {
                    iterative = dynamic_cast<solver::IterativeSolver<V>*>(
                        reordered->inner_operator().get());
                }
            }
            if (iterative != nullptr) {
                const auto logger = iterative->get_logger();
                report.iterations = logger->num_iterations();
                report.converged = logger->has_converged();
                report.residual_norm = logger->final_residual_norm();
                report.stop_reason = logger->stop_reason();
            } else {
                // Direct and triangular solvers run to completion with no
                // iteration log.
                report.converged = true;
                report.residual_norm =
                    std::numeric_limits<double>::quiet_NaN();
                report.stop_reason = "direct";
            }
            return report;
        });
}


std::shared_ptr<const batch::BatchLinOpFactory> parse_batch_factory(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    MGKO_ENSURE(config.is_object(), "solver config must be a JSON object");
    MGKO_ENSURE(config.contains("batch"),
                "batched solver config requires a 'batch' key");
    return dispatch_value_index(
        config_value_type(config), config_index_type(config),
        [&](auto v, auto) -> std::shared_ptr<const batch::BatchLinOpFactory> {
            using V = typename decltype(v)::type;
            return parse_batch_factory_typed<V>(config, exec);
        });
}


std::unique_ptr<batch::BatchLinOp> batch_config_solver(
    const Json& config, std::shared_ptr<const Executor> exec,
    std::shared_ptr<const batch::BatchLinOp> system)
{
    return parse_batch_factory(config, std::move(exec))
        ->generate(std::move(system));
}


}  // namespace mgko::config
