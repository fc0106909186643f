#include "config/config_solver.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string_view>
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

// One table per slot that a "type" selects from.  A row holds the canonical
// type, every other alias, the keys the type reads, and the kind its slot's
// builder switches on.  lookup() reads the rows for the type lookup, the
// messages and the key check, so a key the type would ignore is refused.

enum class kind {
    cg, cgs, bicgstab, fcg, gmres, ir, direct, lower_trs, upper_trs, amg,
    jacobi, ilu, ic, iteration, residual_norm
};

struct row {
    std::string_view canonical;
    /// Every other accepted alias, space-separated.
    std::string_view aliases;
    /// The keys the type reads, space-separated.
    std::string_view keys;
    kind type;
};

// Key groups that rows share (adjacent literals concatenate): what every
// single-system solver reads, the stopping criteria, and the AMG hierarchy.
#define MGKO_SOLVER_KEYS \
    "type value_type index_type format reorder slice_size sorting_window "
#define MGKO_CRITERIA_KEYS "criteria max_iters reduction_factor baseline "
#define MGKO_HIERARCHY_KEYS                                              \
    "theta max_levels min_coarse_rows smoother pre_sweeps post_sweeps " \
    "smoothed_prolongation "
#define MGKO_KRYLOV_KEYS MGKO_SOLVER_KEYS MGKO_CRITERIA_KEYS "preconditioner "
#define MGKO_BATCH_KEYS \
    "type batch value_type index_type " MGKO_CRITERIA_KEYS "preconditioner"

constexpr row solver_table[] = {
    {"solver::Cg", "Cg cg", MGKO_KRYLOV_KEYS, kind::cg},
    {"solver::Cgs", "Cgs cgs", MGKO_KRYLOV_KEYS, kind::cgs},
    {"solver::Bicgstab", "Bicgstab bicgstab", MGKO_KRYLOV_KEYS, kind::bicgstab},
    {"solver::Fcg", "Fcg fcg", MGKO_KRYLOV_KEYS, kind::fcg},
    {"solver::Gmres", "Gmres gmres", MGKO_KRYLOV_KEYS "krylov_dim",
     kind::gmres},
    {"solver::Ir", "Ir ir richardson",
     MGKO_KRYLOV_KEYS "relaxation_factor inner_precision", kind::ir},
    // Direct and triangular solvers carry no criteria.
    {"solver::Direct", "Direct direct", MGKO_SOLVER_KEYS, kind::direct},
    {"solver::LowerTrs", "LowerTrs", MGKO_SOLVER_KEYS "unit_diagonal",
     kind::lower_trs},
    {"solver::UpperTrs", "UpperTrs", MGKO_SOLVER_KEYS "unit_diagonal",
     kind::upper_trs},
    // The V-cycle is the preconditioning, so no "preconditioner" block.
    {"solver::Amg", "Amg amg multigrid::AmgSolver",
     MGKO_SOLVER_KEYS MGKO_CRITERIA_KEYS MGKO_HIERARCHY_KEYS, kind::amg},
};

constexpr row preconditioner_table[] = {
    {"preconditioner::Jacobi", "Jacobi jacobi", "type max_block_size",
     kind::jacobi},
    {"preconditioner::Ilu", "Ilu ilu", "type", kind::ilu},
    {"preconditioner::Ic", "Ic ic", "type", kind::ic},
    {"preconditioner::Amg", "Amg amg multigrid::Amg",
     "type " MGKO_HIERARCHY_KEYS "cycles", kind::amg},
};

constexpr row batch_solver_table[] = {
    {"solver::Cg", "Cg cg batch::Cg", MGKO_BATCH_KEYS, kind::cg},
    {"solver::Bicgstab", "Bicgstab bicgstab batch::Bicgstab", MGKO_BATCH_KEYS,
     kind::bicgstab},
};

/// Batched Jacobi is scalar, so its block reads no key beyond "type".
constexpr row batch_preconditioner_table[] = {
    {"preconditioner::Jacobi", "Jacobi jacobi", "type", kind::jacobi},
};

constexpr row criterion_table[] = {
    {"stop::Iteration", "Iteration", "type max_iters", kind::iteration},
    {"stop::ResidualNorm", "ResidualNorm", "type reduction_factor baseline",
     kind::residual_norm},
};


/// Removes and returns the first word of a space-separated list.
std::string_view pop_word(std::string_view& words)
{
    const auto end = std::min(words.find(' '), words.size());
    const auto word = words.substr(0, end);
    words.remove_prefix(std::min(end + 1, words.size()));
    return word;
}

/// True when `word` is one of the space-separated `words`.
bool has_word(std::string_view words, std::string_view word)
{
    while (!words.empty()) {
        if (pop_word(words) == word) {
            return true;
        }
    }
    return false;
}


/// The kind of the row of `table` that names `config`'s "type", once
/// `config` is checked to carry only keys that row reads.
template <std::size_t N>
kind lookup(const row (&table)[N], const Json& config, const char* slot)
{
    const auto& type = config.at("type").as_string();
    const auto* match =
        std::find_if(std::begin(table), std::end(table), [&](const row& r) {
            return r.canonical == type || has_word(r.aliases, type);
        });
    if (match == std::end(table)) {
        std::string known;
        for (const auto& r : table) {
            known += (known.empty() ? "" : ", ") + std::string{r.canonical};
        }
        throw BadParameter(__FILE__, __LINE__,
                           std::string{"unknown "} + slot + " type: " + type +
                               " (known types: " + known + ")");
    }
    for (const auto& [key, value] : config.items()) {
        (void)value;
        if (!has_word(match->keys, key)) {
            std::string valid;
            for (auto words = match->keys; !words.empty();) {
                valid += (valid.empty() ? "" : ", ") +
                         std::string{pop_word(words)};
            }
            throw BadParameter(
                __FILE__, __LINE__,
                "unknown config key '" + key + "' for " + slot + " \"" +
                    std::string{match->canonical} + "\" (valid keys: " +
                    valid + ")");
        }
    }
    return match->type;
}


/// Refuses `key`, which acts only together with `needed`, if it is set.
void refuse_key(const Json& config, const char* key, const char* needed)
{
    if (config.contains(key)) {
        throw BadParameter(__FILE__, __LINE__,
                           std::string{"config key '"} + key +
                               "' acts only with " + needed);
    }
}


multigrid::amg_parameters parse_amg_parameters(const Json& config)
{
    multigrid::amg_parameters p;
    p.theta = config.get_or("theta", Json{p.theta}).as_double();
    p.max_levels = config.get_or("max_levels", Json{p.max_levels}).as_int();
    p.min_coarse_rows =
        config.get_or("min_coarse_rows", Json{p.min_coarse_rows}).as_int();
    p.smoother = multigrid::smoother_from_string(
        config.get_or("smoother", Json{multigrid::to_string(p.smoother)})
            .as_string());
    p.pre_sweeps = config.get_or("pre_sweeps", Json{p.pre_sweeps}).as_int();
    p.post_sweeps = config.get_or("post_sweeps", Json{p.post_sweeps}).as_int();
    p.smoothed_prolongation =
        config.get_or("smoothed_prolongation", Json{p.smoothed_prolongation})
            .as_bool();
    p.cycles = config.get_or("cycles", Json{p.cycles}).as_int();
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


std::shared_ptr<const stop::CriterionFactory> residual_criterion(
    const Json& config)
{
    return stop::residual_norm(
        config.at("reduction_factor").as_double(),
        parse_baseline(
            config.get_or("baseline", Json{"rhs_norm"}).as_string()));
}


std::vector<std::shared_ptr<const stop::CriterionFactory>> parse_criteria(
    const Json& config)
{
    std::vector<std::shared_ptr<const stop::CriterionFactory>> result;
    if (config.contains("criteria")) {
        for (const auto& entry : config.at("criteria").elements()) {
            result.push_back(
                lookup(criterion_table, entry, "criterion") == kind::iteration
                    ? stop::iteration(entry.at("max_iters").as_int())
                    : residual_criterion(entry));
        }
    }
    // Listing-1-style keyword shorthands.
    if (config.contains("max_iters")) {
        result.push_back(stop::iteration(config.at("max_iters").as_int()));
    }
    if (config.contains("reduction_factor")) {
        result.push_back(residual_criterion(config));
    } else {
        refuse_key(config, "baseline", "'reduction_factor'");
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
    const Json& config, const std::shared_ptr<const Executor>& exec)
{
    switch (lookup(preconditioner_table, config, "preconditioner")) {
    case kind::jacobi:
        return preconditioner::Jacobi<V, I>::build()
            .with_max_block_size(
                config.get_or("max_block_size", Json{1}).as_int())
            .on(exec);
    case kind::ilu:
        return preconditioner::Ilu<V, I>::build_on(exec);
    case kind::ic:
        return preconditioner::Ic<V, I>::build_on(exec);
    default:  // kind::amg
        return std::make_shared<multigrid::AmgPreconditionerFactory<V, I>>(
            exec, parse_amg_parameters(config));
    }
}


template <typename V, typename I>
std::shared_ptr<const LinOpFactory> parse_solver(
    const Json& config, const std::shared_ptr<const Executor>& exec)
{
    // What every Krylov row reads: the criteria and the preconditioner.
    const auto krylov = [&](auto builder) {
        for (auto& criterion : parse_criteria(config)) {
            builder.with_criteria(std::move(criterion));
        }
        if (config.contains("preconditioner") &&
            !config.at("preconditioner").is_null()) {
            builder.with_preconditioner(parse_preconditioner<V, I>(
                config.at("preconditioner"), exec));
        }
        return builder;
    };
    const auto trs = [&](auto builder) {
        return builder
            .with_unit_diagonal(
                config.get_or("unit_diagonal", Json{false}).as_bool())
            .on(exec);
    };
    switch (lookup(solver_table, config, "solver")) {
    case kind::cg:
        return krylov(solver::Cg<V>::build()).on(exec);
    case kind::cgs:
        return krylov(solver::Cgs<V>::build()).on(exec);
    case kind::bicgstab:
        return krylov(solver::Bicgstab<V>::build()).on(exec);
    case kind::fcg:
        return krylov(solver::Fcg<V>::build()).on(exec);
    case kind::gmres:
        return krylov(solver::Gmres<V>::build())
            .with_krylov_dim(config.get_or("krylov_dim", Json{30}).as_int())
            .on(exec);
    case kind::ir:
        return krylov(solver::Ir<V>::build())
            .with_relaxation_factor(
                config.get_or("relaxation_factor", Json{1.0}).as_double())
            .with_inner_precision(solver::precision_from_string(
                config.get_or("inner_precision", Json{"double"}).as_string()))
            .on(exec);
    case kind::direct:
        return solver::Direct<V, I>::build_on(exec);
    case kind::lower_trs:
        return trs(solver::LowerTrs<V, I>::build());
    case kind::upper_trs:
        return trs(solver::UpperTrs<V, I>::build());
    default: {  // kind::amg
        multigrid::amg_solver_parameters params;
        params.criteria = parse_criteria(config);
        params.amg = parse_amg_parameters(config);
        return std::make_shared<multigrid::AmgSolverFactory<V, I>>(
            exec, std::move(params));
    }
    }
}


template <typename V>
std::shared_ptr<const batch::BatchLinOpFactory> parse_batch_solver(
    const Json& config, const std::shared_ptr<const Executor>& exec)
{
    const auto expected = config.at("batch").as_int();
    MGKO_ENSURE(expected >= 0, "'batch' must be a non-negative system count");
    const auto configure = [&](auto builder) {
        for (auto& criterion : parse_criteria(config)) {
            builder.with_criteria(std::move(criterion));
        }
        if (config.contains("preconditioner") &&
            !config.at("preconditioner").is_null()) {
            lookup(batch_preconditioner_table, config.at("preconditioner"),
                   "batched preconditioner");
            builder.with_preconditioner(batch::Jacobi<V>::build().on(exec));
        }
        builder.with_batch_size(static_cast<size_type>(expected));
        return std::shared_ptr<const batch::BatchLinOpFactory>{
            builder.on(exec)};
    };
    return lookup(batch_solver_table, config, "batched solver") == kind::cg
               ? configure(batch::Cg<V>::build())
               : configure(batch::Bicgstab<V>::build());
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
std::shared_ptr<const LinOpFactory> parse_factory_typed(
    const Json& config, std::shared_ptr<const Executor> exec)
{
    auto factory = parse_solver<V, I>(config, exec);
    // Storage-format and reordering transforms apply uniformly to every
    // solver type; both strings are validated here even at their defaults.
    const auto format = format_from_string(
        config.get_or("format", Json{"csr"}).as_string());
    const auto strategy = reorder::strategy_from_string(
        config.get_or("reorder", Json{"none"}).as_string());
    if (format != mat_format::sellcs) {
        refuse_key(config, "slice_size", "\"format\": \"sellcs\"");
        refuse_key(config, "sorting_window", "\"format\": \"sellcs\"");
    }
    if (format == mat_format::csr && strategy == reorder::strategy::none) {
        return factory;
    }
    const auto slice_size =
        config.get_or("slice_size", Json{SellCs<V, I>::default_slice_size})
            .as_int();
    const auto sorting_window =
        config
            .get_or("sorting_window",
                    Json{SellCs<V, I>::default_sorting_window})
            .as_int();
    return std::make_shared<TransformedFactory<V, I>>(
        std::move(exec), std::move(factory), format, strategy, slice_size,
        sorting_window);
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
    return dispatch_value_index(
        config_value_type(config), config_index_type(config),
        [&](auto v, auto) -> std::shared_ptr<const batch::BatchLinOpFactory> {
            using V = typename decltype(v)::type;
            return parse_batch_solver<V>(config, exec);
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
