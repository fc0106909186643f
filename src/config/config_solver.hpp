// The generic config-solver entry point (paper §5).
//
// A JSON configuration (built from a file, a string, or — through the
// binding layer — a Python-style dictionary) selects a solver, its
// stopping criteria, an optional preconditioner, and the value/index types,
// all at run time.  New functionality reachable through this entry point
// needs no new explicit bindings — the property the paper highlights.
//
// Schema (Listing 2 of the paper, normalized):
// {
//   "type": "solver::Gmres",              // or Cg/Cgs/Bicgstab/Fcg/Ir/
//                                         //    Direct/LowerTrs/UpperTrs/Amg
//   "value_type": "float64",              // half|float32|float64 (default)
//   "index_type": "int32",                // int32 (default) | int64
//   "krylov_dim": 30,                     // GMRES only
//   "relaxation_factor": 1.0,             // Ir only
//   "criteria": [
//     {"type": "stop::Iteration", "max_iters": 1000},
//     {"type": "stop::ResidualNorm", "reduction_factor": 1e-6,
//      "baseline": "rhs_norm"}
//   ],
//   // shorthands accepted instead of "criteria":
//   "max_iters": 1000, "reduction_factor": 1e-6,
//   "preconditioner": {"type": "preconditioner::Jacobi", "max_block_size": 1}
// }
//
// Each type reads only its own keys (README.md lists them).  A key that the
// chosen type would ignore throws BadParameter, as do "slice_size" without
// "format": "sellcs" and "baseline" without "reduction_factor".  A
// "batch": N key routes the configuration to the batched solvers
// (batch::Cg / batch::Bicgstab over a batch::Csr or batch::Dense system of
// N systems); see parse_batch_factory below.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "batch/batch_lin_op.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "core/lin_op.hpp"
#include "core/matrix_data.hpp"

namespace mgko::config {


/// Builds a solver factory from a configuration.  Throws BadParameter for
/// unknown types / malformed configs, including configs carrying a
/// "batch" key (those belong to parse_batch_factory).
std::shared_ptr<const LinOpFactory> parse_factory(
    const Json& configuration, std::shared_ptr<const Executor> exec);

/// One-shot convenience: builds the factory, generates the solver for
/// `system`, and returns it.
std::unique_ptr<LinOp> config_solver(const Json& configuration,
                                     std::shared_ptr<const Executor> exec,
                                     std::shared_ptr<const LinOp> system);

/// Builds a *batched* solver factory from a configuration carrying a
/// "batch": N key (N = expected number of systems; 0 accepts any batch).
/// Supported types: solver::Cg and solver::Bicgstab, with an optional
/// scalar-Jacobi preconditioner; criteria follow the single-system schema
/// and are bound per system at apply time.
std::shared_ptr<const batch::BatchLinOpFactory> parse_batch_factory(
    const Json& configuration, std::shared_ptr<const Executor> exec);

/// One-shot convenience for the batched path: builds the batch factory and
/// generates the batched solver for `system`.
std::unique_ptr<batch::BatchLinOp> batch_config_solver(
    const Json& configuration, std::shared_ptr<const Executor> exec,
    std::shared_ptr<const batch::BatchLinOp> system);

/// The value/index types a configuration selects (defaults: double, int32).
dtype config_value_type(const Json& configuration);
itype config_index_type(const Json& configuration);


// --- solve-as-a-service glue (serve::SolveServer) --------------------------
//
// The serving layer works in wire types (staging matrix_data and host
// double vectors) while the configuration picks the compute types at run
// time; these helpers bridge the two so the server never has to spell out
// the value/index dispatch the binding layer performs.

/// Host-side outcome of one solve through the config entry point: the
/// solution column plus the convergence log (what bind::Solver::apply
/// returns as a Logger, flattened to plain values for serialization).
struct solve_report {
    std::vector<double> solution;
    size_type iterations{0};
    bool converged{false};
    double residual_norm{0.0};
    std::string stop_reason;
};

/// Builds the CSR system of the configuration's value/index types from
/// staging data and generates the configured solver on it — the setup
/// (including any factorization the preconditioner performs) that a
/// server wants to pay once per uploaded operator, not once per request.
std::unique_ptr<LinOp> generate_solver(const Json& configuration,
                                       std::shared_ptr<const Executor> exec,
                                       const matrix_data<double, int64>& data);

/// Applies a solver generated from the same configuration (generate_solver
/// or config_solver) to `rhs`, starting from `initial_guess` (zeros when
/// empty).  Both host vectors are length rows; the configuration is only
/// consulted for its value type, so it must match the one the solver was
/// generated with.  Returns the solution and the convergence log; solvers
/// without one (Direct, LowerTrs/UpperTrs) report converged with reason
/// "direct".
solve_report apply_solver(const Json& configuration,
                          std::shared_ptr<const Executor> exec, LinOp* solver,
                          const std::vector<double>& rhs,
                          const std::vector<double>& initial_guess = {});


}  // namespace mgko::config
