// Aggregation-based algebraic multigrid hierarchy (DESIGN.md §16).
//
// The hierarchy builder mirrors amgcl's smoothed-aggregation pipeline on
// this repo's CSR/LinOp types: a strength-of-connection filter
// (|a_ij| >= theta * sqrt(|a_ii a_jj|)), greedy aggregation producing a
// piecewise-constant tentative prolongation, an optional Jacobi smoothing
// pass over the prolongation (P = (I - omega D_f^{-1} A_f) T via
// matrix::spgemm), and Galerkin coarse operators A_c = R A P with
// R = P^T.  Coarsening stops at `max_levels`, `min_coarse_rows`, or when
// aggregation stalls; the coarsest system is solved with the dense direct
// solver.
//
// Hierarchy::cycle runs one V-cycle.  All per-level temporaries live in a
// persistent solver::Workspace, so a steady-state cycle performs zero
// executor allocations — the property the AmgSolver/AmgPreconditioner
// zero-allocation tests assert.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/lin_op.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/workspace.hpp"

namespace mgko::multigrid {


/// Relaxation scheme used on every level above the coarsest.  The V-cycle
/// applies `jacobi` symmetrically and `gauss_seidel` as a forward sweep
/// before and a backward sweep after coarse correction, so both keep the
/// cycle symmetric (and thus CG-safe) on SPD systems.
enum class smoother_type { jacobi, gauss_seidel };

std::string to_string(smoother_type s);
/// Parses "jacobi" / "gauss_seidel" ("gs"); throws BadParameter otherwise.
smoother_type smoother_from_string(const std::string& name);


/// Knobs of the hierarchy construction and the V-cycle.  The config layer
/// maps the "amg" solver/preconditioner keys onto these.
struct amg_parameters {
    /// Strength-of-connection threshold: keep |a_ij| >= theta *
    /// sqrt(|a_ii a_jj|).  0 keeps every connection.
    double theta{0.08};
    /// Upper bound on hierarchy depth, counting the finest level.
    size_type max_levels{12};
    /// Coarsening stops once a level has at most this many rows.
    size_type min_coarse_rows{64};
    smoother_type smoother{smoother_type::jacobi};
    /// Relaxation sweeps before (and after) each coarse correction.
    size_type pre_sweeps{1};
    size_type post_sweeps{1};
    /// Damping factor of the Jacobi smoother.
    double jacobi_weight{2.0 / 3.0};
    /// Jacobi-smoothed prolongation (smoothed aggregation) when true;
    /// piecewise-constant tentative P otherwise.
    bool smoothed_prolongation{true};
    /// V-cycles per AmgPreconditioner application.
    size_type cycles{1};
};


/// The multilevel operator stack: level 0 holds the fine system; every
/// level above the coarsest owns the transfer operators down to the next.
template <typename ValueType = double, typename IndexType = int32>
class Hierarchy {
public:
    struct level {
        std::shared_ptr<const Csr<ValueType, IndexType>> op;
        /// Prolongation from the next-coarser level (empty on the coarsest).
        std::unique_ptr<Csr<ValueType, IndexType>> prolong;
        /// Restriction to the next-coarser level, R = P^T.
        std::unique_ptr<Csr<ValueType, IndexType>> restrict_op;
        /// 1 / a_ii per row, used by both smoothers.
        std::unique_ptr<Dense<ValueType>> inv_diag;
        /// Persistent storage for the per-level cycle span name
        /// ("amg.cycle.level<k>"); ScopedSpan keeps only the pointer.
        std::string cycle_span;
    };

    /// Builds the full hierarchy (strength graph, aggregates, transfer
    /// operators, Galerkin products, coarse factorization) under an
    /// "amg.setup" span; each Galerkin product runs through
    /// matrix::spgemm and is visible in the profiler.
    Hierarchy(std::shared_ptr<const Executor> exec, amg_parameters params,
              std::shared_ptr<const Csr<ValueType, IndexType>> fine);

    size_type num_levels() const { return levels_.size(); }
    const level& get_level(size_type k) const { return levels_.at(k); }
    const amg_parameters& get_parameters() const { return params_; }
    std::shared_ptr<const Executor> get_executor() const { return exec_; }

    /// Total stored elements across all level operators divided by the
    /// fine operator's — the classic AMG grid/operator complexity measure.
    double operator_complexity() const;

    /// Runs one V-cycle on A x = b, improving x in place (x is the initial
    /// guess and may be nonzero).  `owner` is an optional extra span
    /// attachment point (the solver/preconditioner wrapping this
    /// hierarchy); spans are always also emitted through the executor.
    void cycle(const Dense<ValueType>* b, Dense<ValueType>* x,
               const log::EnableLogging* owner = nullptr) const;

private:
    template <typename V, typename I>
    friend class AmgPreconditioner;

    /// One V-cycle; `x_zero` means x enters as the zero vector, whatever
    /// its storage holds.  The result is bitwise the one of zeroing x and
    /// calling cycle(), but a level entered at zero skips work on it: the
    /// first Jacobi pre-sweep writes x = w D^{-1} b, replacing the fill,
    /// the A * 0 SpMV and the relax pass, and the direct coarse solve
    /// overwrites x anyway.  Every coarse correction enters at zero.
    void run_cycle(const Dense<ValueType>* b, Dense<ValueType>* x,
                   const log::EnableLogging* owner, bool x_zero) const;
    void run_level(size_type lvl, const Dense<ValueType>* b,
                   Dense<ValueType>* x, const log::EnableLogging* owner,
                   bool x_zero) const;
    /// One relaxation sweep; `x_zero` (Jacobi only) reads x as zero.
    void smooth(size_type lvl, const Dense<ValueType>* b,
                Dense<ValueType>* x, bool backward, bool x_zero) const;

    std::shared_ptr<const Executor> exec_;
    amg_parameters params_;
    std::vector<level> levels_;
    /// Dense LU of the coarsest operator (null only when the coarsest
    /// level is smoothed instead, i.e. it exceeded Direct::max_dimension).
    std::unique_ptr<LinOp> coarse_solver_;
    /// Per-level V-cycle temporaries (residual, smoother scratch, coarse
    /// rhs/solution) plus the +-1 scalars; slots persist across cycles.
    mutable solver::Workspace<ValueType> workspace_;
};


}  // namespace mgko::multigrid
