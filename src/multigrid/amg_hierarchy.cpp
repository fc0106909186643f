#include "multigrid/amg_hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/spgemm.hpp"
#include "solver/direct.hpp"

namespace mgko::multigrid {


std::string to_string(smoother_type s)
{
    return s == smoother_type::jacobi ? "jacobi" : "gauss_seidel";
}

smoother_type smoother_from_string(const std::string& name)
{
    if (name == "jacobi") {
        return smoother_type::jacobi;
    }
    if (name == "gauss_seidel" || name == "gs") {
        return smoother_type::gauss_seidel;
    }
    throw BadParameter(__FILE__, __LINE__,
                       "unknown smoother '" + name +
                           "' (expected \"jacobi\" or \"gauss_seidel\")");
}


namespace {

// Workspace layout: four slots per level (residual, smoother scratch,
// coarse rhs, coarse solution), then the +-1 scalars after the last level.
constexpr std::size_t slots_per_level = 4;
constexpr std::size_t ws_r = 0;
constexpr std::size_t ws_tmp = 1;
constexpr std::size_t ws_coarse_b = 2;
constexpr std::size_t ws_coarse_x = 3;


/// The stored diagonal of a level operator as doubles: the last stored
/// entry of each row's diagonal column, 0 where none is stored.  Computed
/// once per level, row-parallel, for aggregation, the prolongation
/// smoother and the relaxation smoothers' inverted diagonal.
template <typename ValueType, typename IndexType>
std::vector<double> stored_diagonal(const Csr<ValueType, IndexType>* a)
{
    const int nt = a->get_executor()->real_threads();
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();
    std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
    kernels::parallel_for(nt, n, [&](size_type row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (static_cast<size_type>(col_idxs[k]) == row) {
                diag[static_cast<std::size_t>(row)] = to_float(values[k]);
            }
        }
    });
    return diag;
}


/// The strength graph of a level operator: one byte per stored entry, set
/// for an off-diagonal, in-range entry with |a_ij| >= theta *
/// sqrt(|a_ii| * |a_jj|).  Computed once per level, row-parallel, for
/// aggregation and the prolongation smoother.  A NaN on either side of the
/// test leaves the entry weak.
template <typename ValueType, typename IndexType>
std::vector<unsigned char> strength_mask(const Csr<ValueType, IndexType>* a,
                                         const std::vector<double>& diag,
                                         double theta)
{
    const int nt = a->get_executor()->real_threads();
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();
    std::vector<unsigned char> strong(
        static_cast<std::size_t>(a->get_num_stored_elements()));
    const auto* d = diag.data();
    auto* s = strong.data();
    kernels::parallel_for(nt, n, [=](size_type row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            s[k] = col != row && col < n &&
                   std::abs(to_float(values[k])) >=
                       theta * std::sqrt(std::abs(d[row]) * std::abs(d[col]));
        }
    });
    return strong;
}


/// Greedy unsmoothed aggregation over the strength graph.  Fills `agg`
/// (fine row -> aggregate id) and returns the number of aggregates.  The
/// passes run serially: their order decides the aggregates.
///
/// Pass 1 seeds an aggregate from every node whose strong neighbourhood is
/// still untouched (the node plus all strong neighbours join).  Pass 2
/// attaches leftovers to the aggregate of their strongest aggregated
/// neighbour.  Pass 3 turns isolated stragglers into singletons.
template <typename ValueType, typename IndexType>
size_type aggregate_rows(const Csr<ValueType, IndexType>* a,
                         const std::vector<unsigned char>& strong,
                         std::vector<IndexType>& agg)
{
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();

    constexpr IndexType unassigned = -1;
    agg.assign(static_cast<std::size_t>(n), unassigned);
    IndexType num_agg = 0;
    for (size_type row = 0; row < n; ++row) {
        if (agg[row] != unassigned) {
            continue;
        }
        bool neighborhood_free = true;
        for (auto k = row_ptrs[row];
             neighborhood_free && k < row_ptrs[row + 1]; ++k) {
            if (strong[static_cast<std::size_t>(k)] &&
                agg[static_cast<std::size_t>(col_idxs[k])] != unassigned) {
                neighborhood_free = false;
            }
        }
        if (!neighborhood_free) {
            continue;
        }
        agg[row] = num_agg;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (strong[static_cast<std::size_t>(k)]) {
                agg[static_cast<std::size_t>(col_idxs[k])] = num_agg;
            }
        }
        ++num_agg;
    }
    for (size_type row = 0; row < n; ++row) {
        if (agg[row] != unassigned) {
            continue;
        }
        double best = -1.0;
        IndexType target = unassigned;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<std::size_t>(col_idxs[k]);
            if (strong[static_cast<std::size_t>(k)] && agg[col] != unassigned) {
                const double w =
                    std::abs(to_float(values[static_cast<std::size_t>(k)]));
                if (w > best) {
                    best = w;
                    target = agg[col];
                }
            }
        }
        agg[row] = target;
    }
    for (size_type row = 0; row < n; ++row) {
        if (agg[row] == unassigned) {
            agg[row] = num_agg++;
        }
    }
    return static_cast<size_type>(num_agg);
}


/// The prolongation smoother M = I - omega * D_f^{-1} A_f, where A_f keeps
/// the strong entries and lumps the filtered weak couplings into the
/// diagonal, and omega = 4 / (3 rho) with rho the Gershgorin bound on
/// rho(D_f^{-1} A_f) — the standard smoothed-aggregation damping.
///
/// Built straight into CSR in two row-parallel passes: the first computes
/// the filtered diagonal, each row's kept-entry count and each thread's
/// maximum of the bound; the second writes each row's kept entries in
/// stored order with 1 - omega merged in at the diagonal's column.  A row
/// stored out of column order (only a hand-built Csr has one) is sorted
/// afterwards; one that would keep a column twice is refused.
template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> prolongation_smoother(
    const Csr<ValueType, IndexType>* a, const std::vector<double>& diag,
    const std::vector<unsigned char>& strong)
{
    const auto exec = a->get_executor();
    const int nt = exec->real_threads();
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();

    // Filtered diagonal (weak couplings lumped in) and Gershgorin bound.
    // The bound is a max, taken per thread and then over the threads;
    // std::max skips a NaN candidate either way.
    std::vector<double> filtered_diag(static_cast<std::size_t>(n));
    std::vector<size_type> counts(static_cast<std::size_t>(n));
    std::vector<double> thread_rho(static_cast<std::size_t>(nt), 0.0);
    kernels::parallel_team(nt, [&](int tid, int threads) {
        const auto [begin, end] = kernels::static_block(n, tid, threads);
        double rho = 0.0;
        for (auto row = begin; row < end; ++row) {
            double filtered = diag[static_cast<std::size_t>(row)];
            double strong_abs = 0.0;
            size_type kept = 1;
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                const auto col = static_cast<size_type>(col_idxs[k]);
                if (col == row) {
                    continue;
                }
                const double v = to_float(values[k]);
                if (strong[static_cast<std::size_t>(k)]) {
                    strong_abs += std::abs(v);
                    ++kept;
                } else {
                    filtered += v;
                }
            }
            filtered_diag[static_cast<std::size_t>(row)] = filtered;
            counts[static_cast<std::size_t>(row)] = kept;
            const double d = std::abs(filtered);
            if (d > 0.0) {
                rho = std::max(rho, (d + strong_abs) / d);
            }
        }
        thread_rho[static_cast<std::size_t>(tid)] = rho;
    });
    double rho = 0.0;
    for (const double r : thread_rho) {
        rho = std::max(rho, r);
    }
    const double omega = rho > 0.0 ? 4.0 / (3.0 * rho) : 2.0 / 3.0;

    auto m = Csr<ValueType, IndexType>::create_with_row_counts(
        exec, dim2{n, n}, counts);
    const auto* m_ptrs = m->get_const_row_ptrs();
    auto* m_cols = m->get_col_idxs();
    auto* m_vals = m->get_values();
    std::vector<unsigned char> out_of_order(static_cast<std::size_t>(n), 0);
    const auto* d = diag.data();
    const auto* fd = filtered_diag.data();
    const auto* s = strong.data();
    auto* unsorted = out_of_order.data();
    kernels::parallel_for(nt, n, [=](size_type row) {
        double df = fd[row];
        if (df == 0.0) {
            df = d[row] != 0.0 ? d[row] : 1.0;
        }
        auto out = m_ptrs[row];
        auto put = [&](size_type col, double v) {
            m_cols[out] = static_cast<IndexType>(col);
            m_vals[out] = static_cast<ValueType>(v);
            ++out;
        };
        bool diagonal_written = false;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (!s[k]) {
                continue;
            }
            const auto col = static_cast<size_type>(col_idxs[k]);
            if (!diagonal_written && col > row) {
                put(row, 1.0 - omega);
                diagonal_written = true;
            }
            put(col, -omega * to_float(values[k]) / df);
        }
        if (!diagonal_written) {
            put(row, 1.0 - omega);
        }
        unsorted[row] =
            std::adjacent_find(m_cols + m_ptrs[row], m_cols + m_ptrs[row + 1],
                               std::greater_equal<>{}) !=
            m_cols + m_ptrs[row + 1];
    });

    std::vector<std::pair<IndexType, ValueType>> row_buffer;
    for (size_type row = 0; row < n; ++row) {
        if (!out_of_order[static_cast<std::size_t>(row)]) {
            continue;
        }
        const auto begin = m_ptrs[row];
        const auto end = m_ptrs[row + 1];
        row_buffer.clear();
        for (auto k = begin; k < end; ++k) {
            row_buffer.emplace_back(m_cols[k], m_vals[k]);
        }
        std::sort(row_buffer.begin(), row_buffer.end(),
                  [](const auto& x, const auto& y) {
                      return x.first < y.first;
                  });
        for (auto k = begin; k < end; ++k) {
            const auto& [col, value] =
                row_buffer[static_cast<std::size_t>(k - begin)];
            if (k > begin && m_cols[k - 1] == col) {
                throw BadParameter(
                    __FILE__, __LINE__,
                    "AMG prolongation smoother: row " + std::to_string(row) +
                        " of the level operator stores column " +
                        std::to_string(col) + " more than once");
            }
            m_cols[k] = col;
            m_vals[k] = value;
        }
    }
    return m;
}


/// 1 / a_ii per row, shared by both smoothers.  The zero fill before the
/// writes is one of setup's modeled launches: bench_amg's amg_setup_s
/// baseline and the setup launch counts include it.
template <typename ValueType>
std::unique_ptr<Dense<ValueType>> inverted_diagonal(
    std::shared_ptr<const Executor> exec, const std::vector<double>& diag)
{
    const auto n = static_cast<size_type>(diag.size());
    auto result = Dense<ValueType>::create(std::move(exec), dim2{n, 1});
    result->fill(zero<ValueType>());
    auto* vals = result->get_values();
    for (size_type row = 0; row < n; ++row) {
        vals[row] = safe_reciprocal(
            static_cast<ValueType>(diag[static_cast<std::size_t>(row)]));
    }
    return result;
}

}  // namespace


template <typename ValueType, typename IndexType>
Hierarchy<ValueType, IndexType>::Hierarchy(
    std::shared_ptr<const Executor> exec, amg_parameters params,
    std::shared_ptr<const Csr<ValueType, IndexType>> fine)
    : exec_{std::move(exec)}, params_{params}, workspace_{exec_}
{
    MGKO_ENSURE(fine != nullptr, "AMG hierarchy requires a system matrix");
    MGKO_ENSURE(fine->get_size().rows == fine->get_size().cols,
                "AMG hierarchy requires a square system");
    MGKO_ENSURE(params_.theta >= 0.0 && params_.theta < 1.0,
                "AMG strength threshold theta must be in [0, 1)");
    MGKO_ENSURE(params_.max_levels >= 1, "AMG needs at least one level");
    log::ScopedSpan setup_span{nullptr, exec_.get(), "amg.setup"};

    levels_.push_back(level{});
    levels_.back().op = fine;
    // One stored diagonal per level, shared by aggregation, the
    // prolongation smoother and the inverted diagonal below.
    std::vector<std::vector<double>> diagonals;
    while (num_levels() < params_.max_levels &&
           levels_.back().op->get_size().rows > params_.min_coarse_rows) {
        auto& fine_level = levels_.back();
        const auto* a = fine_level.op.get();
        const auto n = a->get_size().rows;

        // Strength filter + greedy aggregation run as one host-side
        // operation so setup work is attributed in the profiler like any
        // other kernel.
        std::vector<IndexType> agg;
        std::vector<unsigned char> strong;
        size_type num_agg = 0;
        {
            log::ScopedSpan span{nullptr, exec_.get(), "amg.setup.aggregate"};
            diagonals.push_back(stored_diagonal(a));
            strong = strength_mask(a, diagonals.back(), params_.theta);
            exec_->run("amg_aggregate", [&](const Executor* e) {
                num_agg = aggregate_rows(a, strong, agg);
                kernels::tick(
                    e,
                    sim::profile_stream(
                        static_cast<double>(a->get_num_stored_elements()) *
                            (sizeof(ValueType) + sizeof(IndexType)) * 2.0,
                        4.0 *
                            static_cast<double>(a->get_num_stored_elements()),
                        0.6));
            });
        }
        if (num_agg * 10 > n * 9) {
            // Aggregation stalled (less than 10% reduction): deeper levels
            // would near-replicate this one and blow up the operator
            // complexity; stop and let the bottom solver handle this level.
            break;
        }

        {
            log::ScopedSpan span{nullptr, exec_.get(),
                                 "amg.setup.prolongation"};
            // Tentative piecewise-constant prolongation T[i, agg[i]] = 1,
            // one entry per row.
            auto tentative = Csr<ValueType, IndexType>::create(
                exec_, dim2{n, num_agg}, n);
            auto* t_ptrs = tentative->get_row_ptrs();
            std::iota(t_ptrs, t_ptrs + n + 1, IndexType{});
            std::copy(agg.begin(), agg.end(), tentative->get_col_idxs());
            std::fill_n(tentative->get_values(), n, one<ValueType>());

            if (params_.smoothed_prolongation) {
                auto smoother =
                    prolongation_smoother(a, diagonals.back(), strong);
                fine_level.prolong = spgemm(smoother.get(), tentative.get());
            } else {
                fine_level.prolong = std::move(tentative);
            }
            fine_level.restrict_op = fine_level.prolong->transpose();
        }

        // Galerkin coarse operator A_c = R (A P).
        log::ScopedSpan span{nullptr, exec_.get(), "amg.setup.galerkin"};
        auto ap = spgemm(a, fine_level.prolong.get());
        auto coarse = spgemm(fine_level.restrict_op.get(), ap.get());
        levels_.push_back(level{});
        levels_.back().op = std::move(coarse);
    }

    if (diagonals.size() < levels_.size()) {
        diagonals.push_back(stored_diagonal(levels_.back().op.get()));
    }
    for (size_type k = 0; k < num_levels(); ++k) {
        levels_[k].cycle_span = "amg.cycle.level" + std::to_string(k);
        levels_[k].inv_diag = inverted_diagonal<ValueType>(
            exec_, diagonals[static_cast<std::size_t>(k)]);
    }
    const auto& coarsest = levels_.back().op;
    if (coarsest->get_size().rows <=
        solver::Direct<ValueType, IndexType>::max_dimension) {
        log::ScopedSpan span{nullptr, exec_.get(), "amg.setup.coarse_solver"};
        coarse_solver_ = solver::Direct<ValueType, IndexType>::build_on(exec_)
                             ->generate(coarsest);
    }
}


template <typename ValueType, typename IndexType>
double Hierarchy<ValueType, IndexType>::operator_complexity() const
{
    double total = 0.0;
    for (const auto& l : levels_) {
        total += static_cast<double>(l.op->get_num_stored_elements());
    }
    const auto fine_nnz =
        static_cast<double>(levels_.front().op->get_num_stored_elements());
    return fine_nnz > 0.0 ? total / fine_nnz : 1.0;
}


template <typename ValueType, typename IndexType>
void Hierarchy<ValueType, IndexType>::smooth(size_type lvl,
                                             const Dense<ValueType>* b,
                                             Dense<ValueType>* x,
                                             bool backward, bool x_zero) const
{
    const auto& l = levels_[lvl];
    const auto n = l.op->get_size().rows;
    const auto* inv_diag = l.inv_diag->get_const_values();
    const auto* bv = b->get_const_values();
    const auto b_stride = b->get_stride();
    auto* xv = x->get_values();
    const auto x_stride = x->get_stride();

    if (params_.smoother == smoother_type::jacobi) {
        // x += w * D^{-1} (b - A x), with the SpMV charged by Csr::apply
        // and the fused update charged here.  From x = 0 the sweep is
        // x = 0 + w * D^{-1} (b - 0): the same arithmetic with A * 0 and x
        // read as the zeros they are, so neither is computed nor loaded.
        const ValueType* tv = nullptr;
        if (!x_zero) {
            auto* tmp =
                workspace_.vec(slots_per_level * lvl + ws_tmp, dim2{n, 1});
            l.op->apply(x, tmp);
            tv = tmp->get_const_values();
        }
        const auto w = params_.jacobi_weight;
        exec_->run("amg_jacobi_relax", [&](const Executor* e) {
            const int nt = e->real_threads();
            if (x_zero) {
                kernels::parallel_for(nt, n, [=](size_type i) {
                    auto xi = zero<ValueType>();
                    xi += static_cast<ValueType>(w * to_float(inv_diag[i]) *
                                                 to_float(bv[i * b_stride]));
                    xv[i * x_stride] = xi;
                });
            } else {
                kernels::parallel_for(nt, n, [=](size_type i) {
                    xv[i * x_stride] += static_cast<ValueType>(
                        w * to_float(inv_diag[i]) *
                        (to_float(bv[i * b_stride]) - to_float(tv[i])));
                });
            }
            // From zero only b and 1/a_ii are read and x written, and the
            // subtraction is gone.
            const double streams = x_zero ? 3.0 : 4.0;
            kernels::tick(
                e, sim::profile_stream(
                       streams * static_cast<double>(n) * sizeof(ValueType),
                       streams * static_cast<double>(n), 0.9));
        });
        return;
    }

    // Gauss-Seidel: x_i = inv_diag_i * (b_i - sum_{j != i} a_ij x_j), swept
    // forward before and backward after coarse correction so the cycle
    // stays symmetric.  The row recurrence is sequential by construction,
    // so every backend runs the serial loop (the cost model still charges
    // the streamed matrix traffic).
    const auto* row_ptrs = l.op->get_const_row_ptrs();
    const auto* col_idxs = l.op->get_const_col_idxs();
    const auto* values = l.op->get_const_values();
    exec_->run("amg_gauss_seidel", [&](const Executor* e) {
        for (size_type step = 0; step < n; ++step) {
            const auto row = backward ? n - 1 - step : step;
            double acc = to_float(bv[row * b_stride]);
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                const auto col = static_cast<size_type>(col_idxs[k]);
                if (col != row) {
                    acc -= to_float(values[k]) * to_float(xv[col * x_stride]);
                }
            }
            xv[row * x_stride] =
                static_cast<ValueType>(to_float(inv_diag[row]) * acc);
        }
        kernels::tick(
            e, sim::profile_stream(
                   static_cast<double>(l.op->get_num_stored_elements()) *
                           (sizeof(ValueType) + sizeof(IndexType)) +
                       3.0 * static_cast<double>(n) * sizeof(ValueType),
                   2.0 * static_cast<double>(l.op->get_num_stored_elements()),
                   0.7));
    });
}


template <typename ValueType, typename IndexType>
void Hierarchy<ValueType, IndexType>::run_level(
    size_type lvl, const Dense<ValueType>* b, Dense<ValueType>* x,
    const log::EnableLogging* owner, bool x_zero) const
{
    log::ScopedSpan span{owner, exec_.get(), levels_[lvl].cycle_span.c_str()};
    const auto& l = levels_[lvl];
    const auto n = l.op->get_size().rows;
    const bool coarsest = lvl + 1 == num_levels();

    if (coarsest && coarse_solver_) {
        // The direct solve overwrites x without reading it.
        coarse_solver_->apply(b, x);
        return;
    }
    // From zero, the first Jacobi pre-sweep writes x; any other first
    // relaxation reads x, so it is zeroed here.
    const bool sweep_from_zero = x_zero &&
                                 params_.smoother == smoother_type::jacobi &&
                                 params_.pre_sweeps > 0;
    if (x_zero && !sweep_from_zero) {
        x->fill(zero<ValueType>());
    }
    if (coarsest) {
        // Coarsest level too large to densify: relax instead.
        for (size_type s = 0; s < 2 * (params_.pre_sweeps +
                                       params_.post_sweeps);
             ++s) {
            smooth(lvl, b, x, s % 2 == 1, sweep_from_zero && s == 0);
        }
        return;
    }

    for (size_type s = 0; s < params_.pre_sweeps; ++s) {
        smooth(lvl, b, x, false, sweep_from_zero && s == 0);
    }

    const auto base = slots_per_level * lvl;
    auto* one_s = workspace_.scalar(slots_per_level * levels_.size(), 1.0);
    auto* neg_one_s =
        workspace_.scalar(slots_per_level * levels_.size() + 1, -1.0);
    auto* r = workspace_.vec(base + ws_r, dim2{n, 1});
    r->copy_from(b);
    l.op->apply(neg_one_s, x, one_s, r);

    const auto nc = l.restrict_op->get_size().rows;
    auto* coarse_b = workspace_.vec(base + ws_coarse_b, dim2{nc, 1});
    auto* coarse_x = workspace_.vec(base + ws_coarse_x, dim2{nc, 1});
    l.restrict_op->apply(r, coarse_b);
    run_level(lvl + 1, coarse_b, coarse_x, owner, true);
    // x += P x_c
    l.prolong->apply(one_s, coarse_x, one_s, x);

    for (size_type s = 0; s < params_.post_sweeps; ++s) {
        smooth(lvl, b, x, true, false);
    }
}


template <typename ValueType, typename IndexType>
void Hierarchy<ValueType, IndexType>::cycle(
    const Dense<ValueType>* b, Dense<ValueType>* x,
    const log::EnableLogging* owner) const
{
    run_cycle(b, x, owner, false);
}


template <typename ValueType, typename IndexType>
void Hierarchy<ValueType, IndexType>::run_cycle(
    const Dense<ValueType>* b, Dense<ValueType>* x,
    const log::EnableLogging* owner, bool x_zero) const
{
    MGKO_ENSURE(b != nullptr && x != nullptr,
                "AMG cycle requires non-null vectors");
    MGKO_ENSURE(b->get_size() == x->get_size() &&
                    b->get_size().rows == levels_.front().op->get_size().rows,
                "AMG cycle vectors must match the fine system");
    if (b->get_size().cols != 1) {
        MGKO_NOT_SUPPORTED("AMG cycles support a single right-hand side");
    }
    run_level(0, b, x, owner, x_zero);
}


#define MGKO_DECLARE_AMG_HIERARCHY(ValueType, IndexType) \
    template class Hierarchy<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_AMG_HIERARCHY);


}  // namespace mgko::multigrid
