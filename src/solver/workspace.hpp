// Persistent per-solver workspace (mirrors gko::solver::workspace).
//
// Every iterative solver owns one Workspace and draws all of its Krylov
// temporaries (r, z, p, q, the GMRES basis and Hessenberg/Givens storage,
// scalar coefficients) from it by slot id.  A slot is allocated on first
// use and reused verbatim by every later apply(); it is only reallocated
// when the requested dimensions change (i.e. the solver was pointed at a
// differently-sized system or right-hand side).  Together with the pooled
// executor allocator this makes steady-state solver iteration
// allocation-free: the second apply() on the same system performs zero new
// executor allocations (see DESIGN.md §"Persistent solver workspaces").
//
// Like Ginkgo's, an apply() that uses a workspace is not reentrant: two
// threads must not apply() the same solver instance concurrently (already
// the case before workspaces — the convergence logger is shared state).
#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "matrix/dense.hpp"

namespace mgko::solver {


template <typename ValueType>
class Workspace {
public:
    explicit Workspace(std::shared_ptr<const Executor> exec)
        : exec_{std::move(exec)}
    {}

    /// The dense matrix in slot `id`, created (or recreated) only when the
    /// slot is empty or its dimensions differ from `size`.  Contents are
    /// unspecified on (re)creation and persist across apply() calls
    /// otherwise.
    Dense<ValueType>* vec(std::size_t id, dim2 size)
    {
        if (id >= vecs_.size()) {
            vecs_.resize(id + 1);
        }
        auto& slot = vecs_[id];
        if (!slot || slot->get_size() != size) {
            slot = Dense<ValueType>::create(exec_, size);
        }
        return slot.get();
    }

    /// A 1x1 coefficient in slot `id` with `value` written host-side (no
    /// fill kernel — solvers fold scalar updates into their vector kernels,
    /// as the real GPU kernels do).
    Dense<ValueType>* scalar(std::size_t id, double value)
    {
        auto* s = vec(id, dim2{1, 1});
        s->get_values()[0] = static_cast<ValueType>(value);
        return s;
    }

    /// A persistent host-side double buffer of exactly `size` elements
    /// (GMRES Hessenberg/Givens state).  Contents persist across calls
    /// when the size is unchanged; they are NOT zeroed — callers
    /// reinitialize what they read.  The returned reference stays valid
    /// across later host() calls (deque-backed: growing the slot table
    /// never relocates existing slots).
    std::vector<double>& host(std::size_t id, std::size_t size)
    {
        if (id >= host_.size()) {
            host_.resize(id + 1);
        }
        host_[id].resize(size);
        return host_[id];
    }

    std::shared_ptr<const Executor> get_executor() const { return exec_; }

private:
    std::shared_ptr<const Executor> exec_;
    std::vector<std::unique_ptr<Dense<ValueType>>> vecs_;
    std::deque<std::vector<double>> host_;
};


namespace detail {

/// Size-keyed single-slot cache for the advanced-apply temporary and the
/// preconditioner intermediates: reuses `slot` while the requested
/// dimensions match, reallocates otherwise.
template <typename ValueType>
Dense<ValueType>* ensure_vec(std::unique_ptr<Dense<ValueType>>& slot,
                             const std::shared_ptr<const Executor>& exec,
                             dim2 size)
{
    if (!slot || slot->get_size() != size) {
        slot = Dense<ValueType>::create(exec, size);
    }
    return slot.get();
}

}  // namespace detail


/// The advanced apply x = alpha * op(b) + beta * x of every solver and
/// preconditioner: the plain apply writes op(b) into a cached x-sized
/// temporary, then x = beta * x + alpha * tmp.  An iterative solver reads
/// x as its initial guess, so it sets `SeedFromX` and the temporary starts
/// as a copy of x.
template <typename ValueType, bool SeedFromX = false>
class EnableAdvancedApply : public LinOp {
protected:
    using LinOp::LinOp;
    using LinOp::apply_impl;

    void apply_impl(const LinOp* alpha, const LinOp* b, const LinOp* beta,
                    LinOp* x) const override
    {
        auto dense_x = as_dense<ValueType>(x);
        auto* tmp = detail::ensure_vec(adv_tmp_, this->get_executor(),
                                       dense_x->get_size());
        if constexpr (SeedFromX) {
            tmp->copy_from(dense_x);
        }
        this->apply_impl(b, tmp);
        dense_x->scale(as_dense<ValueType>(beta));
        dense_x->add_scaled(as_dense<ValueType>(alpha), tmp);
    }

private:
    /// Kept apart from any solver workspace, whose slots the nested plain
    /// apply uses.
    mutable std::unique_ptr<Dense<ValueType>> adv_tmp_;
};


}  // namespace mgko::solver
