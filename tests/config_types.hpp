// The config types and keys that config::parse_factory and
// config::parse_batch_factory accept, written out here apart from
// src/config: the table and alias tests (test_config.cpp) check the
// library against these sets, and the config fuzz (test_text_fuzz.cpp)
// draws its mutations from them.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mgko::test {


struct config_type {
    /// "solver", "preconditioner", "batched solver", "batched
    /// preconditioner" or "criterion".
    std::string slot;
    /// The canonical type name first, then every other accepted alias.
    std::vector<std::string> aliases;
    /// Every key the type reads.
    std::vector<std::string> keys;
};


inline std::vector<config_type> config_types()
{
    using keys = std::vector<std::string>;
    const auto with = [](keys set, const keys& more) {
        set.insert(set.end(), more.begin(), more.end());
        return set;
    };
    const keys solver{"type",    "value_type", "index_type",    "format",
                      "reorder", "slice_size", "sorting_window"};
    const keys criteria{"criteria", "max_iters", "reduction_factor",
                        "baseline"};
    const keys hierarchy{"theta",      "max_levels",  "min_coarse_rows",
                         "smoother",   "pre_sweeps",  "post_sweeps",
                         "smoothed_prolongation"};
    const auto krylov = with(with(solver, criteria), {"preconditioner"});
    const auto batched = with(
        criteria, {"type", "batch", "value_type", "index_type",
                   "preconditioner"});
    return {
        {"solver", {"solver::Cg", "Cg", "cg"}, krylov},
        {"solver", {"solver::Cgs", "Cgs", "cgs"}, krylov},
        {"solver", {"solver::Bicgstab", "Bicgstab", "bicgstab"}, krylov},
        {"solver", {"solver::Fcg", "Fcg", "fcg"}, krylov},
        {"solver", {"solver::Gmres", "Gmres", "gmres"},
         with(krylov, {"krylov_dim"})},
        {"solver", {"solver::Ir", "Ir", "ir", "richardson"},
         with(krylov, {"relaxation_factor", "inner_precision"})},
        {"solver", {"solver::Direct", "Direct", "direct"}, solver},
        {"solver", {"solver::LowerTrs", "LowerTrs"},
         with(solver, {"unit_diagonal"})},
        {"solver", {"solver::UpperTrs", "UpperTrs"},
         with(solver, {"unit_diagonal"})},
        {"solver", {"solver::Amg", "Amg", "amg", "multigrid::AmgSolver"},
         with(with(solver, criteria), hierarchy)},
        {"preconditioner", {"preconditioner::Jacobi", "Jacobi", "jacobi"},
         {"type", "max_block_size"}},
        {"preconditioner", {"preconditioner::Ilu", "Ilu", "ilu"}, {"type"}},
        {"preconditioner", {"preconditioner::Ic", "Ic", "ic"}, {"type"}},
        {"preconditioner",
         {"preconditioner::Amg", "Amg", "amg", "multigrid::Amg"},
         with(with({"type"}, hierarchy), {"cycles"})},
        {"batched solver", {"solver::Cg", "Cg", "cg", "batch::Cg"}, batched},
        {"batched solver",
         {"solver::Bicgstab", "Bicgstab", "bicgstab", "batch::Bicgstab"},
         batched},
        {"batched preconditioner",
         {"preconditioner::Jacobi", "Jacobi", "jacobi"},
         {"type"}},
        {"criterion", {"stop::Iteration", "Iteration"}, {"type", "max_iters"}},
        {"criterion", {"stop::ResidualNorm", "ResidualNorm"},
         {"type", "reduction_factor", "baseline"}},
    };
}


/// Every key of config_types(), each with the JSON text of a value that
/// every type reading it accepts.
inline std::map<std::string, std::string> config_key_values()
{
    return {{"baseline", "\"absolute\""},
            {"batch", "2"},
            {"criteria", R"([{"type": "stop::Iteration", "max_iters": 5}])"},
            {"cycles", "2"},
            {"format", "\"ell\""},
            {"index_type", "\"int32\""},
            {"inner_precision", "\"float\""},
            {"krylov_dim", "10"},
            {"max_block_size", "2"},
            {"max_iters", "5"},
            {"max_levels", "4"},
            {"min_coarse_rows", "8"},
            {"post_sweeps", "2"},
            {"pre_sweeps", "0"},
            {"preconditioner", R"({"type": "jacobi"})"},
            {"reduction_factor", "1e-8"},
            {"relaxation_factor", "0.9"},
            {"reorder", "\"rcm\""},
            {"slice_size", "8"},
            {"smoothed_prolongation", "false"},
            {"smoother", "\"gauss_seidel\""},
            {"sorting_window", "16"},
            {"theta", "0.1"},
            {"type", "\"cg\""},
            {"unit_diagonal", "true"},
            {"value_type", "\"double\""}};
}


}  // namespace mgko::test
