// The paper's Listing 2: the generic config-solver entry point.  A
// Python-style dictionary selects solver, criteria, preconditioner, and
// types at run time; it is serialized to JSON in memory and dispatched
// through the same pre-instantiated bindings — no recompilation, no
// temporary files (paper §5).
#include <cstdio>
#include <string>

#include "bindings/api.hpp"
#include "config/json.hpp"
#include "matgen/matgen.hpp"

namespace pg = mgko::bind;
using mgko::config::Json;
using mgko::dim2;

int main()
{
    auto dev = pg::device("cuda");
    auto mtx = pg::matrix_from_data(
        dev, mgko::matgen::stencil_2d_5pt(64, 64), "double", "Csr");
    const auto n = mtx.shape().rows;

    // The dictionary of Listing 2: GMRES, Krylov dimension 30, Jacobi
    // preconditioner with block size 1, 1000 iterations or 1e-6 reduction.
    auto cfg = Json::parse(R"({
        "type": "solver::Gmres",
        "value_type": "float64",
        "krylov_dim": 30,
        "criteria": [
            {"type": "stop::Iteration", "max_iters": 1000},
            {"type": "stop::ResidualNorm", "reduction_factor": 1e-06}
        ],
        "preconditioner": {
            "type": "preconditioner::Jacobi",
            "max_block_size": 1
        }
    })");
    std::printf("config dictionary:\n%s\n\n", cfg.dump(2).c_str());

    auto b = pg::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    auto x = pg::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    auto [logger, result] = pg::solve(dev, mtx, b, x, cfg);
    std::printf("GMRES+Jacobi: converged=%s iterations=%lld residual=%.3e\n",
                logger.converged() ? "yes" : "no",
                static_cast<long long>(logger.num_iterations()),
                logger.final_residual_norm());

    // Run-time experimentation, the point of the config interface: swap
    // the solver and preconditioner without touching any binding code.
    // Config blocks are strict — each type only accepts the keys it reads —
    // so the sweep drops GMRES's "krylov_dim", which CG and BiCGStab would
    // reject, and replaces the whole preconditioner block instead of
    // mutating the Jacobi one (whose "max_block_size" Ic/AMG would reject).
    cfg.mutable_items().erase("krylov_dim");
    for (const char* solver_type : {"solver::Cg", "solver::Bicgstab"}) {
        for (const char* precond : {"preconditioner::Ic",
                                    "preconditioner::Jacobi", "amg"}) {
            cfg["type"] = Json{solver_type};
            cfg["preconditioner"] = Json::parse(
                std::string{R"({"type": ")"} + precond + R"("})");
            auto x2 = pg::as_tensor(dev, dim2{n, 1}, "double", 0.0);
            auto [log2, res2] = pg::solve(dev, mtx, b, x2, cfg);
            std::printf("%-18s + %-24s: iterations=%4lld residual=%.3e\n",
                        solver_type, precond,
                        static_cast<long long>(log2.num_iterations()),
                        log2.final_residual_norm());
        }
    }
    return 0;
}
