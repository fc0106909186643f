// Figure 3c — iterative solvers on the (simulated) NVIDIA A100: pyGinkgo's
// speedup relative to CuPy for CG, CGS, and GMRES at a fixed iteration
// budget (the paper uses 1000 iterations and reports time per iteration,
// since many SuiteSparse systems do not converge unpreconditioned), double
// precision, over the 40-matrix solver suite.
//
// Paper claims to reproduce in shape:
//   * CGS shows the largest speedup (up to ~4x), strongest at low nnz
//   * CG a moderate ~2.5x across a wide nnz range
//   * speedups decrease as nnz grows (kernel-bound regime)
//   * GMRES: CuPy slightly faster (host-side Hessenberg least squares,
//     restart-only residual checks vs Ginkgo's per-update checks)
//
// MGKO_SOLVER_ITERS scales the iteration budget (default 50; the paper's
// 1000 produces identical per-iteration numbers but a long serial run on
// this one-core build host).
//
// MGKO_TELEMETRY_PORT / MGKO_SOLVE_PORT start the live endpoints for the
// length of the run (README, "Production telemetry" and
// "Solve-as-a-service").
#include <cstdio>

#include "baselines/baselines.hpp"
#include "bench/common/harness.hpp"
#include "serve/solve_server.hpp"
#include "sim/machine_model.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
#include "solver/gmres.hpp"
#include "stop/criterion.hpp"

using namespace mgko;

namespace {

/// Runs an mgko solver for a fixed iteration count; returns simulated
/// seconds per iteration.
template <typename SolverType>
double mgko_seconds_per_iter(std::shared_ptr<Executor> exec,
                             std::shared_ptr<Csr<double, int32>> mat,
                             size_type iters, size_type krylov_dim = 30)
{
    auto builder = SolverType::build();
    builder.with_criteria(stop::iteration(iters));
    builder.with_krylov_dim(krylov_dim);
    auto solver = builder.on(exec)->generate(mat);
    const auto n = mat->get_size().rows;
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    sim::SimStopwatch watch{exec->clock()};
    solver->apply(b.get(), x.get());
    auto logger = dynamic_cast<SolverType*>(solver.get())->get_logger();
    return watch.elapsed_seconds() /
           static_cast<double>(std::max<size_type>(logger->num_iterations(), 1));
}

}  // namespace

int main()
{
    serve::start_from_env();
    auto device = CudaExecutor::create();
    const auto iters = static_cast<size_type>(
        sim::env_override("MGKO_SOLVER_ITERS", 50.0));

    auto suite = matgen::solver_suite();
    std::sort(suite.begin(), suite.end(), [](const auto& a, const auto& b) {
        return a.nnz_estimate < b.nnz_estimate;
    });

    bench::MatrixCache cache;
    bench::CsvBlock csv{"fig3c", {"matrix", "nnz", "speedup_cg",
                                  "speedup_cgs", "speedup_gmres"}};
    std::vector<double> sp_cg, sp_cgs, sp_gmres;
    std::vector<double> sp_cgs_small, sp_cgs_large;

    std::printf("Figure 3c: solver time/iteration speedup vs CuPy on %s, "
                "float64, %lld-iteration budget\n",
                device->name().c_str(), static_cast<long long>(iters));
    const auto cupy_fw = baselines::cupy();
    for (const auto& s : suite) {
        const auto& data = cache.get(s);
        const auto nnz = data.num_stored();
        auto mat = std::shared_ptr<Csr<double, int32>>{
            Csr<double, int32>::create_from_data(device,
                                                 data.cast<double, int32>())};
        const auto n = mat->get_size().rows;

        auto cupy_per_iter = [&](auto solver_fn) {
            auto b = Dense<double>::create_filled(device, dim2{n, 1}, 1.0);
            auto x = Dense<double>::create_filled(device, dim2{n, 1}, 0.0);
            sim::SimStopwatch watch{device->clock()};
            auto stats = solver_fn(b.get(), x.get());
            return watch.elapsed_seconds() /
                   static_cast<double>(
                       std::max<size_type>(stats.iterations, 1));
        };

        const double t_pg_cg =
            mgko_seconds_per_iter<solver::Cg<double>>(device, mat, iters);
        const double t_cupy_cg =
            cupy_per_iter([&](Dense<double>* b, Dense<double>* x) {
                return baselines::cg(cupy_fw, mat.get(), b, x, iters, 1e-300);
            });
        const double t_pg_cgs =
            mgko_seconds_per_iter<solver::Cgs<double>>(device, mat, iters);
        const double t_cupy_cgs =
            cupy_per_iter([&](Dense<double>* b, Dense<double>* x) {
                return baselines::cgs(cupy_fw, mat.get(), b, x, iters,
                                      1e-300);
            });
        const double t_pg_gmres = mgko_seconds_per_iter<solver::Gmres<double>>(
            device, mat, iters, 30);
        const double t_cupy_gmres =
            cupy_per_iter([&](Dense<double>* b, Dense<double>* x) {
                return baselines::gmres(cupy_fw, mat.get(), b, x, iters,
                                        1e-300, 30);
            });

        const double s_cg = t_cupy_cg / t_pg_cg;
        const double s_cgs = t_cupy_cgs / t_pg_cgs;
        const double s_gmres = t_cupy_gmres / t_pg_gmres;
        sp_cg.push_back(s_cg);
        sp_cgs.push_back(s_cgs);
        sp_gmres.push_back(s_gmres);
        (nnz < 500000 ? sp_cgs_small : sp_cgs_large).push_back(s_cgs);

        csv.add_row({s.name, std::to_string(nnz), bench::fmt(s_cg),
                     bench::fmt(s_cgs), bench::fmt(s_gmres)});
    }
    csv.print();

    std::printf("\nspeedup vs CuPy (geomean): CG %.2fx | CGS %.2fx | GMRES "
                "%.2fx\n",
                bench::geomean(sp_cg), bench::geomean(sp_cgs),
                bench::geomean(sp_gmres));
    bench::check_shape(
        "CGS achieves the highest speedup, up to ~4x at low nnz",
        bench::geomean(sp_cgs) > bench::geomean(sp_cg) &&
            bench::max_of(sp_cgs) > 2.0 && bench::max_of(sp_cgs) < 8.0,
        "CGS geomean " + bench::fmt(bench::geomean(sp_cgs)) + "x, max " +
            bench::fmt(bench::max_of(sp_cgs)) + "x");
    bench::check_shape(
        "CG offers a moderate ~2.5x speedup",
        bench::geomean(sp_cg) > 1.3 && bench::geomean(sp_cg) < 4.5,
        "CG geomean " + bench::fmt(bench::geomean(sp_cg)) + "x");
    bench::check_shape(
        "speedup decreases with growing nnz",
        bench::geomean(sp_cgs_small) > bench::geomean(sp_cgs_large),
        "CGS small-nnz geomean " + bench::fmt(bench::geomean(sp_cgs_small)) +
            "x vs large-nnz " + bench::fmt(bench::geomean(sp_cgs_large)) +
            "x");
    bench::check_shape(
        "GMRES: CuPy slightly faster than pyGinkgo",
        bench::geomean(sp_gmres) < 1.1,
        "GMRES geomean " + bench::fmt(bench::geomean(sp_gmres)) + "x");
    return 0;
}
