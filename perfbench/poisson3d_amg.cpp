// poisson3d_amg: the HPC library path.  One 48^3 7-point Poisson operator
// (110 592 rows) goes through config::generate_solver once with CG + AMG,
// then a seeded stream of right-hand sides goes through
// config::apply_solver from one caller on an nproc-thread OmpExecutor.
// Nearly all of an op's time is inside kernel bodies, so kernel and
// multigrid changes show here while per-call overhead changes should not.
#include <algorithm>
#include <random>

#include "config/config_solver.hpp"
#include "core/executor.hpp"
#include "matgen/matgen.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/sellcs.hpp"
#include "matrix/spgemm.hpp"
#include "multigrid/amg_hierarchy.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mgko;

constexpr size_type grid = 48;
/// theta 0.02 as bench_amg configures 3-D problems: the default 0.08
/// stalls this operator at two levels (see NOTES.md).
constexpr double amg_theta = 0.02;
constexpr double reduction = 1e-8;
/// The solver stops on its recurrence residual; the true residual the
/// benchmark recomputes may drift above it by a small factor.
constexpr double residual_limit = 10 * reduction;

/// CG + AMG to a 1e-8 reduction; theta is set from amg_theta.
const char* config_text = R"({
    "type": "solver::Cg", "max_iters": 500, "reduction_factor": 1e-8,
    "preconditioner": {"type": "preconditioner::Amg"}
})";

config::Json make_config()
{
    auto config = config::Json::parse(config_text);
    config["preconditioner"]["theta"] = config::Json{amg_theta};
    return config;
}


class Poisson3dAmg : public Workload {
public:
    explicit Poisson3dAmg(std::uint64_t seed)
        : seed_{seed},
          config_{make_config()},
          data_{matgen::stencil_3d_7pt(grid, grid, grid)},
          host_a_{data_},
          exec_{OmpExecutor::create(num_cores())}
    {}

    void describe(Report& report) const override
    {
        report.meta("poisson3d_amg.rows", static_cast<double>(data_.size.rows));
        report.meta("poisson3d_amg.nnz",
                    static_cast<double>(data_.num_stored()));
        report.meta("poisson3d_amg.executor_threads",
                    static_cast<double>(exec_->real_threads()));
        report.meta("poisson3d_amg.working_set_mib",
                    static_cast<double>(data_.num_stored()) * 12.0 / 1048576.0);
    }

    SetupSample setup(Report&) override
    {
        solver_.reset();
        ScopedSpan span{"config.generate_solver"};
        const SetupTimer timer;
        solver_ = config::generate_solver(config_, exec_, data_);
        return timer.stop();
    }

    void run(Report& report, double seconds, bool traced,
             const Between& between) override
    {
        std::mt19937_64 engine{seed_};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        std::vector<double> rhs(static_cast<std::size_t>(host_a_.rows));
        StealMeter steal;
        auto samples = single_caller_loop(
            seconds, traced, steal, [&](std::uint64_t op) {
                for (auto& v : rhs) {
                    v = dist(engine);
                }
                OpSample sample;
                config::solve_report result;
                {
                    CounterDelta delta{*exec_};
                    ScopedSpan span{"op.solve", op};
                    const double t0 = now_s();
                    {
                        ScopedSpan inner{"config.apply_solver"};
                        result = config::apply_solver(config_, exec_,
                                                      solver_.get(), rhs);
                    }
                    sample.seconds = now_s() - t0;
                    delta.finish(sample);
                }
                Tracer::get().counters(
                    "solver", {{"iterations",
                                static_cast<double>(result.iterations)}});
                report.op(check(result, rhs));
                return sample;
            },
            between);
        if (traced) {
            report_traced_loop(report, samples);
        } else {
            report_end_to_end(report, samples, steal);
        }
    }

    void probe(Report& report) override
    {
        const auto data32 = data_.cast<double, int32>();
        const auto n = static_cast<size_type>(host_a_.rows);
        const double nnz = static_cast<double>(data32.num_stored());
        auto a = std::shared_ptr<Csr<double, int32>>{
            Csr<double, int32>::create_from_data(exec_, data32)};
        auto b = Dense<double>::create_filled(exec_, dim2{n, 1}, 1.0);
        auto x = Dense<double>::create_filled(exec_, dim2{n, 1}, 0.0);

        // CSR SpMV: 2 flops per stored entry; bytes computed from the
        // array sizes (values + column indices + row pointers + x + y).
        const double bytes = nnz * (8.0 + 4.0) + (n + 1) * 4.0 + 2.0 * n * 8.0;
        const auto spmv_seconds = [&](const LinOp& op, const Executor& exec,
                                      int reps) {
            for (int r = 0; r < 3; ++r) {
                op.apply(b.get(), x.get());
            }
            ScopedSpan span{"probe.spmv"};
            return median(time_reps(reps, [&] {
                op.apply(b.get(), x.get());
                exec.synchronize();
            }));
        };
        const double t_csr = spmv_seconds(*a, *exec_, 200);
        report.metric("matrix.spmv_csr_gflops", 2.0 * nnz / t_csr / 1e9,
                      "GFLOP/s", 200);
        report.metric("matrix.spmv_computed_gbps", bytes / t_csr / 1e9,
                      "GB/s", 200);
        {
            auto exec1 = OmpExecutor::create(1);
            auto a1 = Csr<double, int32>::create_from_data(exec1, data32);
            auto b1 = Dense<double>::create_filled(exec1, dim2{n, 1}, 1.0);
            auto x1 = Dense<double>::create_filled(exec1, dim2{n, 1}, 0.0);
            a1->apply(b1.get(), x1.get());
            ScopedSpan span{"probe.spmv_1t"};
            const double t1 = median(time_reps(
                60, [&] { a1->apply(b1.get(), x1.get()); }));
            report.metric("matrix.spmv_csr_gflops_1t", 2.0 * nnz / t1 / 1e9,
                          "GFLOP/s", 60);
        }
        {
            auto sell = SellCs<double, int32>::create_from_data(exec_, data32);
            const double t_sell = spmv_seconds(*sell, *exec_, 200);
            report.metric("matrix.spmv_sellcs_gflops",
                          2.0 * nnz / t_sell / 1e9, "GFLOP/s", 200);
        }

        multigrid::amg_parameters params;
        params.theta = amg_theta;
        std::unique_ptr<multigrid::Hierarchy<double, int32>> hierarchy;
        {
            ScopedSpan span{"probe.multigrid.setup"};
            const double t0 = now_s();
            hierarchy = std::make_unique<multigrid::Hierarchy<double, int32>>(
                exec_, params, a);
            report.metric("multigrid.setup_s", now_s() - t0, "s");
        }
        report.metric("multigrid.levels",
                      static_cast<double>(hierarchy->num_levels()), "count");
        report.metric("multigrid.operator_complexity",
                      hierarchy->operator_complexity(), "ratio");
        if (hierarchy->num_levels() > 1) {
            const auto* p = hierarchy->get_level(0).prolong.get();
            ScopedSpan span{"probe.spgemm"};
            const auto t = time_reps(5, [&] { spgemm(a.get(), p); });
            report.metric("matrix.spgemm_ms", median(t) * 1e3, "ms", 5);
        } else {
            report.fail("AMG hierarchy has a single level; no prolongation");
        }
        {
            ScopedSpan span{"probe.vcycle"};
            x->fill(0.0);
            const auto t =
                time_reps(20, [&] { hierarchy->cycle(b.get(), x.get()); });
            report.metric("multigrid.vcycle_ms", median(t) * 1e3, "ms", 20);
        }

        // Solver: iterations and time per iteration of the workload's own
        // configured solve, on seeded right-hand sides.
        std::mt19937_64 engine{seed_ ^ 0x5eedULL};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        std::vector<double> rhs(static_cast<std::size_t>(n));
        std::vector<double> iterations;
        std::vector<double> per_iteration;
        for (int r = 0; r < 5; ++r) {
            for (auto& v : rhs) {
                v = dist(engine);
            }
            ScopedSpan span{"probe.solve"};
            const double t0 = now_s();
            const auto result =
                config::apply_solver(config_, exec_, solver_.get(), rhs);
            const double t = now_s() - t0;
            const auto failure = check(result, rhs);
            if (!failure.empty()) {
                report.fail(failure);
            }
            iterations.push_back(static_cast<double>(result.iterations));
            per_iteration.push_back(
                t / std::max<double>(1.0, result.iterations));
        }
        report.metric("solver.iterations", median(iterations), "count", 5);
        report.metric("solver.ms_per_iteration", median(per_iteration) * 1e3,
                      "ms", 5);
    }

private:
    std::string check(const config::solve_report& result,
                      const std::vector<double>& rhs) const
    {
        if (!result.converged) {
            return "poisson3d_amg: solve did not converge (" +
                   result.stop_reason + ")";
        }
        const double res = relative_residual(host_a_, rhs, result.solution);
        if (!(res <= residual_limit)) {
            return "poisson3d_amg: residual " + std::to_string(res) +
                   " above " + std::to_string(residual_limit);
        }
        return {};
    }

    std::uint64_t seed_;
    config::Json config_;
    data64 data_;
    HostCsr host_a_;
    std::shared_ptr<OmpExecutor> exec_;
    std::unique_ptr<LinOp> solver_;
};

}  // namespace


std::unique_ptr<Workload> make_poisson3d_amg(std::uint64_t seed,
                                             const std::string&)
{
    return std::make_unique<Poisson3dAmg>(seed);
}


}  // namespace perfbench
