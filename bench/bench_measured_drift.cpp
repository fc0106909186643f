// Measured-performance drift bench (DESIGN.md §18): runs representative
// kernels with the hardware-counter tier enabled and emits one row per
// kernel tag joining the *measured* side (cycles / instructions / LLC
// misses / thread CPU time from log/hw_counters.hpp) against the
// *modeled* side (the flops/bytes the work model attributed to the same
// tag, read from a MetricsLogger's mgko_flops_total and
// mgko_work_bytes_total).  The `--drift` gate in
// bench_validate_observability checks the join stays within loose
// directional tolerances — the analytic work model becomes a tested
// artifact instead of an assumption.
//
//   bench_measured_drift [--mode auto|rusage]
//
// The mode defaults to MGKO_HW_COUNTERS when set ("rusage" forces the
// getrusage fallback rung so CI can exercise it where perf_event_open is
// available, and so the gate is deterministic where it is denied), else
// "auto".  The executor is a *single-threaded* OmpExecutor on purpose:
// counters are read on the dispatching thread, and with one thread that
// thread performs all of the kernel's work, so measured instructions and
// CPU time are directly comparable to the tag's modeled flops.
//
// Exits nonzero when the measurement plumbing itself is broken (no tags
// accumulated, zero CPU time); the numeric tolerance bands live in the
// validator so the committed JSON can be re-checked without re-running.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common/harness.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"

using namespace mgko;

int main(int argc, char** argv)
{
    std::string mode;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--mode") == 0) {
            mode = argv[i + 1];
        }
    }
    if (mode.empty()) {
        const char* env = std::getenv("MGKO_HW_COUNTERS");
        mode = (env != nullptr && std::strcmp(env, "rusage") == 0)
                   ? "rusage"
                   : "auto";
    }
    log::hw_counters_enable(mode);
    log::hw_counters_reset();
    std::printf("measured drift: hw counter source '%s' (requested '%s')\n",
                log::hw_counters_source(), mode.c_str());

    // One dispatching thread == one measured thread (see header).
    auto exec = OmpExecutor::create(1);
    auto metrics = log::MetricsLogger::create();
    exec->add_logger(metrics);

    const bool smoke = std::getenv("MGKO_BENCH_SMOKE") != nullptr;
    const size_type grid = smoke ? 96 : 192;
    const int spmv_reps = smoke ? 120 : 400;

    auto data = matgen::stencil_2d_5pt(grid, grid);
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(exec,
                                             data.cast<double, int32>())};
    const auto n = a->get_size().rows;
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create(exec, dim2{n, 1});

    // Phase 1: raw SpMV — the bandwidth-bound tag.
    for (int r = 0; r < spmv_reps; ++r) {
        a->apply(b.get(), x.get());
    }

    // Phase 2: a CG solve — dots, axpys, and more SpMVs under their own
    // kernel tags.
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(smoke ? 150 : 400))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    x->fill(0.0);
    solver->apply(b.get(), x.get());
    exec->synchronize();

    const auto measured = log::hw_counters_snapshot();
    const auto& modeled = metrics->registry();

    bench::CsvBlock csv{
        "measured_drift",
        {"kernel", "count", "model_flops", "model_bytes", "cpu_ns",
         "wall_ns", "cycles", "instructions", "llc_misses", "gflops_proxy",
         "gbps_proxy", "cpu_wall_ratio", "source"}};
    std::size_t emitted = 0;
    double total_cpu_ns = 0.0;
    for (const auto& [tag, hw] : measured) {
        if (hw.count == 0) {
            continue;
        }
        // MetricsLogger keys operation series as "op.<kernel tag>".
        const double model_flops =
            modeled.counter_value("mgko_flops_total", "op." + tag);
        const double model_bytes =
            modeled.counter_value("mgko_work_bytes_total", "op." + tag);
        // The proxies divide modeled work by measured CPU time: flop/ns ==
        // GFLOP/s, byte/ns == GB/s.  Implausible values mean the model
        // and the measurement disagree — the drift the gate exists for.
        const double gflops_proxy =
            hw.cpu_ns > 0.0 ? model_flops / hw.cpu_ns : 0.0;
        const double gbps_proxy =
            hw.cpu_ns > 0.0 ? model_bytes / hw.cpu_ns : 0.0;
        const double cpu_wall_ratio =
            hw.wall_ns > 0.0 ? hw.cpu_ns / hw.wall_ns : 0.0;
        csv.add_row({tag, std::to_string(hw.count),
                     bench::fmt(model_flops, "%.6g"),
                     bench::fmt(model_bytes, "%.6g"),
                     bench::fmt(hw.cpu_ns, "%.6g"),
                     bench::fmt(hw.wall_ns, "%.6g"),
                     bench::fmt(hw.cycles, "%.6g"),
                     bench::fmt(hw.instructions, "%.6g"),
                     bench::fmt(hw.llc_misses, "%.6g"),
                     bench::fmt(gflops_proxy, "%.6g"),
                     bench::fmt(gbps_proxy, "%.6g"),
                     bench::fmt(cpu_wall_ratio, "%.4f"),
                     log::hw_counters_source()});
        total_cpu_ns += hw.cpu_ns;
        ++emitted;
    }
    csv.print();

    bench::check_shape("hw counter scopes accumulated kernel tags",
                       emitted >= 3,
                       std::to_string(emitted) + " tags measured");
    bench::check_shape("measured CPU time is nonzero",
                       total_cpu_ns > 0.0,
                       bench::fmt(total_cpu_ns * 1e-6, "%.3f") + " ms total");
    if (emitted < 3 || total_cpu_ns <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: measured tier produced no usable rows\n");
        return 1;
    }
    return 0;
}
