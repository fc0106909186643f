// Microbenchmarks (google-benchmark, real wall clock): the host-side costs
// of the binding layer measured on this machine — boxing, name mangling,
// registry dispatch under the GIL, JSON round trips, the end-to-end
// bound call, and the executor allocation path.  These are the *measured*
// components that CallProbe ticks onto the SimClock (DESIGN.md §2.1);
// everything here is genuine wall time, independent of the performance
// model.
//
// Allocation-sensitive benchmarks attach the executor's instrumentation to
// the timed region as counters: `sys_allocs` (num_allocations(), i.e. real
// system allocations), `pool_hits` and `pool_misses`.  A steady-state
// region should report sys_allocs == 0 — everything served from the pool
// or from persistent workspaces.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/common/harness.hpp"
#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "config/json.hpp"
#include "log/flight_recorder.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "serve/solve_server.hpp"
#include "solver/cg.hpp"
#include "solver/gmres.hpp"
#include "stop/criterion.hpp"

using namespace mgko;

namespace {

/// Snapshot of an executor's allocation instrumentation around a timed
/// region; report() publishes the deltas as benchmark counters.
class alloc_probe {
public:
    explicit alloc_probe(const Executor* exec)
        : exec_{exec},
          allocs_{exec->num_allocations()},
          hits_{exec->pool_hits()},
          misses_{exec->pool_misses()}
    {}

    void report(benchmark::State& state) const
    {
        state.counters["sys_allocs"] = static_cast<double>(
            exec_->num_allocations() - allocs_);
        state.counters["pool_hits"] =
            static_cast<double>(exec_->pool_hits() - hits_);
        state.counters["pool_misses"] =
            static_cast<double>(exec_->pool_misses() - misses_);
    }

private:
    const Executor* exec_;
    size_type allocs_;
    size_type hits_;
    size_type misses_;
};

/// 1D Laplacian stencil: the standard well-conditioned SPD bench system.
matrix_data<double, int32> laplacian_1d(size_type n)
{
    matrix_data<double, int32> data{dim2{n, n}};
    for (size_type i = 0; i < n; ++i) {
        if (i > 0) {
            data.entries.push_back({static_cast<int32>(i),
                                     static_cast<int32>(i - 1), -1.0});
        }
        data.entries.push_back(
            {static_cast<int32>(i), static_cast<int32>(i), 2.0});
        if (i + 1 < n) {
            data.entries.push_back({static_cast<int32>(i),
                                     static_cast<int32>(i + 1), -1.0});
        }
    }
    return data;
}

void BM_BoxedValueRoundTrip(benchmark::State& state)
{
    auto payload = std::make_shared<int>(42);
    for (auto _ : state) {
        auto v = bind::box("counter", payload);
        benchmark::DoNotOptimize(*v.as<int>("counter"));
    }
}
BENCHMARK(BM_BoxedValueRoundTrip);

void BM_ArgumentListBoxing(benchmark::State& state)
{
    auto exec = ReferenceExecutor::create();
    auto op = std::shared_ptr<LinOp>{
        Dense<double>::create(exec, dim2{16, 1})};
    for (auto _ : state) {
        bind::List args;
        args.emplace_back(bind::box("tensor", op));
        args.emplace_back(std::int64_t{3});
        args.emplace_back(2.5);
        benchmark::DoNotOptimize(args.size());
    }
}
BENCHMARK(BM_ArgumentListBoxing);

void BM_NameManglingAndLookup(benchmark::State& state)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    for (auto _ : state) {
        const std::string name =
            std::string{"matrix_apply_csr_"} + "double" + "_" + "int32";
        benchmark::DoNotOptimize(m.has(name));
    }
}
BENCHMARK(BM_NameManglingAndLookup);

void BM_RegistryDispatchNoop(benchmark::State& state)
{
    auto& m = bind::Module::instance();
    static bool registered = [] {
        bind::Module::instance().def(
            "micro_noop", [](const bind::List&) { return bind::Value{}; });
        return true;
    }();
    (void)registered;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.call("micro_noop", {}));
    }
}
BENCHMARK(BM_RegistryDispatchNoop);

void BM_EndToEndBoundTensorItem(benchmark::State& state)
{
    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{64, 1}, "double", 1.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.item(7));
    }
}
BENCHMARK(BM_EndToEndBoundTensorItem);

void BM_JsonParseListing2(benchmark::State& state)
{
    const std::string doc = R"({
        "type": "solver::Gmres", "krylov_dim": 30,
        "criteria": [{"type": "stop::Iteration", "max_iters": 1000},
                     {"type": "stop::ResidualNorm",
                      "reduction_factor": 1e-06}],
        "preconditioner": {"type": "preconditioner::Jacobi",
                           "max_block_size": 1}})";
    for (auto _ : state) {
        benchmark::DoNotOptimize(config::Json::parse(doc));
    }
}
BENCHMARK(BM_JsonParseListing2);

void BM_JsonDump(benchmark::State& state)
{
    auto doc = config::Json::parse(
        R"({"a": [1, 2.5, true, "x"], "b": {"c": -3}})");
    for (auto _ : state) {
        benchmark::DoNotOptimize(doc.dump());
    }
}
BENCHMARK(BM_JsonDump);

void BM_GilContention(benchmark::State& state)
{
    for (auto _ : state) {
        std::lock_guard<std::mutex> guard{bind::gil()};
        benchmark::DoNotOptimize(&guard);
    }
}
BENCHMARK(BM_GilContention);

// --- executor allocation path ------------------------------------------------

void BM_PooledAllocFreeCycle(benchmark::State& state)
{
    auto exec = ReferenceExecutor::create();
    const auto bytes = static_cast<size_type>(state.range(0));
    exec->free_bytes(exec->alloc_bytes(bytes));  // warm the size class
    alloc_probe probe{exec.get()};
    for (auto _ : state) {
        void* p = exec->alloc_bytes(bytes);
        benchmark::DoNotOptimize(p);
        exec->free_bytes(p);
    }
    probe.report(state);
}
BENCHMARK(BM_PooledAllocFreeCycle)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_DenseDotScratch(benchmark::State& state)
{
    // dot_scalar allocates a 1x1 reduction buffer per call; with the pool,
    // the steady state is all hits and zero system allocations.
    auto exec = ReferenceExecutor::create();
    auto a = Dense<double>::create_filled(exec, dim2{1024, 1}, 1.0);
    auto b = Dense<double>::create_filled(exec, dim2{1024, 1}, 2.0);
    benchmark::DoNotOptimize(a->dot_scalar(b.get()));  // warm-up
    alloc_probe probe{exec.get()};
    for (auto _ : state) {
        benchmark::DoNotOptimize(a->dot_scalar(b.get()));
    }
    probe.report(state);
}
BENCHMARK(BM_DenseDotScratch);

void BM_CgApplySteadyState(benchmark::State& state)
{
    // Warm solver apply: the workspace holds every Krylov temporary, so a
    // repeated apply must report sys_allocs == 0 AND pool traffic == 0.
    const auto n = static_cast<size_type>(state.range(0));
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Csr<double, int32>> a =
        Csr<double, int32>::create_from_data(exec, laplacian_1d(n));
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(50))
                      .with_criteria(stop::residual_norm(1e-12))
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());  // warm-up populates the workspace
    alloc_probe probe{exec.get()};
    for (auto _ : state) {
        solver->apply(b.get(), x.get());
    }
    probe.report(state);
}
BENCHMARK(BM_CgApplySteadyState)->Arg(256)->Arg(4096);

void BM_GmresApplySteadyState(benchmark::State& state)
{
    // GMRES is the allocation-heaviest solver (basis, Hessenberg, Givens,
    // per-iteration sub-vectors); steady state must still be
    // sys_allocs == 0.
    const auto n = static_cast<size_type>(state.range(0));
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Csr<double, int32>> a =
        Csr<double, int32>::create_from_data(exec, laplacian_1d(n));
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(60))
                      .with_criteria(stop::residual_norm(1e-12))
                      .with_krylov_dim(30)
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());  // warm-up populates the workspace
    alloc_probe probe{exec.get()};
    for (auto _ : state) {
        solver->apply(b.get(), x.get());
    }
    probe.report(state);
}
BENCHMARK(BM_GmresApplySteadyState)->Arg(256);

void BM_ColdSolverGenerateAndApply(benchmark::State& state)
{
    // The contrast case: building the solver fresh every time pays the
    // full workspace population cost — pool hits once warm, but
    // allocations nonetheless.
    const auto n = static_cast<size_type>(state.range(0));
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Csr<double, int32>> a =
        Csr<double, int32>::create_from_data(exec, laplacian_1d(n));
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto factory = solver::Cg<double>::build()
                       .with_criteria(stop::iteration(50))
                       .with_criteria(stop::residual_norm(1e-12))
                       .on(exec);
    alloc_probe probe{exec.get()};
    for (auto _ : state) {
        auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
        auto solver = factory->generate(a);
        solver->apply(b.get(), x.get());
        benchmark::DoNotOptimize(x->at(0, 0));
    }
    probe.report(state);
}
BENCHMARK(BM_ColdSolverGenerateAndApply)->Arg(256);

// --- always-on flight recorder overhead --------------------------------------
//
// The acceptance criterion for the always-on tier: on the fig5b
// binding-overhead workload (bound SpMV applies through the dynamic
// layer), the FlightRecorder must cost < 5% of real wall time versus a
// no-logger baseline.  Measured here with the shared recorder detached
// and re-attached around the identical call loop; the `# json` block
// (persisted via MGKO_BENCH_JSON_DIR) is what bench_validate_observability
// --overhead enforces in CI.
void measure_flight_recorder_overhead()
{
    bind::ensure_bindings_registered();
    const size_type n = 16384;
    auto dev = bind::device("cuda");
    auto exec = dev.executor();
    matrix_data<double, int64> data{dim2{n, n}};
    for (size_type i = 0; i < n; ++i) {
        if (i > 0) {
            data.entries.push_back({i, i - 1, -1.0});
        }
        data.entries.push_back({i, i, 2.0});
        if (i + 1 < n) {
            data.entries.push_back({i, i + 1, -1.0});
        }
    }
    auto mtx = bind::matrix_from_data(dev, data, "float", "Csr");
    auto b = bind::as_tensor(dev, dim2{n, 1}, "float", 1.0);
    auto x = bind::as_tensor(dev, dim2{n, 1}, "float", 0.0);

    constexpr int calls_per_rep = 64;
    constexpr int reps = 7;
    auto time_ns_per_call = [&] {
        mtx.apply(b, x);  // warmup
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
            const auto start = std::chrono::steady_clock::now();
            for (int c = 0; c < calls_per_rep; ++c) {
                mtx.apply(b, x);
            }
            const auto stop = std::chrono::steady_clock::now();
            best = std::min(
                best,
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        stop - start)
                        .count()) /
                    calls_per_rep);
        }
        return best;
    };

    auto recorder = log::shared_flight_recorder();
    // Baseline: the executor factory and binding layer auto-attach the
    // recorder, so detach it (and only it) for the no-logger side.
    bind::remove_logger(recorder.get());
    exec->remove_logger(recorder.get());
    const double baseline = time_ns_per_call();
    bind::add_logger(recorder);
    exec->add_logger(recorder);
    const double with_recorder = time_ns_per_call();

    const double overhead_pct = (with_recorder / baseline - 1.0) * 100.0;
    bench::CsvBlock csv{"micro_overhead",
                        {"workload", "calls", "baseline_ns_per_call",
                         "recorder_ns_per_call", "overhead_percent"},
                        reps};
    csv.add_row({"fig5b_bound_spmv",
                 std::to_string(calls_per_rep * reps),
                 bench::fmt(baseline, "%.1f"),
                 bench::fmt(with_recorder, "%.1f"),
                 bench::fmt(overhead_pct, "%.3f")});
    csv.print();
    std::printf("[flight recorder] always-on overhead %.3f%% "
                "(budget < 5%%): %s\n",
                overhead_pct, overhead_pct < 5.0 ? "OK" : "EXCEEDED");
}

}  // namespace

// BENCHMARK_MAIN, plus the opt-in MGKO_PROFILE hook: with the variable
// set, every bound call made by the benchmarks above is attributed to
// bind.* tags (per-name wall time and the GIL-wait/lookup/boxing/
// interpreter breakdown) and the profile view is dumped once they finish.
// Unset, no logger is attached and the measured numbers are unaffected.
// MGKO_TELEMETRY_PORT / MGKO_SOLVE_PORT start the live endpoints first.
int main(int argc, char** argv)
{
    serve::start_from_env();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    {
        bench::ProfileScope profile{"micro_overhead", {}};
        benchmark::RunSpecifiedBenchmarks();
    }
    benchmark::Shutdown();
    measure_flight_recorder_overhead();
    return 0;
}
