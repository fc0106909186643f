// pyside_eigs: the paper's "pure-Python-side" algorithm through the dynamic
// front end.  bind::read loads a set of 4096-row symmetric stencil and
// planar matrices from Matrix Market files the benchmark writes before
// timing; each op is one pyside::rayleigh_ritz call (k = 8 dominant pairs,
// 20 iterations, no early exit, so every op does the same work) on
// bind::device("omp"), round-robin over the set.  An op is ~160 binding
// calls on small operands, so binding, dispatch, and observability-hook
// changes show here and not in poisson3d_amg.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "core/executor.hpp"
#include "core/mtx_io.hpp"
#include "log/flight_recorder.hpp"
#include "matgen/matgen.hpp"
#include "pyside/rayleigh_ritz.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mgko;

constexpr size_type subspace = 8;
constexpr size_type iterations = 20;
/// Slack for round-off in the Ritz checks (the spectra lie in (0, 12]).
constexpr double ritz_slack = 1e-8;

/// One matrix of the set.  Its staging data is dropped once the file and
/// the benchmark's CSR copy exist, so the peak resident set stays close
/// to the program's own memory.
struct SetEntry {
    std::string name;
    std::string path;
    size_type stored{0};
    /// Descending spectrum for stencils; empty for planar matrices.
    std::vector<double> spectrum;
    HostCsr host;
};


class PysideEigs : public Workload {
public:
    PysideEigs(std::uint64_t seed, const std::string& out_dir) : seed_{seed}
    {
        const auto dir = out_dir + "/pyside_eigs";
        std::filesystem::create_directories(dir);
        const auto add = [&](std::string name, const data64& data,
                             std::vector<double> spectrum) {
            SetEntry e{name, dir + "/" + name + ".mtx", data.num_stored(),
                       std::move(spectrum), HostCsr{data}};
            write_mtx(e.path, data);
            set_.push_back(std::move(e));
        };
        using sk = stencil_kind;
        for (const auto& [nx, ny] :
             {std::pair<size_type, size_type>{64, 64}, {32, 128}, {128, 32}}) {
            add("lap2d_" + std::to_string(nx) + "x" + std::to_string(ny),
                matgen::stencil_2d_5pt(nx, ny),
                stencil_eigenvalues(sk::five_point_2d, nx, ny));
        }
        for (const auto& [nx, ny] :
             {std::pair<size_type, size_type>{64, 64}, {32, 128}}) {
            add("nine2d_" + std::to_string(nx) + "x" + std::to_string(ny),
                matgen::stencil_2d_9pt(nx, ny),
                stencil_eigenvalues(sk::nine_point_2d, nx, ny));
        }
        for (const auto& [nx, ny, nz] :
             {std::tuple<size_type, size_type, size_type>{16, 16, 16},
              {8, 16, 32},
              {32, 16, 8}}) {
            add("lap3d_" + std::to_string(nx) + "x" + std::to_string(ny) +
                    "x" + std::to_string(nz),
                matgen::stencil_3d_7pt(nx, ny, nz),
                stencil_eigenvalues(sk::seven_point_3d, nx, ny, nz));
        }
        for (int i = 0; i < 3; ++i) {
            add("planar_" + std::to_string(i),
                matgen::planar_graph(4096, seed * 7919 + i), {});
        }
        // Seeded round-robin order over the set.
        order_.resize(set_.size());
        for (std::size_t i = 0; i < order_.size(); ++i) {
            order_[i] = i;
        }
        std::mt19937_64 engine{seed};
        std::shuffle(order_.begin(), order_.end(), engine);
        dev_ = bind::device("omp");
    }

    void describe(Report& report) const override
    {
        double entries = 0.0;
        for (const auto& e : set_) {
            entries += static_cast<double>(e.stored);
        }
        report.meta("pyside_eigs.matrices", static_cast<double>(set_.size()));
        report.meta("pyside_eigs.rows", 4096.0);
        report.meta("pyside_eigs.stored_entries", entries);
        report.meta("pyside_eigs.k", static_cast<double>(subspace));
        report.meta("pyside_eigs.iterations", static_cast<double>(iterations));
        report.meta("pyside_eigs.working_set_mib", entries * 12.0 / 1048576.0);
        report.meta("pyside_eigs.executor_threads",
                    static_cast<double>(
                        dynamic_cast<const OmpExecutor&>(*dev_.executor())
                            .real_threads()));
    }

    SetupSample setup(Report&) override
    {
        matrices_.clear();
        ScopedSpan span{"bind.read_set"};
        const SetupTimer timer;
        for (const auto& e : set_) {
            matrices_.push_back(bind::read(dev_, e.path));
        }
        return timer.stop();
    }

    void run(Report& report, double seconds, bool traced,
             const Between& between) override
    {
        std::vector<std::vector<double>> per_matrix(set_.size());
        const auto& exec = *dev_.executor();
        StealMeter steal;
        auto samples = single_caller_loop(
            seconds, traced, steal, [&](std::uint64_t op) {
                const auto index = order_[op % order_.size()];
                OpSample sample;
                pyside::eig_result result;
                {
                    CounterDelta delta{exec};
                    ScopedSpan span{"op.eigs", op};
                    const double t0 = now_s();
                    {
                        ScopedSpan inner{"pyside.rayleigh_ritz"};
                        result = pyside::rayleigh_ritz(
                            dev_, matrices_[index], subspace, iterations, 0.0,
                            seed_ * 1000003 + op);
                    }
                    sample.seconds = now_s() - t0;
                    delta.finish(sample);
                }
                per_matrix[index].push_back(sample.seconds * 1e3);
                report.op(check(set_[index], result));
                return sample;
            },
            between);
        if (traced) {
            report_traced_loop(report, samples);
        } else {
            report_end_to_end(report, samples, steal);
            for (std::size_t i = 0; i < set_.size(); ++i) {
                if (!per_matrix[i].empty()) {
                    report.meta("pyside_eigs.p50_ms." + set_[i].name,
                                median(per_matrix[i]));
                }
            }
        }
    }

    void probe(Report& report) override
    {
        {
            ScopedSpan span{"probe.mtx_read"};
            const auto t = time_reps(3, [&] {
                for (const auto& e : set_) {
                    read_mtx(e.path);
                }
            });
            report.metric("core.mtx_read_s", median(t), "s", 3);
        }
        probe_binding_overhead(report);
        probe_host_eig(report);
        probe_recorder_overhead(report);
    }

private:
    /// The paper's §6.3 method: a bound apply minus the direct LinOp
    /// apply on the same operands, in alternating blocks.
    void probe_binding_overhead(Report& report)
    {
        ScopedSpan span{"probe.bindings_overhead"};
        const auto& m = matrices_[order_[0]];
        const auto n = m.shape().rows;
        auto b = bind::as_tensor(dev_, std::vector<double>(n, 1.0),
                                 dim2{n, 1}, "double");
        auto x = bind::as_tensor(dev_, std::vector<double>(n, 0.0),
                                 dim2{n, 1}, "double");
        const auto* op = m.op().get();
        const auto* bop = b.op().get();
        auto* xop = x.op().get();
        constexpr int block = 200;
        std::vector<double> bound;
        std::vector<double> direct;
        for (int round = 0; round < 12; ++round) {
            const double t0 = now_s();
            for (int i = 0; i < block; ++i) {
                m.apply(b, x);
            }
            const double t1 = now_s();
            for (int i = 0; i < block; ++i) {
                op->apply(bop, xop);
            }
            const double t2 = now_s();
            if (round >= 2) {  // the first rounds warm both paths
                bound.push_back((t1 - t0) / block);
                direct.push_back((t2 - t1) / block);
            }
        }
        report.metric("bindings.overhead_us_per_call",
                      (median(bound) - median(direct)) * 1e6, "us",
                      bound.size() * block);
    }

    void probe_host_eig(Report& report)
    {
        ScopedSpan span{"probe.host_eig"};
        std::mt19937_64 engine{seed_};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        std::vector<double> sym(subspace * subspace);
        for (size_type i = 0; i < subspace; ++i) {
            for (size_type j = 0; j <= i; ++j) {
                sym[i * subspace + j] = sym[j * subspace + i] = dist(engine);
            }
        }
        constexpr int batch = 100;
        std::vector<double> values, vectors;
        const auto t = time_reps(30, [&] {
            for (int i = 0; i < batch; ++i) {
                auto a = sym;
                pyside::symmetric_eig_host(a, subspace, values, vectors);
            }
        });
        report.metric("pyside.host_eig_us", median(t) / batch * 1e6, "us",
                      30 * batch);
    }

    /// Op time with the always-on flight recorder attached, against the
    /// same ops with it detached from the executor and the binding layer
    /// (what MGKO_FLIGHT_RECORDER=0 does at process start), in
    /// alternating blocks.
    void probe_recorder_overhead(Report& report)
    {
        ScopedSpan span{"probe.recorder_overhead"};
        auto recorder = log::shared_flight_recorder();
        auto& exec = *dev_.executor();
        std::vector<double> on;
        std::vector<double> off;
        std::uint64_t op = 0;
        for (int round = 0; round < 8; ++round) {
            for (const bool attached : {true, false}) {
                if (attached) {
                    exec.add_logger(recorder);
                    bind::add_logger(recorder);
                } else {
                    exec.remove_logger(recorder.get());
                    bind::remove_logger(recorder.get());
                }
                for (int i = 0; i < 4; ++i, ++op) {
                    const auto index = order_[op % order_.size()];
                    const double t0 = now_s();
                    const auto result = pyside::rayleigh_ritz(
                        dev_, matrices_[index], subspace, iterations, 0.0, op);
                    (attached ? on : off).push_back(now_s() - t0);
                    const auto failure = check(set_[index], result);
                    if (!failure.empty()) {
                        report.fail(failure);
                    }
                }
            }
        }
        exec.add_logger(recorder);
        bind::add_logger(recorder);
        report.metric("log.recorder_overhead_pct",
                      (median(on) / median(off) - 1.0) * 100.0, "%",
                      on.size() + off.size());
    }

    std::string check(const SetEntry& e,
                      const pyside::eig_result& result) const
    {
        const auto fail = [&](const std::string& why) {
            return "pyside_eigs " + e.name + ": " + why;
        };
        if (result.eigenvalues.size() != subspace ||
            result.iterations != iterations) {
            return fail("wrong number of Ritz values or iterations");
        }
        // Residual of every Ritz pair from the benchmark's own copy of A.
        const auto n = static_cast<std::size_t>(e.host.rows);
        const auto v = result.eigenvectors.to_host();  // n x k row-major
        if (v.size() != n * subspace) {
            return fail("Ritz vectors have the wrong shape");
        }
        std::vector<double> residuals(subspace);
        std::vector<double> col(n), av(n);
        for (size_type j = 0; j < subspace; ++j) {
            double norm2 = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                col[i] = v[i * subspace + j];
                norm2 += col[i] * col[i];
            }
            if (std::abs(norm2 - 1.0) > 1e-6) {
                return fail("Ritz vector " + std::to_string(j) +
                            " is not normalized");
            }
            e.host.spmv(col.data(), av.data());
            const double theta = result.eigenvalues[j];
            double rr = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = av[i] - theta * col[i];
                rr += d * d;
            }
            residuals[j] = std::sqrt(rr);
        }
        const double max_res =
            *std::max_element(residuals.begin(), residuals.end());
        if (std::abs(max_res - result.max_residual) >
            1e-6 * std::max(1.0, max_res)) {
            return fail("reported residual " +
                        std::to_string(result.max_residual) +
                        " disagrees with recomputed " +
                        std::to_string(max_res));
        }
        if (!e.spectrum.empty()) {
            const auto why = check_ritz_values(result.eigenvalues, residuals,
                                               e.spectrum, ritz_slack);
            return why.empty() ? std::string{} : fail(why);
        }
        // Planar matrices: no closed form; every Ritz value must lie in
        // the Gershgorin interval [0, max row sum of |a_ij|].
        double bound = 0.0;
        for (std::int64_t r = 0; r < e.host.rows; ++r) {
            double sum = 0.0;
            for (auto k = e.host.row_ptrs[r]; k < e.host.row_ptrs[r + 1];
                 ++k) {
                sum += std::abs(e.host.values[k]);
            }
            bound = std::max(bound, sum);
        }
        for (const double theta : result.eigenvalues) {
            if (!(theta >= -ritz_slack && theta <= bound + ritz_slack)) {
                return fail("Ritz value " + std::to_string(theta) +
                            " outside the Gershgorin interval");
            }
        }
        return {};
    }

    std::uint64_t seed_;
    std::vector<SetEntry> set_;
    std::vector<std::size_t> order_;
    bind::Device dev_;
    std::vector<bind::Matrix> matrices_;
};

}  // namespace


std::unique_ptr<Workload> make_pyside_eigs(std::uint64_t seed,
                                           const std::string& out_dir)
{
    return std::make_unique<PysideEigs>(seed, out_dir);
}


}  // namespace perfbench
