// Self-tests of the benchmark's own helpers: the percentile and
// sample-count rule, the steal-ranked slices and setup builds, the
// residual checker, the analytic stencil spectra and the Ritz checks built
// on them, and the grammar of the metric lines.
//
//   perfbench_selftest        (run.py --selftest builds and runs it)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "matgen/matgen.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

using namespace perfbench;

void test_percentiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) {
        v.push_back(i);  // 1..100, unsorted on purpose
    }
    // Linear interpolation between order statistics (numpy's default):
    // position q * (n - 1).
    expect(near(percentile(v, 0.5), 50.5, 1e-12), "p50 of 1..100 is 50.5");
    expect(near(percentile(v, 0.9), 90.1, 1e-12), "p90 of 1..100 is 90.1");
    expect(near(percentile(v, 0.0), 1.0, 1e-12), "p0 is the minimum");
    expect(near(percentile(v, 1.0), 100.0, 1e-12), "p100 is the maximum");
    expect(near(percentile({7.0}, 0.9), 7.0, 0.0), "single sample");
    expect(near(median({3.0, 1.0, 2.0, 10.0}), 2.5, 1e-12), "even median");
    // At least ten samples beyond the percentile.
    expect(percentile_supported(100, 0.9), "p90 with 100 samples");
    expect(!percentile_supported(99, 0.9), "p90 needs 100 samples");
    expect(percentile_supported(20, 0.5), "p50 with 20 samples");
    expect(!percentile_supported(19, 0.5), "p50 needs 20 samples");
    expect(percentile_supported(1000, 0.99), "p99 with 1000 samples");
    expect(!percentile_supported(999, 0.99), "p99 needs 1000 samples");
}

/// Ten one-second slices from t = 100; slices listed in `stolen` lose
/// half a CPU-second per second to steal.  100 ops complete in each slice
/// with latencies 5.0..5.9 ms, times `slow` in the slices listed there.
std::vector<OpSample> slice_samples(const std::vector<int>& slow)
{
    std::vector<OpSample> samples;
    for (int i = 0; i < 1000; ++i) {
        OpSample s;
        s.end_s = 100.0 + 0.01 * i + 0.005;
        s.seconds = 0.005 + 1e-4 * (i % 10);
        if (std::find(slow.begin(), slow.end(), i / 100) != slow.end()) {
            s.seconds *= 3.0;
        }
        samples.push_back(s);
    }
    std::reverse(samples.begin(), samples.end());  // order does not matter
    return samples;
}

/// One-second slices from t = 100, given each slice's (steal, busy) CPU
/// seconds; busy includes steal.
StealMeter meter_from(const std::vector<std::pair<double, double>>& slices)
{
    std::vector<StealMeter::Reading> readings{{100.0, {0.0, 0.0}}};
    for (std::size_t k = 0; k < slices.size(); ++k) {
        const auto last = readings.back().cpu;
        readings.push_back({101.0 + static_cast<double>(k),
                            {last.steal + slices[k].first,
                             last.busy + slices[k].second}});
    }
    return StealMeter{readings};
}

/// Ten slices, each busy for two CPU-seconds, a quarter of which is steal
/// in the slices listed in `stolen`.
StealMeter slice_meter(const std::vector<int>& stolen)
{
    std::vector<std::pair<double, double>> slices;
    for (int k = 0; k < 10; ++k) {
        const bool hit = std::find(stolen.begin(), stolen.end(), k) !=
                         stolen.end();
        slices.push_back({hit ? 0.5 : 0.0, 2.0});
    }
    return meter_from(slices);
}

void test_steal_slices()
{
    // Steal in the second half slows it: the quieter half is the first.
    const std::vector<int> second_half{5, 6, 7, 8, 9};
    Report report;
    report_end_to_end(report, slice_samples(second_half),
                      slice_meter(second_half));
    const auto& m = report.metrics();
    expect(report.correct(), "steal-ranked report succeeds");
    expect(near(m.at("solve_p50_ms").value, 5.45, 1e-9),
           "p50 over the quieter half");
    expect(near(m.at("solve_p90_ms").value, 5.81, 1e-9),
           "p90 over the quieter half");
    expect(near(m.at("ops_per_s").value, 100.0, 1e-6),
           "ops_per_s over the quieter half");
    expect(m.at("solve_p50_ms").samples == 500, "sample count of the half");

    // The ranking reads steal, not the ops' speed: when the quiet slices
    // are the slow ones, the slow ones are reported.
    Report blind;
    report_end_to_end(blind, slice_samples({0, 1, 2, 3, 4}),
                      slice_meter(second_half));
    expect(near(blind.metrics().at("solve_p50_ms").value, 3 * 5.45, 1e-9),
           "selection is blind to op latency");

    // Steal is ranked as a share of busy time, not in absolute seconds: the
    // first half keeps all four vCPUs busy and loses 0.4 s of its 4 s to
    // steal (10%); the second half is busy 1 s and loses 0.3 s (30%).
    std::vector<std::pair<double, double>> demand;
    for (int k = 0; k < 10; ++k) {
        demand.push_back(k < 5 ? std::pair{0.4, 4.0} : std::pair{0.3, 1.0});
    }
    Report share;
    report_end_to_end(share, slice_samples(second_half), meter_from(demand));
    expect(near(share.metrics().at("solve_p50_ms").value, 5.45, 1e-9),
           "ranking by steal share ignores the program's CPU demand");

    // A pause between two slices (a setup build) is not a slice: an op
    // completed in it is not a sample, and its length is not in the
    // window.  Steal in the first half makes the slices around the pause
    // the chosen ones; the pause runs from 106 to 106.5.
    const std::vector<int> first_half{0, 1, 2, 3, 4};
    auto readings = slice_meter(first_half).readings();
    for (std::size_t k = 7; k < readings.size(); ++k) {
        readings[k].t += 0.5;
    }
    readings.insert(readings.begin() + 7,
                    StealMeter::Reading{106.5, readings[6].cpu, true});
    auto paused = slice_samples({});
    for (auto& sample : paused) {
        if (sample.end_s >= 106.0) {
            sample.end_s += 0.5;
        }
    }
    OpSample in_pause;
    in_pause.end_s = 106.25;
    in_pause.seconds = 1.0;
    paused.push_back(in_pause);
    Report pause;
    report_end_to_end(pause, paused, StealMeter{readings});
    expect(pause.correct() &&
               near(pause.metrics().at("solve_p90_ms").value, 5.81, 1e-9),
           "an op completed in a pause is not a sample");
    expect(near(pause.metrics().at("ops_per_s").value, 100.0, 1e-6),
           "a pause is not part of the window");

    // Without steal every slice ties and time order decides: the first
    // ceil(n / 2) slices.
    Report quiet;
    report_end_to_end(quiet, slice_samples({7}), slice_meter({}));
    expect(near(quiet.metrics().at("solve_p50_ms").value, 5.45, 1e-9),
           "ties keep time order");

    // Ops outside the latency class count toward ops_per_s only.
    auto samples = slice_samples({});
    for (std::size_t i = 0; i < samples.size(); i += 2) {
        samples[i].latency_class = false;
        samples[i].seconds = 1.0;
    }
    Report mixed;
    report_end_to_end(mixed, samples, slice_meter(second_half));
    expect(mixed.correct() && mixed.metrics().at("solve_p50_ms").value < 20.0,
           "non-latency ops stay out of the percentiles");
    expect(near(mixed.metrics().at("ops_per_s").value, 100.0, 1e-6),
           "non-latency ops count toward ops_per_s");

    // p90 needs 100 latency samples in the chosen slices: one op in six
    // leaves about 83 in the quieter half.
    samples = slice_samples({});
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].latency_class = i % 6 == 0;
    }
    Report short_run;
    report_end_to_end(short_run, samples, slice_meter(second_half));
    expect(!short_run.correct(), "fewer than 100 chosen samples fail");
    expect(short_run.metrics().count("solve_p90_ms") == 0,
           "no p90 without enough samples");
}

void test_setup_median()
{
    // Builds with steal lose the ranking: the median is over the quieter
    // half, whatever the builds' own times.
    std::vector<SetupSample> builds{{0.50, 0.20}, {0.30, 0.0}, {0.90, 0.10},
                                    {0.32, 0.01}, {0.10, 0.30}, {0.34, 0.0}};
    std::size_t chosen = 0;
    expect(near(quiet_median(builds, chosen), 0.32, 1e-12),
           "setup median over the quieter half");
    expect(chosen == 3, "quieter half of six builds is three");
    // No steal at all: ties keep time order, so the first half.
    std::vector<SetupSample> ties{{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0},
                                  {0.4, 0.0}, {0.9, 0.0}};
    expect(near(quiet_median(ties, chosen), 0.2, 1e-12) && chosen == 3,
           "ties keep time order");
}

void test_residual()
{
    // A = 2-D Laplacian, x known, b = A x: the residual of x is round-off
    // and that of a perturbed x is what the perturbation makes it.
    const auto data = mgko::matgen::stencil_2d_5pt(12, 9);
    HostCsr a{data};
    const auto n = static_cast<std::size_t>(a.rows);
    std::vector<double> x(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::sin(0.3 * static_cast<double>(i)) + 0.5;
    }
    a.spmv(x.data(), b.data());
    expect(relative_residual(a, b, x) < 1e-15, "exact solution");
    // Zero guess: ||b - 0|| / ||b|| = 1.
    expect(near(relative_residual(a, b, std::vector<double>(n, 0.0)), 1.0,
                1e-15),
           "zero guess has residual 1");
    // Duplicated entries are summed, as the library does.
    data64 dup{mgko::dim2{2}};
    dup.add(0, 0, 1.0);
    dup.add(0, 0, 1.0);
    dup.add(1, 1, 4.0);
    HostCsr d{dup};
    expect(near(relative_residual(d, {2.0, 4.0}, {1.0, 1.0}), 0.0, 1e-15),
           "duplicates summed");
    expect(std::isinf(relative_residual(d, {2.0, 4.0}, {1.0})),
           "length mismatch is infinite");
    expect(std::isinf(relative_residual(
               d, {2.0, 4.0}, {std::nan(""), 1.0})),
           "NaN solution is infinite");
}

/// Largest eigenvalue of a symmetric matrix by plain power iteration on
/// the benchmark's own CSR copy (the stencils are positive definite, so
/// the dominant eigenvalue is the largest).
double power_max(const HostCsr& a)
{
    const auto n = static_cast<std::size_t>(a.rows);
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 1.0 + 0.01 * static_cast<double>(i % 7);
    }
    double lambda = 0.0;
    for (int it = 0; it < 20000; ++it) {
        a.spmv(x.data(), y.data());
        double dot = 0.0, norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            dot += x[i] * y[i];
            norm += y[i] * y[i];
        }
        double xx = 0.0;
        for (const double v : x) {
            xx += v * v;
        }
        lambda = dot / xx;
        norm = std::sqrt(norm);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = y[i] / norm;
        }
    }
    return lambda;
}

void test_eigenvalues()
{
    using mgko::matgen::stencil_2d_5pt;
    using mgko::matgen::stencil_2d_9pt;
    using mgko::matgen::stencil_3d_7pt;
    const double pi = std::acos(-1.0);
    // Closed forms of the extremes.
    auto five = stencil_eigenvalues(stencil_kind::five_point_2d, 5, 4);
    expect(five.size() == 20, "5-point spectrum size");
    expect(near(five.front(),
                4.0 + 2.0 * std::cos(pi / 6) + 2.0 * std::cos(pi / 5), 1e-12),
           "5-point largest eigenvalue");
    // Trace check: the eigenvalues sum to the diagonal sum.
    const auto sum = [](const std::vector<double>& v) {
        double s = 0.0;
        for (const double x : v) {
            s += x;
        }
        return s;
    };
    expect(near(sum(five), 4.0 * 20, 1e-10), "5-point trace");
    const auto nine = stencil_eigenvalues(stencil_kind::nine_point_2d, 6, 5);
    expect(near(sum(nine), 8.0 * 30, 1e-10), "9-point trace");
    const auto seven =
        stencil_eigenvalues(stencil_kind::seven_point_3d, 4, 3, 5);
    expect(seven.size() == 60, "7-point spectrum size");
    expect(near(sum(seven), 6.0 * 60, 1e-10), "7-point trace");
    // Against the matrices matgen generates: the largest eigenvalue by
    // power iteration and the Frobenius norm (sum of squared eigenvalues).
    const auto frob = [](const HostCsr& a) {
        double s = 0.0;
        for (const double v : a.values) {
            s += v * v;
        }
        return s;
    };
    const auto sq = [](const std::vector<double>& v) {
        double s = 0.0;
        for (const double x : v) {
            s += x * x;
        }
        return s;
    };
    struct Case {
        const char* name;
        HostCsr a;
        std::vector<double> spectrum;
    };
    std::vector<Case> cases;
    cases.push_back({"5-point 7x5", HostCsr{stencil_2d_5pt(7, 5)},
                     stencil_eigenvalues(stencil_kind::five_point_2d, 7, 5)});
    cases.push_back({"9-point 6x8", HostCsr{stencil_2d_9pt(6, 8)},
                     stencil_eigenvalues(stencil_kind::nine_point_2d, 6, 8)});
    cases.push_back(
        {"7-point 3x4x5", HostCsr{stencil_3d_7pt(3, 4, 5)},
         stencil_eigenvalues(stencil_kind::seven_point_3d, 3, 4, 5)});
    for (const auto& c : cases) {
        expect(near(frob(c.a), sq(c.spectrum), 1e-8),
               std::string{c.name} + ": sum of squared eigenvalues");
        expect(near(power_max(c.a), c.spectrum.front(), 1e-6),
               std::string{c.name} + ": largest eigenvalue");
    }
}

void test_ritz_checks()
{
    const std::vector<double> spectrum{5.0, 4.0, 3.0, 1.0};
    expect(check_ritz_values({5.0, 4.0}, {0.0, 0.0}, spectrum, 1e-12).empty(),
           "exact Ritz values pass");
    expect(check_ritz_values({4.9, 3.5}, {0.2, 0.5}, spectrum, 1e-12).empty(),
           "under-converged values within their residual pass");
    expect(!check_ritz_values({5.1, 4.0}, {1.0, 0.0}, spectrum, 1e-12)
                .empty(),
           "a value above the eigenvalue it bounds fails");
    expect(!check_ritz_values({4.5, 3.5}, {0.1, 0.6}, spectrum, 1e-12)
                .empty(),
           "a value farther from the spectrum than its residual fails");
    expect(!check_ritz_values({5.0}, {0.0, 0.0}, spectrum, 1e-12).empty(),
           "size mismatch fails");
}

void test_metric_grammar()
{
    expect(is_metric_line(format_metric_line("solve_p50_ms",
                                             {75.12345, "ms", 134})),
           "formatted latency line");
    expect(is_metric_line(
               format_metric_line("matrix.spmv_csr_gflops",
                                  {4.5, "GFLOP/s", 200})),
           "formatted rate line");
    expect(is_metric_line(format_metric_line("trace.overhead_pct",
                                             {-0.25, "%", 500})),
           "negative value");
    expect(is_metric_line(format_metric_line("setup_s", {1.5e-7, "s", 3})),
           "exponent value");
    expect(is_metric_line(
               format_metric_line("serve.rejected", {0, "count", 1})),
           "zero count");
    expect(!is_metric_line("metric solve_p50_ms 75.1 ms"), "missing n=");
    expect(!is_metric_line("metric _bad 1 ms n=1"), "name start");
    expect(!is_metric_line("metric ok nan ms n=1"), "non-number");
    expect(!is_metric_line("metric ok 1 ms n=0"), "zero samples");
    expect(!is_metric_line("metric ok 1 unit_name_far_too_long n=1"),
           "unit too long");
    expect(!is_metric_line("metric ok 1 m s n=1"), "space in unit");
}

}  // namespace


int main()
{
    test_percentiles();
    test_steal_slices();
    test_setup_median();
    test_residual();
    test_eigenvalues();
    test_ritz_checks();
    test_metric_grammar();
    if (failures == 0) {
        std::printf("perfbench selftest: all checks passed\n");
        return 0;
    }
    std::printf("perfbench selftest: %d check(s) failed\n", failures);
    return 1;
}
