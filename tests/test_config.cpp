// JSON parser/serializer and generic config-solver tests.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "batch/batch_csr.hpp"
#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/cg.hpp"
#include "solver/gmres.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;
using config::Json;


TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_EQ(Json::parse("42").as_int(), 42);
    EXPECT_EQ(Json::parse("-17").as_int(), -17);
    EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
    EXPECT_DOUBLE_EQ(Json::parse("1e-6").as_double(), 1e-6);
    EXPECT_DOUBLE_EQ(Json::parse("-2.5E+3").as_double(), -2500.0);
    EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(Json, ParsesNestedStructures)
{
    auto doc = Json::parse(R"({
        "type": "solver::Gmres",
        "krylov_dim": 30,
        "criteria": [
            {"type": "stop::Iteration", "max_iters": 1000},
            {"type": "stop::ResidualNorm", "reduction_factor": 1e-6}
        ],
        "preconditioner": {"type": "preconditioner::Jacobi",
                           "max_block_size": 1}
    })");
    EXPECT_EQ(doc.at("type").as_string(), "solver::Gmres");
    EXPECT_EQ(doc.at("krylov_dim").as_int(), 30);
    EXPECT_EQ(doc.at("criteria").size(), 2);
    EXPECT_DOUBLE_EQ(doc.at("criteria")
                         .elements()[1]
                         .at("reduction_factor")
                         .as_double(),
                     1e-6);
    EXPECT_EQ(doc.at("preconditioner").at("max_block_size").as_int(), 1);
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(Json::parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
    EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string text =
        R"({"a":[1,2.5,true,null,"x"],"b":{"c":-3},"d":1e-06})";
    auto doc = Json::parse(text);
    auto again = Json::parse(doc.dump());
    EXPECT_EQ(doc, again);
    // pretty-printing also round-trips
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Json, NonFiniteRealsDumpAsNullAndStillParse)
{
    Json doc = Json::make_object();
    doc["x"] = Json{std::numeric_limits<double>::quiet_NaN()};
    doc["y"] = Json{std::numeric_limits<double>::infinity()};
    Json list = Json::make_array();
    list.push_back(Json{-std::numeric_limits<double>::infinity()});
    list.push_back(Json{1.5});
    doc["z"] = std::move(list);

    for (const int indent : {0, 2}) {
        const auto text = doc.dump(indent);
        EXPECT_EQ(text.find("nan"), std::string::npos) << text;
        EXPECT_EQ(text.find("inf"), std::string::npos) << text;
        Json again;
        ASSERT_NO_THROW(again = Json::parse(text)) << text;
        EXPECT_TRUE(again.at("x").is_null());
        EXPECT_TRUE(again.at("y").is_null());
        EXPECT_TRUE(again.at("z").elements()[0].is_null());
        EXPECT_EQ(again.at("z").elements()[1].as_double(), 1.5);
        // Once the non-finite values are null, dump and parse are inverse.
        EXPECT_EQ(again.dump(indent), text);
        EXPECT_EQ(Json::parse(again.dump(indent)), again);
    }
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), BadParameter);
    EXPECT_THROW(Json::parse("{"), BadParameter);
    EXPECT_THROW(Json::parse("[1,]"), BadParameter);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), BadParameter);
    EXPECT_THROW(Json::parse("\"unterminated"), BadParameter);
    EXPECT_THROW(Json::parse("12 34"), BadParameter);
    EXPECT_THROW(Json::parse("tru"), BadParameter);
}

/// Nesting depth along the first element or the key "a".
int depth_of(const Json& v)
{
    if (v.is_array()) {
        return 1 + (v.elements().empty() ? 0 : depth_of(v.elements()[0]));
    }
    if (v.is_object()) {
        return 1 + (v.contains("a") ? depth_of(v.at("a")) : 0);
    }
    return 0;
}

TEST(Json, NestingDeeperThanMaxDepthThrows)
{
    const auto arrays = [](int depth) {
        const auto n = static_cast<std::size_t>(depth);
        return std::string(n, '[') + std::string(n, ']');
    };
    const auto objects = [](int depth) {
        std::string text;
        for (int i = 1; i < depth; ++i) {
            text += R"({"a": )";
        }
        return text + "{}" +
               std::string(static_cast<std::size_t>(depth - 1), '}');
    };
    const std::string message =
        "nesting deeper than " + std::to_string(Json::max_depth);
    for (const auto& text : {arrays(Json::max_depth), objects(Json::max_depth)}) {
        EXPECT_EQ(depth_of(Json::parse(text)), Json::max_depth);
    }
    for (const auto& text :
         {arrays(Json::max_depth + 1), objects(Json::max_depth + 1)}) {
        try {
            Json::parse(text);
            ADD_FAILURE() << "nesting past the limit parsed";
        } catch (const BadParameter& e) {
            EXPECT_NE(std::string{e.what()}.find(message), std::string::npos)
                << e.what();
        }
    }
    // Far past the limit the parser throws before its recursion can
    // exhaust the stack.
    EXPECT_THROW(Json::parse(std::string(1000000, '[')), BadParameter);
}

std::uint64_t bits_of(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double from_bits(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(Json, NumberTokensKeepTheirKindAndValue)
{
    // Odd spellings the parser has always taken, with the kind and value
    // they have always parsed to.
    const struct {
        const char* text;
        std::int64_t integer;
    } integers[] = {{"+5", 5}, {"01", 1}, {"-0", 0}, {"00012", 12}};
    for (const auto& t : integers) {
        const auto v = Json::parse(t.text);
        ASSERT_TRUE(v.is_integer()) << t.text;
        EXPECT_EQ(v.as_int(), t.integer) << t.text;
    }
    const double inf = std::numeric_limits<double>::infinity();
    const struct {
        const char* text;
        double real;
    } reals[] = {{"+5.5", 5.5},
                 {"+.5", 0.5},
                 {"1.", 1.0},
                 {".5", 0.5},
                 {"0.", 0.0},
                 {"1.e1", 10.0},
                 {"00.5", 0.5},
                 {"-0.0", -0.0},
                 {"1E5", 1e5},
                 {"1e400", inf},
                 {"1e99999", inf},
                 {"-1e400", -inf},
                 {"1e-400", 0.0},
                 {"4.9e-324", from_bits(1)},
                 {"2.5e-320", from_bits(0x13c4)},
                 // Integers past int64 are the reals they spell.
                 {"99999999999999999999", 1e20},
                 {"9223372036854775808", 0x1p63},
                 {"-9223372036854775809", -0x1p63}};
    for (const auto& t : reals) {
        const auto v = Json::parse(t.text);
        ASSERT_TRUE(v.is_real()) << t.text;
        EXPECT_EQ(bits_of(v.as_double()), bits_of(t.real)) << t.text;
    }
    const auto min = Json::parse("-9223372036854775808");
    ASSERT_TRUE(min.is_integer());
    EXPECT_EQ(min.as_int(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(Json::parse("[1e400]").dump(), "[null]");
}

TEST(Json, MalformedNumberTokensThrow)
{
    for (const char* text :
         {"1e5e5", "0x10", "--5", "+-5", "-+5", "5-", "1-2", "-", ".", "-.",
          ".e1", "1e", "1e+", "1.5.5", "1e5.5", "nan", "inf", "[1,-,2]",
          "+", "-inf", "1_000"}) {
        EXPECT_THROW(Json::parse(text), BadParameter) << text;
    }
    // \u takes exactly four hexadecimal digits.
    for (const char* text : {R"("\u12zz")", R"("\u+1ab")", R"("\u-001")",
                             R"("\u 1ab")", R"("\u12")"}) {
        EXPECT_THROW(Json::parse(text), BadParameter) << text;
    }
    EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
}

TEST(Json, AsIntTruncatesRealsAndRejectsThoseOutsideInt64)
{
    EXPECT_EQ(Json{2.9}.as_int(), 2);
    EXPECT_EQ(Json{-2.9}.as_int(), -2);
    EXPECT_EQ(Json{-0x1p63}.as_int(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(Json{0x1p62}.as_int(), std::int64_t{1} << 62);
    for (const double v : {0x1p63, -0x1p64, 1e300, -1e300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(Json{v}.as_int(), BadParameter) << v;
    }
    try {
        Json::parse(R"({"max_iters": 1e300})").at("max_iters").as_int();
        FAIL() << "expected BadParameter";
    } catch (const BadParameter& e) {
        EXPECT_NE(std::string{e.what()}.find("1e+300"), std::string::npos)
            << e.what();
    }
}

/// What dump() has always printed for a finite real: printf's "%.17g",
/// with ".0" appended when that reads as an integer.
std::string printf_dump(double v)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    std::string s{buffer};
    if (s.find_first_of(".eE") == std::string::npos) {
        s += ".0";
    }
    return s;
}

TEST(Json, DumpPrintsPrecision17AndParsesBackToTheSameBits)
{
    std::vector<double> values = {0.0,
                                  -0.0,
                                  from_bits(1),
                                  -from_bits(1),
                                  DBL_MIN,
                                  DBL_MAX,
                                  -DBL_MAX,
                                  1.0,
                                  -3.0,
                                  1e15,
                                  1e16,
                                  1e17,
                                  123456789012345678.0,
                                  0.1,
                                  1.0 / 3.0};
    for (int e = -320; e <= 308; ++e) {
        values.push_back(std::pow(10.0, e));
    }
    for (std::int64_t i = -1000; i <= 1000; i += 7) {
        values.push_back(static_cast<double>(i));
    }
    std::mt19937_64 rng{20251018};
    while (values.size() < 100000) {
        const double v = from_bits(rng());
        if (std::isfinite(v)) {
            values.push_back(v);
        }
    }
    int mismatches = 0;
    for (const double v : values) {
        const auto text = Json{v}.dump();
        const auto back = Json::parse(text);
        const bool same = text == printf_dump(v) && back.is_real() &&
                          bits_of(back.as_double()) == bits_of(v);
        if (!same && ++mismatches <= 5) {
            ADD_FAILURE() << std::hex << bits_of(v) << ": dumped " << text
                          << ", printf gives " << printf_dump(v);
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Json, ObjectAccessHelpers)
{
    auto obj = Json::make_object();
    obj["x"] = Json{1};
    EXPECT_TRUE(obj.contains("x"));
    EXPECT_FALSE(obj.contains("y"));
    EXPECT_EQ(obj.get_or("y", Json{7}).as_int(), 7);
    EXPECT_THROW(obj.at("y"), BadParameter);
}


// --- config solver -------------------------------------------------------------

class ConfigSolver : public ::testing::Test {
protected:
    std::shared_ptr<Executor> exec_ = OmpExecutor::create(2);
    std::shared_ptr<Csr<double, int32>> spd_ = Csr<double, int32>::create_from_data(
        exec_, test::laplacian_1d<double, int32>(64));

    double solve_and_residual(const Json& cfg)
    {
        auto solver = config::config_solver(cfg, exec_, spd_);
        auto b = Dense<double>::create_filled(exec_, dim2{64, 1}, 1.0);
        auto x = Dense<double>::create_filled(exec_, dim2{64, 1}, 0.0);
        solver->apply(b.get(), x.get());
        auto r = Dense<double>::create(exec_, dim2{64, 1});
        r->copy_from(b.get());
        auto one_s = Dense<double>::create_scalar(exec_, 1.0);
        auto neg_one = Dense<double>::create_scalar(exec_, -1.0);
        spd_->apply(neg_one.get(), x.get(), one_s.get(), r.get());
        return r->norm2_scalar() / b->norm2_scalar();
    }
};

TEST_F(ConfigSolver, BuildsListing2StyleGmres)
{
    auto cfg = Json::parse(R"({
        "type": "solver::Gmres",
        "value_type": "float64",
        "krylov_dim": 30,
        "criteria": [
            {"type": "stop::Iteration", "max_iters": 1000},
            {"type": "stop::ResidualNorm", "reduction_factor": 1e-08}
        ],
        "preconditioner": {"type": "preconditioner::Jacobi",
                           "max_block_size": 1}
    })");
    EXPECT_LT(solve_and_residual(cfg), 1e-7);
}

TEST_F(ConfigSolver, AcceptsKeywordShorthands)
{
    auto cfg = Json::make_object();
    cfg["type"] = Json{"cg"};
    cfg["max_iters"] = Json{1000};
    cfg["reduction_factor"] = Json{1e-10};
    EXPECT_LT(solve_and_residual(cfg), 1e-9);
}

TEST_F(ConfigSolver, BuildsEverySolverType)
{
    for (const char* type :
         {"solver::Cg", "solver::Cgs", "solver::Bicgstab", "solver::Fcg",
          "solver::Gmres"}) {
        auto cfg = Json::make_object();
        cfg["type"] = Json{type};
        cfg["max_iters"] = Json{2000};
        cfg["reduction_factor"] = Json{1e-9};
        EXPECT_LT(solve_and_residual(cfg), 1e-7) << type;
    }
}

TEST_F(ConfigSolver, BuildsIrWithRelaxation)
{
    // Richardson needs a contractive iteration matrix: use a diagonally
    // dominant system with a Jacobi preconditioner.
    auto system = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(
            exec_, test::random_sparse<double, int32>(64, 4, 5, true))};
    auto cfg = Json::make_object();
    cfg["type"] = Json{"solver::Ir"};
    cfg["max_iters"] = Json{5000};
    cfg["reduction_factor"] = Json{1e-9};
    cfg["relaxation_factor"] = Json{0.9};
    cfg["preconditioner"]["type"] = Json{"preconditioner::Jacobi"};
    auto solver = config::config_solver(cfg, exec_, system);
    auto b = Dense<double>::create_filled(exec_, dim2{64, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec_, dim2{64, 1}, 0.0);
    solver->apply(b.get(), x.get());
    auto r = Dense<double>::create(exec_, dim2{64, 1});
    r->copy_from(b.get());
    auto one_s = Dense<double>::create_scalar(exec_, 1.0);
    auto neg_one = Dense<double>::create_scalar(exec_, -1.0);
    system->apply(neg_one.get(), x.get(), one_s.get(), r.get());
    EXPECT_LT(r->norm2_scalar() / b->norm2_scalar(), 1e-8);
}

TEST_F(ConfigSolver, SelectsPreconditioners)
{
    for (const char* type : {"preconditioner::Jacobi", "preconditioner::Ilu",
                             "preconditioner::Ic"}) {
        auto cfg = Json::make_object();
        cfg["type"] = Json{"solver::Cg"};
        cfg["max_iters"] = Json{2000};
        cfg["reduction_factor"] = Json{1e-10};
        cfg["preconditioner"]["type"] = Json{type};
        EXPECT_LT(solve_and_residual(cfg), 1e-9) << type;
    }
}

TEST_F(ConfigSolver, SelectsValueAndIndexTypes)
{
    auto cfg = Json::make_object();
    cfg["type"] = Json{"solver::Cg"};
    cfg["max_iters"] = Json{500};
    cfg["reduction_factor"] = Json{1e-4};
    cfg["value_type"] = Json{"float"};
    cfg["index_type"] = Json{"int64"};
    EXPECT_EQ(config::config_value_type(cfg), dtype::f32);
    EXPECT_EQ(config::config_index_type(cfg), itype::i64);

    auto factory = config::parse_factory(cfg, exec_);
    auto system = std::shared_ptr<Csr<float, int64>>{
        Csr<float, int64>::create_from_data(
            exec_, test::laplacian_1d<float, int64>(32))};
    auto solver = factory->generate(system);
    auto b = Dense<float>::create_filled(exec_, dim2{32, 1}, 1.0f);
    auto x = Dense<float>::create_filled(exec_, dim2{32, 1}, 0.0f);
    solver->apply(b.get(), x.get());
    EXPECT_GT(x->at(0, 0), 0.0f);
}

TEST_F(ConfigSolver, RejectsInvalidConfigs)
{
    EXPECT_THROW(config::parse_factory(Json{"not an object"}, exec_),
                 BadParameter);
    auto unknown = Json::make_object();
    unknown["type"] = Json{"solver::Magic"};
    unknown["max_iters"] = Json{10};
    EXPECT_THROW(config::parse_factory(unknown, exec_), BadParameter);

    auto no_criteria = Json::make_object();
    no_criteria["type"] = Json{"solver::Cg"};
    EXPECT_THROW(config::parse_factory(no_criteria, exec_), BadParameter);

    auto bad_precond = Json::make_object();
    bad_precond["type"] = Json{"solver::Cg"};
    bad_precond["max_iters"] = Json{10};
    bad_precond["preconditioner"]["type"] = Json{"preconditioner::Magic"};
    EXPECT_THROW(config::parse_factory(bad_precond, exec_), BadParameter);
}

TEST_F(ConfigSolver, FormatAndReorderKeysSolveTransparently)
{
    // The solver runs on an RCM-permuted SELL-C-σ system, but callers see
    // the original index space and the usual residual.
    auto cfg = Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 1000,
        "reduction_factor": 1e-10,
        "format": "sellcs",
        "reorder": "rcm"
    })");
    EXPECT_LT(solve_and_residual(cfg), 1e-9);

    auto degree = Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 1000,
        "reduction_factor": 1e-10,
        "format": "ell",
        "reorder": "degree"
    })");
    EXPECT_LT(solve_and_residual(degree), 1e-9);
}

TEST_F(ConfigSolver, SellcsFormatKeyHonoursSliceParameters)
{
    auto cfg = Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 1000,
        "reduction_factor": 1e-10,
        "format": "sellcs",
        "slice_size": 8,
        "sorting_window": 16
    })");
    EXPECT_LT(solve_and_residual(cfg), 1e-9);
}

TEST_F(ConfigSolver, RejectsUnknownFormatReorderAndInnerPrecision)
{
    auto base = [] {
        auto cfg = Json::make_object();
        cfg["type"] = Json{"solver::Cg"};
        cfg["max_iters"] = Json{10};
        return cfg;
    };
    auto bad_format = base();
    bad_format["format"] = Json{"bsr"};
    EXPECT_THROW(config::parse_factory(bad_format, exec_), BadParameter);

    auto bad_reorder = base();
    bad_reorder["reorder"] = Json{"metis"};
    EXPECT_THROW(config::parse_factory(bad_reorder, exec_), BadParameter);

    auto bad_precision = base();
    bad_precision["type"] = Json{"solver::Ir"};
    bad_precision["inner_precision"] = Json{"bf8"};
    EXPECT_THROW(config::parse_factory(bad_precision, exec_), BadParameter);
}

TEST_F(ConfigSolver, TriangularSolversThroughConfig)
{
    auto cfg = Json::make_object();
    cfg["type"] = Json{"solver::LowerTrs"};
    auto factory = config::parse_factory(cfg, exec_);
    // Lower triangle of the SPD matrix is a valid triangular system.
    matrix_data<double, int32> lower{dim2{8, 8}};
    for (const auto& e :
         test::laplacian_1d<double, int32>(8).entries) {
        if (e.col <= e.row) {
            lower.add(e.row, e.col, e.value);
        }
    }
    auto l = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(exec_, lower)};
    auto solver = factory->generate(l);
    auto ones = Dense<double>::create_filled(exec_, dim2{8, 1}, 1.0);
    auto b = Dense<double>::create(exec_, dim2{8, 1});
    l->apply(ones.get(), b.get());
    auto x = Dense<double>::create(exec_, dim2{8, 1});
    solver->apply(b.get(), x.get());
    for (size_type i = 0; i < 8; ++i) {
        EXPECT_NEAR(x->at(i, 0), 1.0, 1e-12);
    }
}

TEST_F(ConfigSolver, ProcessWideSwitchesAreUnknownKeys)
{
    // A config describes one solver: tracing, sampling, counters and the
    // servers are set by environment variable or binding, so each of these
    // keys fails like any other typo, on both entry points.
    std::shared_ptr<const batch::BatchLinOp> batch_system =
        batch::Csr<double, int32>::create_duplicate(
            exec_, 2, test::laplacian_1d<double, int32>(8));
    const auto expect_rejected = [](const std::string& key, auto&& solve) {
        try {
            solve();
            ADD_FAILURE() << "config accepted '" << key << "'";
        } catch (const BadParameter& e) {
            EXPECT_NE(std::string{e.what()}.find("unknown config key '" +
                                                 key + "'"),
                      std::string::npos)
                << e.what();
        }
    };
    for (const auto& [key, value] : test::process_switch_keys()) {
        auto single = Json::parse(R"({"type": "cg", "max_iters": 5})");
        single[key] = Json::parse(value);
        expect_rejected(key,
                        [&] { config::config_solver(single, exec_, spd_); });
        auto batched =
            Json::parse(R"({"type": "cg", "batch": 2, "max_iters": 5})");
        batched[key] = Json::parse(value);
        expect_rejected(key, [&] {
            config::batch_config_solver(batched, exec_, batch_system);
        });
    }
}

}  // namespace
