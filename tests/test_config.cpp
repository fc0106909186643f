// JSON parser/serializer and generic config-solver tests.
#include <gtest/gtest.h>

#include <limits>

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
