// Deterministic mutation tests of the two text readers, Json::parse and
// read_mtx, and of the config layer, config::parse_factory and
// config::parse_batch_factory.  Seeded byte flips, insertions and
// truncations of valid documents must each end in a value or in the
// reader's own exception (BadParameter / FileError), never in a crash,
// another exception type or a sanitizer report; what is accepted must also
// hold together.  Seeded structural mutants of valid solver configs must
// each build or throw mgko::Error.  Run under
// -DMGKO_SANITIZE=address,undefined to check the memory side (ctest -L fuzz).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/exception.hpp"
#include "core/mtx_io.hpp"
#include "tests/config_types.hpp"

namespace {

using namespace mgko;
using config::Json;


constexpr int mutants_per_document = 3000;
constexpr int config_mutants_per_document = 1000;

/// Bytes the readers treat specially, so that mutants reach their branches
/// more often than uniformly random bytes would.
constexpr char interesting[] = "0123456789.eE+-x \t\r\n\"\\/u{}[],:%n\0\xff";

/// Applies one to four seeded flips, insertions or truncations.
std::string mutate(std::string text, std::mt19937_64& rng)
{
    const int count = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < count && !text.empty(); ++m) {
        const auto pos = static_cast<std::size_t>(rng() % text.size());
        const char byte =
            rng() % 2 == 0
                ? static_cast<char>(rng() % 256)
                : interesting[rng() % (sizeof(interesting) - 1)];
        switch (rng() % 3) {
        case 0:
            text[pos] = byte;
            break;
        case 1:
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), byte);
            break;
        default:
            text.resize(pos);
        }
    }
    return text;
}

std::string printable(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        const auto u = static_cast<unsigned char>(c);
        if (u >= 0x20 && u < 0x7f) {
            out += c;
        } else {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\x%02x", u);
            out += hex;
        }
    }
    return out;
}

/// Every number of an accepted document reads as a double, and as an
/// integer or a BadParameter.
void read_every_number(const Json& value)
{
    if (value.is_number()) {
        static_cast<void>(value.as_double());
        try {
            static_cast<void>(value.as_int());
        } catch (const BadParameter&) {
        }
    } else if (value.is_array()) {
        for (const auto& e : value.elements()) {
            read_every_number(e);
        }
    } else if (value.is_object()) {
        for (const auto& [key, e] : value.items()) {
            read_every_number(e);
        }
    }
}

/// Reads `text` as Matrix Market; an accepted matrix has its entries
/// inside its bounds and finite values.  Returns false (after reporting)
/// on anything but a matrix or a FileError.
bool check_mtx(const std::string& text)
{
    try {
        std::istringstream stream{text};
        const auto data = read_mtx(stream, "<mutant>");
        for (const auto& e : data.entries) {
            if (e.row < 0 || e.row >= data.size.rows || e.col < 0 ||
                e.col >= data.size.cols || !std::isfinite(e.value)) {
                ADD_FAILURE() << "accepted a bad entry (" << e.row << ", "
                              << e.col << ", " << e.value << ") from "
                              << printable(text);
                return false;
            }
        }
    } catch (const FileError&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << "read_mtx threw " << e.what() << " on "
                      << printable(text);
        return false;
    }
    return true;
}


TEST(TextFuzz, JsonMutantsParseOrThrowBadParameter)
{
    const std::vector<std::string> documents = {
        R"({"operator": "op-1", "config": {"type": "solver::Gmres", )"
        R"("max_iters": 200, "reduction_factor": 1e-8, "preconditioner": )"
        R"({"type": "preconditioner::Ilu"}}, "b": [1.5, -2.25e-3, 3, 0.0, )"
        R"(-0.0, 1e+20, 4.9406564584124654e-324, 9223372036854775807]})",
        R"({"triplet": {"rows": 3, "cols": 3, "entries": [[0, 0, 2.0], )"
        R"([1, 0, -1], [2, 2, 3.5e2]]}, "config": {"type": "solver::Cg"}})",
        R"({"name": "a\"b\\c\n\t\r\/\u00e9\u4e2d", "list": [true, false, )"
        R"(null, {}, []], "nested": [[[1, -2.5E+3]]], "": ""})",
        R"({"mtx": "%%MatrixMarket matrix coordinate real general\n2 2 2\n)"
        R"(1 1 2.0\n2 2 4.0\n"})",
        R"({"x": [0.10000000000000001, -1.7976931348623157e+308, 5.0], )"
        R"("iterations": 12, "converged": true, )"
        R"("residual_norm": 1.2345678901234567e-09, "cache": "hit"})"};
    std::mt19937_64 rng{0x6d676b6f};
    int failures = 0;
    for (const auto& document : documents) {
        ASSERT_NO_THROW(Json::parse(document)) << document;
        for (int i = 0; i < mutants_per_document && failures < 5; ++i) {
            const auto text = mutate(document, rng);
            try {
                const auto value = Json::parse(text);
                read_every_number(value);
                // dump() is a fixed point of parse-then-dump.
                const auto once = value.dump();
                if (Json::parse(once).dump() != once) {
                    ++failures;
                    ADD_FAILURE() << "dump of " << printable(text)
                                  << " does not survive a round trip: "
                                  << printable(once);
                }
                if (value.is_object() && value.contains("mtx") &&
                    value.at("mtx").is_string() &&
                    !check_mtx(value.at("mtx").as_string())) {
                    ++failures;
                }
            } catch (const BadParameter&) {
            } catch (const std::exception& e) {
                ++failures;
                ADD_FAILURE() << "Json::parse threw " << e.what() << " on "
                              << printable(text);
            }
        }
    }
    EXPECT_EQ(failures, 0);
}

TEST(TextFuzz, MtxMutantsReadOrThrowFileError)
{
    const std::vector<std::string> documents = {
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 4 5\n"
        "1 1 2.5\n"
        "2 1 -1e-3\r\n"
        "3 4 +4.75E+2\n"
        "\n"
        "1 4 .5\n"
        "3 3 -7\n",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n1 1 4.0\n2 1 -1.0\n3 2 -1.0\n3 3 4.0\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 2\n2 1 3.0\n3 1 -0.5\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 3 3\n1 1\n2 3\n1 2\n",
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 2\n1 2 7\n2 1 -3\n",
        "%%MatrixMarket matrix array real general\n"
        "2 3\n1.0\n0.0\n-2.5\n3e1\n0\n4.9e-324\n",
        "%%MatrixMarket matrix array real symmetric\n"
        "2 2\n1.0\n2.0\n3.0\n"};
    std::mt19937_64 rng{0x6d7478};
    int failures = 0;
    for (const auto& document : documents) {
        ASSERT_TRUE(check_mtx(document)) << document;
        for (int i = 0; i < mutants_per_document && failures < 5; ++i) {
            if (!check_mtx(mutate(document, rng))) {
                ++failures;
            }
        }
    }
    EXPECT_EQ(failures, 0);
}


/// A random element of `items`.
template <typename Container>
const auto& pick(const Container& items, std::mt19937_64& rng)
{
    return *std::next(items.begin(),
                      static_cast<std::ptrdiff_t>(rng() % items.size()));
}

/// Runs `edit` on one object of `config`, chosen by `rng`: the config
/// itself, its preconditioner block or one of its criterion entries.
template <typename Edit>
void edit_an_object(Json& config, std::mt19937_64& rng, Edit&& edit)
{
    const bool block = config.contains("preconditioner") &&
                       config.at("preconditioner").is_object();
    const bool list =
        config.contains("criteria") && config.at("criteria").is_array();
    const auto entries = list ? config.at("criteria").size() : 0;
    const auto choice = static_cast<size_type>(
        rng() % static_cast<std::uint64_t>(1 + block + entries));
    if (choice == 0) {
        edit(config);
    } else if (block && choice == 1) {
        edit(config["preconditioner"]);
    } else {
        auto criteria = Json::make_array();
        size_type index = 1 + block;
        for (auto entry : config.at("criteria").elements()) {
            if (index++ == choice && entry.is_object()) {
                edit(entry);
            }
            criteria.push_back(std::move(entry));
        }
        config["criteria"] = std::move(criteria);
    }
}

/// Applies one to three seeded structural mutations: a type swapped for
/// another alias, a key of another type inserted, a key dropped, or a
/// value replaced by one of another JSON kind.  Names, keys and values
/// come from the test's own table (tests/config_types.hpp).
Json mutate_config(Json config, std::mt19937_64& rng)
{
    static const auto types = test::config_types();
    static const auto values = test::config_key_values();
    static const std::vector<std::string> other_kinds{
        "null", "true", "-1", "0", "100000000", "-2.5", "1e300", "\"\"",
        "\"x\"", "[]", "[1, 2]", "{}", R"({"type": "jacobi"})"};
    const int count = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < count; ++m) {
        edit_an_object(config, rng, [&](Json& target) {
            const auto& items = target.items();
            switch (rng() % 4) {
            case 0:
                target["type"] = Json{pick(pick(types, rng).aliases, rng)};
                break;
            case 1: {
                const auto& key = pick(pick(types, rng).keys, rng);
                target[key] = Json::parse(values.at(key));
                break;
            }
            case 2:
                if (!items.empty()) {
                    const auto key = pick(items, rng).first;
                    target.mutable_items().erase(key);
                }
                break;
            default:
                if (!items.empty()) {
                    const auto key = pick(items, rng).first;
                    target[key] = Json::parse(pick(other_kinds, rng));
                }
            }
        });
    }
    return config;
}

TEST(TextFuzz, ConfigMutantsBuildOrThrowMgkoError)
{
    // Configs of the shapes the tests, benches, examples and perfbench
    // commit.  Mutants are only parsed: a solve with, say, 10^8 sweeps
    // would not finish.
    const std::vector<std::string> documents = {
        R"({"type": "solver::Cg", "max_iters": 200, "reduction_factor": 1e-8,
            "preconditioner": {"type": "preconditioner::Jacobi",
                               "max_block_size": 1}})",
        R"({"type": "solver::Gmres", "krylov_dim": 30,
            "criteria": [{"type": "stop::Iteration", "max_iters": 1000},
                         {"type": "stop::ResidualNorm",
                          "reduction_factor": 1e-8, "baseline": "rhs_norm"}],
            "preconditioner": {"type": "preconditioner::Ilu"}})",
        R"({"type": "ir", "max_iters": 500, "reduction_factor": 1e-8,
            "relaxation_factor": 0.9, "inner_precision": "float",
            "preconditioner": {"type": "jacobi"}})",
        R"({"type": "cg", "max_iters": 100, "reduction_factor": 1e-8,
            "preconditioner": {"type": "amg", "theta": 0.02, "cycles": 1,
                               "smoother": "gauss_seidel"}})",
        R"({"type": "amg", "max_iters": 50, "reduction_factor": 1e-8,
            "theta": 0.1, "pre_sweeps": 1, "post_sweeps": 1,
            "min_coarse_rows": 32})",
        R"({"type": "solver::Direct", "value_type": "float32"})",
        R"({"type": "solver::LowerTrs", "unit_diagonal": true,
            "index_type": "int64"})",
        R"({"type": "cg", "max_iters": 100, "format": "sellcs",
            "slice_size": 8, "sorting_window": 16, "reorder": "rcm"})",
        R"({"type": "solver::Cg", "batch": 4, "max_iters": 200,
            "reduction_factor": 1e-8,
            "preconditioner": {"type": "preconditioner::Jacobi"}})",
        R"({"type": "bicgstab", "batch": 0, "value_type": "float",
            "criteria": [{"type": "Iteration", "max_iters": 50}]})"};
    auto exec = ReferenceExecutor::create();
    std::mt19937_64 rng{0x636667};
    int failures = 0;
    int built = 0;
    for (const auto& document : documents) {
        const auto config = Json::parse(document);
        ASSERT_NO_THROW(config.contains("batch")
                            ? (void)config::parse_batch_factory(config, exec)
                            : (void)config::parse_factory(config, exec))
            << document;
        for (int i = 0; i < config_mutants_per_document && failures < 5;
             ++i) {
            const auto mutant = mutate_config(config, rng);
            for (const bool batched : {false, true}) {
                try {
                    if (batched) {
                        config::parse_batch_factory(mutant, exec);
                    } else {
                        config::parse_factory(mutant, exec);
                    }
                    ++built;
                } catch (const Error&) {
                } catch (const std::exception& e) {
                    ++failures;
                    ADD_FAILURE() << "config parse threw " << e.what()
                                  << " on " << mutant.dump();
                }
            }
        }
    }
    EXPECT_EQ(failures, 0);
    // Some mutants (a key dropped or retyped that a type does not need)
    // still build, so the fuzz reaches the builders, not just the checks.
    EXPECT_GT(built, 0);
}


}  // namespace
