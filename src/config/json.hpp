// Minimal JSON value / parser / serializer — the wire format of the
// generic config-solver entry point (paper §5).  pyGinkgo builds these
// values from Python dictionaries "without depending on any temporary
// configuration files on disk"; the binding layer does the same from its
// boxed dict type.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/exception.hpp"
#include "core/types.hpp"

namespace mgko::config {


class Json {
public:
    enum class kind { null, boolean, integer, real, string, array, object };

    using array_t = std::vector<Json>;
    using object_t = std::map<std::string, Json>;

    Json() : value_{nullptr} {}
    Json(std::nullptr_t) : value_{nullptr} {}
    Json(bool b) : value_{b} {}
    Json(int i) : value_{static_cast<std::int64_t>(i)} {}
    Json(std::int64_t i) : value_{i} {}
    Json(double d) : value_{d} {}
    Json(const char* s) : value_{std::string{s}} {}
    Json(std::string s) : value_{std::move(s)} {}

    static Json make_array() { return Json{array_t{}}; }
    static Json make_object() { return Json{object_t{}}; }

    kind get_kind() const
    {
        return static_cast<kind>(value_.index());
    }
    bool is_null() const { return get_kind() == kind::null; }
    bool is_bool() const { return get_kind() == kind::boolean; }
    bool is_integer() const { return get_kind() == kind::integer; }
    bool is_real() const { return get_kind() == kind::real; }
    bool is_number() const { return is_integer() || is_real(); }
    bool is_string() const { return get_kind() == kind::string; }
    bool is_array() const { return get_kind() == kind::array; }
    bool is_object() const { return get_kind() == kind::object; }

    bool as_bool() const { return expect<bool>("boolean"); }
    /// A real truncates toward zero; one that is not finite or lies
    /// outside int64 throws BadParameter.
    std::int64_t as_int() const
    {
        if (is_real()) {
            return real_as_int(std::get<double>(value_));
        }
        return expect<std::int64_t>("integer");
    }
    double as_double() const
    {
        if (is_integer()) {
            return static_cast<double>(std::get<std::int64_t>(value_));
        }
        return expect<double>("number");
    }
    const std::string& as_string() const
    {
        return expect<std::string>("string");
    }

    // --- object interface ---
    bool contains(const std::string& key) const
    {
        return is_object() && items().count(key) > 0;
    }
    /// Object access; creates missing keys (converts null to object).
    Json& operator[](const std::string& key)
    {
        if (is_null()) {
            value_ = object_t{};
        }
        return mutable_items()[key];
    }
    /// Checked access; throws BadParameter when missing.
    const Json& at(const std::string& key) const
    {
        const auto& obj = items();
        auto it = obj.find(key);
        if (it == obj.end()) {
            throw BadParameter(__FILE__, __LINE__,
                               "missing config key: " + key);
        }
        return it->second;
    }
    /// Lookup with fallback.
    Json get_or(const std::string& key, Json fallback) const
    {
        if (contains(key)) {
            return at(key);
        }
        return fallback;
    }
    const object_t& items() const { return expect<object_t>("object"); }
    object_t& mutable_items()
    {
        if (!is_object()) {
            throw BadParameter(__FILE__, __LINE__, "JSON value is not object");
        }
        return std::get<object_t>(value_);
    }

    // --- array interface ---
    void push_back(Json element)
    {
        if (is_null()) {
            value_ = array_t{};
        }
        std::get<array_t>(value_).push_back(std::move(element));
    }
    const array_t& elements() const { return expect<array_t>("array"); }
    size_type size() const
    {
        if (is_array()) {
            return static_cast<size_type>(elements().size());
        }
        if (is_object()) {
            return static_cast<size_type>(items().size());
        }
        throw BadParameter(__FILE__, __LINE__, "size() on non-container JSON");
    }

    friend bool operator==(const Json& a, const Json& b)
    {
        return a.value_ == b.value_;
    }

    /// Deepest array/object nesting parse() accepts.  The parser recurses
    /// once per level, so this bounds its stack use; configs and triplet
    /// uploads nest five levels or fewer.
    static constexpr int max_depth = 256;

    /// Parses a JSON document; throws BadParameter on malformed input,
    /// including nesting deeper than max_depth.
    static Json parse(const std::string& text);
    static Json parse(std::istream& stream);

    /// Serializes; indent < 0 produces compact output.
    std::string dump(int indent = -1) const;

private:
    explicit Json(array_t a) : value_{std::move(a)} {}
    explicit Json(object_t o) : value_{std::move(o)} {}

    static std::int64_t real_as_int(double v);

    template <typename T>
    const T& expect(const char* what) const
    {
        if (!std::holds_alternative<T>(value_)) {
            throw BadParameter(__FILE__, __LINE__,
                               std::string{"JSON value is not "} + what);
        }
        return std::get<T>(value_);
    }

    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
                 array_t, object_t>
        value_;
};


}  // namespace mgko::config
