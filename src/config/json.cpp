#include "config/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "core/text_number.hpp"

namespace mgko::config {

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_{text} {}

    Json parse_document()
    {
        auto result = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return result;
    }

private:
    [[noreturn]] void fail(const std::string& what) const
    {
        throw BadParameter(__FILE__, __LINE__,
                           "JSON parse error at offset " +
                               std::to_string(pos_) + ": " + what);
    }

    void skip_whitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    char next() { return text_[pos_++]; }

    void expect_literal(const char* literal)
    {
        for (const char* c = literal; *c != '\0'; ++c) {
            if (pos_ >= text_.size() || text_[pos_] != *c) {
                fail(std::string{"expected literal "} + literal);
            }
            ++pos_;
        }
    }

    Json parse_value()
    {
        skip_whitespace();
        switch (const char c = peek()) {
        case '{':
        case '[': {
            if (depth_ == Json::max_depth) {
                fail("nesting deeper than " + std::to_string(Json::max_depth) +
                     " levels");
            }
            ++depth_;
            auto nested = c == '{' ? parse_object() : parse_array();
            --depth_;
            return nested;
        }
        case '"':
            return Json{parse_string()};
        case 't':
            expect_literal("true");
            return Json{true};
        case 'f':
            expect_literal("false");
            return Json{false};
        case 'n':
            expect_literal("null");
            return Json{nullptr};
        default:
            return parse_number();
        }
    }

    Json parse_object()
    {
        next();  // '{'
        auto result = Json::make_object();
        skip_whitespace();
        if (peek() == '}') {
            next();
            return result;
        }
        while (true) {
            skip_whitespace();
            if (peek() != '"') {
                fail("expected string key");
            }
            auto key = parse_string();
            skip_whitespace();
            if (next() != ':') {
                fail("expected ':' after key");
            }
            result[key] = parse_value();
            skip_whitespace();
            const char c = next();
            if (c == '}') {
                return result;
            }
            if (c != ',') {
                fail("expected ',' or '}' in object");
            }
        }
    }

    Json parse_array()
    {
        next();  // '['
        auto result = Json::make_array();
        skip_whitespace();
        if (peek() == ']') {
            next();
            return result;
        }
        while (true) {
            result.push_back(parse_value());
            skip_whitespace();
            const char c = next();
            if (c == ']') {
                return result;
            }
            if (c != ',') {
                fail("expected ',' or ']' in array");
            }
        }
    }

    std::string parse_string()
    {
        next();  // '"'
        std::string result;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = next();
            if (c == '"') {
                return result;
            }
            if (c != '\\') {
                result.push_back(c);
                continue;
            }
            const char esc = next();
            switch (esc) {
            case '"':
                result.push_back('"');
                break;
            case '\\':
                result.push_back('\\');
                break;
            case '/':
                result.push_back('/');
                break;
            case 'b':
                result.push_back('\b');
                break;
            case 'f':
                result.push_back('\f');
                break;
            case 'n':
                result.push_back('\n');
                break;
            case 'r':
                result.push_back('\r');
                break;
            case 't':
                result.push_back('\t');
                break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                }
                unsigned code = 0;
                const char* hex = text_.data() + pos_;
                const auto parsed = std::from_chars(hex, hex + 4, code, 16);
                if (parsed.ptr != hex + 4 || parsed.ec != std::errc{}) {
                    fail("invalid \\u escape");
                }
                pos_ += 4;
                // Basic multilingual plane only; encode as UTF-8.
                if (code < 0x80) {
                    result.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    result.push_back(static_cast<char>(0xc0 | (code >> 6)));
                    result.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    result.push_back(static_cast<char>(0xe0 | (code >> 12)));
                    result.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                    result.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
    }

    Json parse_number()
    {
        const auto start = pos_;
        bool is_real = false;
        if (peek() == '-') {
            next();
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_real = is_real || c == '.' || c == 'e' || c == 'E';
                ++pos_;
            } else {
                break;
            }
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        if (first == last || (last - first == 1 && *first == '-')) {
            fail("invalid number");
        }
        // An integer outside int64 is the real it spells.
        std::int64_t i = 0;
        if (!is_real && parse_int_token(first, last, i)) {
            return Json{i};
        }
        double v = 0.0;
        if (!parse_real_token(first, last, v)) {
            fail("invalid number: " + std::string{first, last});
        }
        return Json{v};
    }

    const std::string& text_;
    std::size_t pos_{0};
    int depth_{0};  // arrays and objects open around pos_
};


// Serialization appends straight into one growing string: dump() sits on
// the serve:: response path, where the per-number ostringstream this used
// to construct (locale setup and all) dominated the cost of answering a
// request.
void dump_string(std::string& out, const std::string& s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            out += c;
        }
    }
    out += '"';
}

void append_pad(std::string& out, int indent, int depth)
{
    if (indent >= 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent * depth), ' ');
    }
}

void dump_impl(std::string& out, const Json& value, int indent, int depth)
{
    switch (value.get_kind()) {
    case Json::kind::null:
        out += "null";
        break;
    case Json::kind::boolean:
        out += value.as_bool() ? "true" : "false";
        break;
    case Json::kind::integer: {
        char buffer[24];
        out.append(buffer,
                   std::to_chars(buffer, buffer + sizeof(buffer),
                                 value.as_int())
                       .ptr);
        break;
    }
    case Json::kind::real: {
        const double v = value.as_double();
        // JSON has no NaN or infinity; they are written as null.
        if (!std::isfinite(v)) {
            out += "null";
            break;
        }
        // to_chars(general, 17) prints what printf("%.17g") prints, in
        // place and without a format string to interpret.
        char buffer[32];
        char* end = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                  std::chars_format::general, 17)
                        .ptr;
        out.append(buffer, end);
        // Keep reals recognizable as reals.
        if (std::find_if(buffer, end, [](char c) {
                return c == '.' || c == 'e';
            }) == end) {
            out += ".0";
        }
        break;
    }
    case Json::kind::string:
        dump_string(out, value.as_string());
        break;
    case Json::kind::array: {
        out += '[';
        bool first = true;
        for (const auto& e : value.elements()) {
            if (!first) {
                out += ',';
            }
            append_pad(out, indent, depth + 1);
            dump_impl(out, e, indent, depth + 1);
            first = false;
        }
        append_pad(out, indent, depth);
        out += ']';
        break;
    }
    case Json::kind::object: {
        out += '{';
        bool first = true;
        for (const auto& [key, e] : value.items()) {
            if (!first) {
                out += ',';
            }
            append_pad(out, indent, depth + 1);
            dump_string(out, key);
            out += indent < 0 ? ":" : ": ";
            dump_impl(out, e, indent, depth + 1);
            first = false;
        }
        append_pad(out, indent, depth);
        out += '}';
        break;
    }
    }
}

}  // namespace


std::int64_t Json::real_as_int(double v)
{
    // [-2^63, 2^63) holds every double whose truncation fits int64; NaN
    // fails both comparisons.
    if (!(v >= -0x1p63 && v < 0x1p63)) {
        char buffer[32];
        char* end = std::to_chars(buffer, buffer + sizeof(buffer), v).ptr;
        throw BadParameter(__FILE__, __LINE__,
                           "JSON number " + std::string{buffer, end} +
                               " does not fit a 64-bit integer");
    }
    return static_cast<std::int64_t>(v);
}


Json Json::parse(const std::string& text)
{
    return Parser{text}.parse_document();
}


Json Json::parse(std::istream& stream)
{
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    return parse(buffer.str());
}


std::string Json::dump(int indent) const
{
    std::string out;
    dump_impl(out, *this, indent, 0);
    return out;
}


}  // namespace mgko::config
