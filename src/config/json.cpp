#include "config/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

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
        switch (peek()) {
        case '{':
            return parse_object();
        case '[':
            return parse_array();
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
                const auto code = std::stoul(text_.substr(pos_, 4), nullptr, 16);
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
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_real = is_real || c == '.' || c == 'e' || c == 'E';
                ++pos_;
            } else {
                break;
            }
        }
        const auto token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            fail("invalid number");
        }
        errno = 0;
        char* end = nullptr;
        if (is_real) {
            const double v = std::strtod(token.c_str(), &end);
            if (end != token.c_str() + token.size()) {
                fail("invalid number: " + token);
            }
            return Json{v};
        }
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (end != token.c_str() + token.size()) {
            fail("invalid number: " + token);
        }
        return Json{static_cast<std::int64_t>(v)};
    }

    const std::string& text_;
    std::size_t pos_{0};
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
    case Json::kind::integer:
        out += std::to_string(value.as_int());
        break;
    case Json::kind::real: {
        // JSON has no NaN or infinity; they are written as null.
        if (!std::isfinite(value.as_double())) {
            out += "null";
            break;
        }
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value.as_double());
        std::string s{buffer};
        // Keep reals recognizable as reals.
        if (s.find_first_of(".eE") == std::string::npos) {
            s += ".0";
        }
        out += s;
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
