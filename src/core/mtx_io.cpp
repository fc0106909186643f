#include "core/mtx_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/exception.hpp"
#include "core/text_number.hpp"

namespace mgko {

namespace {

std::string to_lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

[[noreturn]] void fail(const std::string& path, const std::string& what)
{
    throw FileError(__FILE__, __LINE__, path, what);
}

struct header {
    bool coordinate = true;
    enum class field { real, integer, pattern } field_kind = field::real;
    enum class symmetry { general, symmetric, skew } symmetry_kind =
        symmetry::general;
};

header parse_header(const std::string& line, const std::string& path)
{
    std::istringstream is{line};
    std::string banner, object, format, field, symmetry;
    is >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket") {
        fail(path, "missing %%MatrixMarket banner");
    }
    if (to_lower(object) != "matrix") {
        fail(path, "unsupported object type: " + object);
    }
    header h;
    const auto fmt = to_lower(format);
    if (fmt == "coordinate") {
        h.coordinate = true;
    } else if (fmt == "array") {
        h.coordinate = false;
    } else {
        fail(path, "unsupported format: " + format);
    }
    const auto fld = to_lower(field);
    if (fld == "real" || fld == "double") {
        h.field_kind = header::field::real;
    } else if (fld == "integer") {
        h.field_kind = header::field::integer;
    } else if (fld == "pattern") {
        h.field_kind = header::field::pattern;
    } else {
        fail(path, "unsupported field: " + field);
    }
    const auto sym = to_lower(symmetry);
    if (sym == "general") {
        h.symmetry_kind = header::symmetry::general;
    } else if (sym == "symmetric") {
        h.symmetry_kind = header::symmetry::symmetric;
    } else if (sym == "skew-symmetric") {
        h.symmetry_kind = header::symmetry::skew;
    } else {
        fail(path, "unsupported symmetry: " + symmetry);
    }
    return h;
}

/// Files written on Windows end lines with \r\n; getline keeps the \r.
void strip_carriage_return(std::string& line)
{
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
}

bool is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
           c == '\f';
}

/// The whitespace-separated fields of one size, entry or value line, read
/// in place.  A field is read only if all of it is the number: "1.5" is no
/// index and "2,5" no value.
class line_fields {
public:
    explicit line_fields(const std::string& line)
        : pos_{line.data()}, end_{line.data() + line.size()}
    {}

    bool read(int64& value)
    {
        const char* first = next_field();
        return parse_int_token(first, pos_, value);
    }

    /// A value that overflows to infinity is no value.
    bool read(double& value)
    {
        const char* first = next_field();
        return parse_real_token(first, pos_, value) && !std::isinf(value);
    }

private:
    /// Moves past the next field and returns where it starts.
    const char* next_field()
    {
        while (pos_ != end_ && is_space(*pos_)) {
            ++pos_;
        }
        const char* first = pos_;
        while (pos_ != end_ && !is_space(*pos_)) {
            ++pos_;
        }
        return first;
    }

    const char* pos_;
    const char* end_;
};

/// Reads the next line that is neither empty nor a comment.
bool next_content_line(std::istream& stream, std::string& line)
{
    while (std::getline(stream, line)) {
        strip_carriage_return(line);
        auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '%') {
            continue;
        }
        return true;
    }
    return false;
}

}  // namespace


matrix_data<double, int64> read_mtx(std::istream& stream,
                                    const std::string& path)
{
    std::string line;
    if (!std::getline(stream, line)) {
        fail(path, "empty file");
    }
    strip_carriage_return(line);
    const header h = parse_header(line, path);

    if (!next_content_line(stream, line)) {
        fail(path, "missing size line");
    }
    line_fields size_line{line};
    matrix_data<double, int64> data;
    int64 rows = 0, cols = 0, nnz = 0;
    if (h.coordinate) {
        if (!(size_line.read(rows) && size_line.read(cols) &&
              size_line.read(nnz))) {
            fail(path, "malformed coordinate size line: " + line);
        }
    } else {
        if (!(size_line.read(rows) && size_line.read(cols))) {
            fail(path, "malformed array size line: " + line);
        }
    }
    if (rows < 0 || cols < 0 || nnz < 0) {
        fail(path, "negative dimensions");
    }
    if (!h.coordinate) {
        if (rows > 0 && cols > std::numeric_limits<int64>::max() / rows) {
            fail(path, "array size overflows int64: " + line);
        }
        nnz = rows * cols;
    }
    data.size = dim2{rows, cols};
    // The size line is outside input: a few bytes must not reserve more
    // than a large file needs before its entries arrive.
    constexpr int64 max_reserved_entries = int64{1} << 22;
    data.entries.reserve(
        static_cast<std::size_t>(std::min(nnz, max_reserved_entries)));

    if (h.coordinate) {
        for (int64 i = 0; i < nnz; ++i) {
            if (!next_content_line(stream, line)) {
                fail(path, "unexpected end of file at entry " +
                               std::to_string(i) + " of " +
                               std::to_string(nnz));
            }
            line_fields entry_line{line};
            int64 r = 0, c = 0;
            double v = 1.0;
            if (!(entry_line.read(r) && entry_line.read(c))) {
                fail(path, "malformed entry: " + line);
            }
            if (h.field_kind != header::field::pattern &&
                !entry_line.read(v)) {
                fail(path, "missing value in entry: " + line);
            }
            // Matrix Market is 1-based.
            r -= 1;
            c -= 1;
            if (r < 0 || r >= rows || c < 0 || c >= cols) {
                fail(path, "entry index out of bounds: " + line);
            }
            // Symmetric storage keeps only the lower triangle; an
            // upper-triangle entry would silently duplicate after
            // mirroring, so it is a hard error, as is a diagonal entry in
            // a skew-symmetric file (which must be zero by definition).
            if (h.symmetry_kind != header::symmetry::general && c > r) {
                fail(path,
                     "entry above the diagonal in symmetric storage "
                     "(expected lower-triangle coordinates): " +
                         line);
            }
            if (h.symmetry_kind == header::symmetry::skew && r == c) {
                fail(path,
                     "diagonal entry in skew-symmetric storage (the "
                     "diagonal of a skew-symmetric matrix is zero): " +
                         line);
            }
            data.add(r, c, v);
            if (r != c) {
                if (h.symmetry_kind == header::symmetry::symmetric) {
                    data.add(c, r, v);
                } else if (h.symmetry_kind == header::symmetry::skew) {
                    data.add(c, r, -v);
                }
            }
        }
    } else {
        // Array format: column-major dense listing.
        for (int64 c = 0; c < cols; ++c) {
            const int64 row_begin =
                h.symmetry_kind == header::symmetry::general ? 0 : c;
            for (int64 r = row_begin; r < rows; ++r) {
                if (!next_content_line(stream, line)) {
                    fail(path, "unexpected end of dense data");
                }
                double v = 0.0;
                if (!line_fields{line}.read(v)) {
                    fail(path, "malformed dense value: " + line);
                }
                if (v != 0.0) {
                    data.add(r, c, v);
                    if (r != c &&
                        h.symmetry_kind == header::symmetry::symmetric) {
                        data.add(c, r, v);
                    }
                    if (r != c && h.symmetry_kind == header::symmetry::skew) {
                        data.add(c, r, -v);
                    }
                }
            }
        }
    }
    return data;
}


matrix_data<double, int64> read_mtx(const std::string& path)
{
    std::ifstream stream{path};
    if (!stream) {
        fail(path, "cannot open file");
    }
    return read_mtx(stream, path);
}


void write_mtx(std::ostream& stream, const matrix_data<double, int64>& data)
{
    stream << "%%MatrixMarket matrix coordinate real general\n";
    stream << data.size.rows << " " << data.size.cols << " "
           << data.num_stored() << "\n";
    stream.precision(17);
    for (const auto& e : data.entries) {
        stream << (e.row + 1) << " " << (e.col + 1) << " " << e.value << "\n";
    }
}


void write_mtx(const std::string& path, const matrix_data<double, int64>& data)
{
    std::ofstream stream{path};
    if (!stream) {
        fail(path, "cannot open file for writing");
    }
    write_mtx(stream, data);
}


}  // namespace mgko
