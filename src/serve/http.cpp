#include "serve/http.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/exception.hpp"

namespace mgko::serve {

namespace {

using clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to [0, overall deadline].
int remaining_ms(clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - clock::now())
                          .count();
    return left < 0 ? 0 : static_cast<int>(left);
}

/// Polls `fd` for `events` until the deadline; true when the fd is ready.
bool wait_ready(int fd, short events, clock::time_point deadline)
{
    for (;;) {
        const int left = remaining_ms(deadline);
        if (left == 0) {
            return false;
        }
        pollfd pfd{fd, events, 0};
        const int ready = ::poll(&pfd, 1, left);
        if (ready > 0) {
            // POLLERR/POLLHUP also count as "ready": the following
            // recv/send will surface the concrete error or EOF.
            return true;
        }
        if (ready < 0 && errno != EINTR) {
            return false;
        }
        // ready == 0 (timeout, loop re-checks the deadline) or EINTR.
    }
}

std::string trim(const std::string& s)
{
    std::size_t first = 0;
    std::size_t last = s.size();
    while (first < last &&
           std::isspace(static_cast<unsigned char>(s[first]))) {
        ++first;
    }
    while (last > first &&
           std::isspace(static_cast<unsigned char>(s[last - 1]))) {
        --last;
    }
    return s.substr(first, last - first);
}

std::string to_lower(std::string s)
{
    for (char& c : s) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
}

/// Parses the request line + header block (everything before the blank
/// line, excluding it).  Returns false on malformed input.
bool parse_header_block(const std::string& block, HttpRequest& out)
{
    std::istringstream stream{block};
    std::string line;
    if (!std::getline(stream, line)) {
        return false;
    }
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
    std::istringstream request_line{line};
    if (!(request_line >> out.method >> out.target)) {
        return false;
    }
    request_line >> out.version;  // optional in crude clients
    while (std::getline(stream, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (line.empty()) {
            continue;
        }
        const auto colon = line.find(':');
        if (colon == std::string::npos) {
            return false;
        }
        out.headers[to_lower(trim(line.substr(0, colon)))] =
            trim(line.substr(colon + 1));
    }
    return true;
}

}  // namespace


const char* to_string(read_result r)
{
    switch (r) {
    case read_result::ok:
        return "ok";
    case read_result::timeout:
        return "timeout";
    case read_result::too_large:
        return "too_large";
    case read_result::closed:
        return "closed";
    case read_result::malformed:
        return "malformed";
    case read_result::error:
        return "error";
    }
    return "?";
}


bool set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}


Listener listen_on(int port, int backlog, const std::string& owner)
{
    if (port < 0 || port > 65535) {
        throw BadParameter(__FILE__, __LINE__,
                           owner + ": port " + std::to_string(port) +
                               " is outside [0, 65535]");
    }
    Listener listener;
    listener.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MGKO_ENSURE(listener.fd >= 0, owner + ": cannot create socket");
    const int reuse = 1;
    ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
                 sizeof(reuse));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_ANY);
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(listener.fd, backlog) != 0) {
        ::close(listener.fd);
        MGKO_ENSURE(false, owner + ": cannot bind port " +
                               std::to_string(port));
    }
    socklen_t length = sizeof(address);
    ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&address),
                  &length);
    listener.port = static_cast<int>(ntohs(address.sin_port));
    return listener;
}


read_result read_http_request(int fd, HttpRequest& out,
                              std::size_t max_header_bytes,
                              std::size_t max_body_bytes, int deadline_ms)
{
    const auto deadline =
        clock::now() + std::chrono::milliseconds(deadline_ms);
    std::string data;
    std::size_t header_end = std::string::npos;
    // Phase 1: accumulate until the header terminator, however the bytes
    // are segmented.  A request line split across TCP segments used to
    // parse as garbage (single-recv assumption); this loop is the fix.
    while (header_end == std::string::npos) {
        if (data.size() > max_header_bytes) {
            return read_result::too_large;
        }
        char buffer[4096];
        const ssize_t received = ::recv(fd, buffer, sizeof(buffer), 0);
        if (received > 0) {
            // Search from just before the old tail so a terminator split
            // across recv() calls is still found.
            const std::size_t scan_from = data.size() < 3 ? 0 : data.size() - 3;
            data.append(buffer, static_cast<std::size_t>(received));
            header_end = data.find("\r\n\r\n", scan_from);
            continue;
        }
        if (received == 0) {
            return read_result::closed;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!wait_ready(fd, POLLIN, deadline)) {
                return read_result::timeout;
            }
            continue;
        }
        return read_result::error;
    }
    if (header_end > max_header_bytes) {
        return read_result::too_large;
    }
    out = HttpRequest{};
    if (!parse_header_block(data.substr(0, header_end), out)) {
        return read_result::malformed;
    }
    // Phase 2: the body, when the client declared one.
    std::size_t body_size = 0;
    const auto declared = out.header("content-length");
    if (!declared.empty()) {
        char* end = nullptr;
        const unsigned long long parsed =
            std::strtoull(declared.c_str(), &end, 10);
        if (end == declared.c_str() || *end != '\0') {
            return read_result::malformed;
        }
        body_size = static_cast<std::size_t>(parsed);
    }
    if (body_size > max_body_bytes) {
        return read_result::too_large;
    }
    out.body = data.substr(header_end + 4);
    if (out.body.size() > body_size) {
        // More bytes than declared: a pipelined or confused client.
        out.body.resize(body_size);
    }
    while (out.body.size() < body_size) {
        char buffer[16 * 1024];
        const std::size_t want = std::min(sizeof(buffer),
                                          body_size - out.body.size());
        const ssize_t received = ::recv(fd, buffer, want, 0);
        if (received > 0) {
            out.body.append(buffer, static_cast<std::size_t>(received));
            continue;
        }
        if (received == 0) {
            return read_result::closed;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!wait_ready(fd, POLLIN, deadline)) {
                return read_result::timeout;
            }
            continue;
        }
        return read_result::error;
    }
    return read_result::ok;
}


bool send_all(int fd, const std::string& data, int deadline_ms)
{
    const auto deadline =
        clock::now() + std::chrono::milliseconds(deadline_ms);
    const char* p = data.data();
    std::size_t remaining = data.size();
    while (remaining > 0) {
        const ssize_t sent = ::send(fd, p, remaining, MSG_NOSIGNAL);
        if (sent > 0) {
            p += sent;
            remaining -= static_cast<std::size_t>(sent);
            continue;
        }
        // sent == 0 never happens for TCP with remaining > 0; treat it
        // like EAGAIN to stay deadline-bounded rather than spinning.
        if (sent < 0 && errno == EINTR) {
            continue;
        }
        if (sent == 0 || errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!wait_ready(fd, POLLOUT, deadline)) {
                return false;
            }
            continue;
        }
        return false;  // EPIPE, ECONNRESET, ...: surfaced, not swallowed
    }
    return true;
}


const char* http_status_text(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 408:
        return "Request Timeout";
    case 413:
        return "Payload Too Large";
    case 429:
        return "Too Many Requests";
    case 431:
        return "Request Header Fields Too Large";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}


std::string http_response(int status, const char* content_type,
                          const std::string& body,
                          const std::string& extra_headers)
{
    std::ostringstream out;
    out << "HTTP/1.0 " << status << " " << http_status_text(status) << "\r\n"
        << "Content-Type: " << content_type << "\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << extra_headers << "Connection: close\r\n\r\n"
        << body;
    return out.str();
}


config::Json error_json(const std::string& message)
{
    config::Json body = config::Json::make_object();
    body["error"] = config::Json{message};
    return body;
}


std::string json_response(int status, const config::Json& body,
                          const std::string& extra_headers)
{
    return http_response(status, "application/json", body.dump() + "\n",
                         extra_headers);
}


std::string with_response_header(std::string response,
                                 const std::string& header_line)
{
    const auto blank = response.find("\r\n\r\n");
    if (blank == std::string::npos) {
        return response;  // not a formatted response; leave it alone
    }
    response.insert(blank + 2, header_line);
    return response;
}


std::string query_param(const std::string& target, const std::string& key)
{
    const auto question = target.find('?');
    if (question == std::string::npos) {
        return {};
    }
    std::string query = target.substr(question + 1);
    std::size_t pos = 0;
    while (pos < query.size()) {
        auto next = query.find('&', pos);
        if (next == std::string::npos) {
            next = query.size();
        }
        const auto eq = query.find('=', pos);
        if (eq != std::string::npos && eq < next &&
            query.compare(pos, eq - pos, key) == 0) {
            return query.substr(eq + 1, next - eq - 1);
        }
        pos = next + 1;
    }
    return {};
}


std::uint64_t parse_trace_filter(const std::string& value, bool& ok)
{
    ok = false;
    if (value.size() != 16 && value.size() != 32) {
        return 0;
    }
    std::uint64_t word = 0;
    for (std::size_t i = value.size() - 16; i < value.size(); ++i) {
        const char c = value[i];
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex) {
            return 0;
        }
        word = (word << 4) |
               static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    }
    // The high half must still be hex when a full 32-hex id was given.
    for (std::size_t i = 0; i + 16 < value.size(); ++i) {
        const char c = value[i];
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
            return 0;
        }
    }
    ok = true;
    return word;
}


namespace {

/// True when `text` is exactly `len` lowercase hex digits; `nonzero_out`
/// reports whether any digit was nonzero (the spec forbids all-zero trace
/// and parent ids).
bool parse_hex_field(const std::string& text, std::size_t pos,
                     std::size_t len, bool& nonzero_out)
{
    nonzero_out = false;
    if (pos + len > text.size()) {
        return false;
    }
    for (std::size_t i = 0; i < len; ++i) {
        const char c = text[pos + i];
        const bool hex =
            (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex) {
            return false;  // uppercase is malformed per W3C
        }
        nonzero_out = nonzero_out || c != '0';
    }
    return true;
}

std::uint64_t hex_to_u64(const std::string& text, std::size_t pos,
                         std::size_t len)
{
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const char c = text[pos + i];
        value = (value << 4) |
                static_cast<std::uint64_t>(
                    c <= '9' ? c - '0' : c - 'a' + 10);
    }
    return value;
}

}  // namespace


log::TraceContext parse_traceparent(const std::string& header_value)
{
    // 00-<32 hex>-<16 hex>-<2 hex>: 55 characters, fixed dashes.  Version
    // 00 admits no trailing fields; "ff" is forbidden outright.
    bool nonzero = false;
    if (header_value.size() != 55 || header_value[2] != '-' ||
        header_value[35] != '-' || header_value[52] != '-') {
        return {};
    }
    if (!parse_hex_field(header_value, 0, 2, nonzero) ||
        header_value.compare(0, 2, "ff") == 0 ||
        header_value.compare(0, 2, "00") != 0) {
        return {};
    }
    if (!parse_hex_field(header_value, 3, 32, nonzero) || !nonzero) {
        return {};
    }
    log::TraceContext ctx;
    ctx.trace_high = hex_to_u64(header_value, 3, 16);
    ctx.trace_low = hex_to_u64(header_value, 19, 16);
    if (!parse_hex_field(header_value, 36, 16, nonzero) || !nonzero) {
        return {};
    }
    ctx.span_id = hex_to_u64(header_value, 36, 16);
    if (!parse_hex_field(header_value, 53, 2, nonzero)) {
        return {};
    }
    ctx.sampled = (hex_to_u64(header_value, 53, 2) & 1) != 0;
    return ctx;
}


std::string emit_traceparent(const log::TraceContext& ctx)
{
    return "traceparent: " + ctx.traceparent() + "\r\n";
}


}  // namespace mgko::serve
