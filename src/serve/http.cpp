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
#include <utility>

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

/// Appends to `out` what one recv() of at most `want` bytes returns,
/// waiting out EINTR and EAGAIN until `deadline`: ok once bytes arrived,
/// otherwise closed, timeout or error.
read_result recv_more(int fd, std::string& out, std::size_t want,
                      clock::time_point deadline)
{
    char buffer[16 * 1024];
    for (;;) {
        const ssize_t received =
            ::recv(fd, buffer, std::min(want, sizeof(buffer)), 0);
        if (received > 0) {
            out.append(buffer, static_cast<std::size_t>(received));
            return read_result::ok;
        }
        if (received == 0) {
            return read_result::closed;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!wait_ready(fd, POLLIN, deadline)) {
                return read_result::timeout;
            }
        } else if (errno != EINTR) {
            return read_result::error;
        }
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
    static const char* const names[] = {
        "ok",     "timeout",   "header_too_large", "body_too_large",
        "closed", "malformed", "error"};
    return names[static_cast<int>(r)];
}


bool set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
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
            return read_result::header_too_large;
        }
        // Search from just before the old tail so a terminator split
        // across recv() calls is still found.
        const std::size_t scan_from = data.size() < 3 ? 0 : data.size() - 3;
        if (const auto r = recv_more(fd, data, 4096, deadline);
            r != read_result::ok) {
            return r;
        }
        header_end = data.find("\r\n\r\n", scan_from);
    }
    if (header_end > max_header_bytes) {
        return read_result::header_too_large;
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
        return read_result::body_too_large;
    }
    out.body = data.substr(header_end + 4);
    if (out.body.size() > body_size) {
        // More bytes than declared: a pipelined or confused client.
        out.body.resize(body_size);
    }
    while (out.body.size() < body_size) {
        if (const auto r = recv_more(fd, out.body,
                                     body_size - out.body.size(), deadline);
            r != read_result::ok) {
            return r;
        }
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
    static const std::pair<int, const char*> texts[] = {
        {200, "OK"},
        {400, "Bad Request"},
        {404, "Not Found"},
        {405, "Method Not Allowed"},
        {408, "Request Timeout"},
        {413, "Payload Too Large"},
        {429, "Too Many Requests"},
        {431, "Request Header Fields Too Large"},
        {500, "Internal Server Error"},
        {503, "Service Unavailable"}};
    for (const auto& [code, text] : texts) {
        if (code == status) {
            return text;
        }
    }
    return "Unknown";
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


std::uint64_t trace_id_filter(const std::string& target,
                              std::string& refusal)
{
    const auto value = query_param(target, "trace_id");
    bool nonzero = false;
    if (value.empty()) {
        return 0;
    }
    if ((value.size() != 16 && value.size() != 32) ||
        !parse_hex_field(value, 0, value.size(), nonzero)) {
        refusal = json_response(
            400, error_json("trace_id must be 16 or 32 lowercase hex "
                            "characters"));
        return 0;
    }
    return hex_to_u64(value, value.size() - 16, 16);
}


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


const char* to_string(server_state s)
{
    static const char* const names[] = {"accepting", "draining", "stopped"};
    return names[static_cast<int>(s)];
}


std::unique_ptr<HttpServer> HttpServer::start(HttpServerOptions options)
{
    std::unique_ptr<HttpServer> server{new HttpServer{}};
    auto& self = *server;
    self.options_ = std::move(options);
    const std::string& owner = self.options_.owner;
    MGKO_ENSURE(self.options_.num_workers > 0 &&
                    self.options_.queue_capacity > 0,
                owner + " needs >= 1 worker and a queue of >= 1");
    // Unchecked, the uint16_t port field wraps these onto other ports.
    if (self.options_.port < 0 || self.options_.port > 65535) {
        throw BadParameter(__FILE__, __LINE__,
                           owner + ": port " +
                               std::to_string(self.options_.port) +
                               " is outside [0, 65535]");
    }
    self.listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MGKO_ENSURE(self.listen_fd_ >= 0, owner + ": cannot create socket");
    const int reuse = 1;
    ::setsockopt(self.listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                 sizeof(reuse));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_ANY);
    address.sin_port = htons(static_cast<std::uint16_t>(self.options_.port));
    socklen_t length = sizeof(address);
    auto* raw_address = reinterpret_cast<sockaddr*>(&address);
    // The kernel backlog is as deep as the system allows, so a burst past
    // queue_capacity reaches the acceptor and gets its 429 instead of
    // waiting out a SYN retransmit in the kernel.
    MGKO_ENSURE(::bind(self.listen_fd_, raw_address, length) == 0 &&
                    ::listen(self.listen_fd_, SOMAXCONN) == 0 &&
                    ::getsockname(self.listen_fd_, raw_address, &length) == 0,
                owner + ": cannot bind port " +
                    std::to_string(self.options_.port));
    self.port_ = static_cast<int>(ntohs(address.sin_port));
    // A non-blocking listener lets accept_backlog() stop at EAGAIN.
    MGKO_ENSURE(set_nonblocking(self.listen_fd_) && ::pipe(self.wake_fds_) == 0,
                owner + ": cannot set up the listener");
    for (std::size_t w = 0; w < self.options_.num_workers; ++w) {
        self.workers_.emplace_back([&self] { self.worker_loop(); });
    }
    self.acceptor_ = std::thread{[&self] { self.accept_loop(); }};
    return server;
}


HttpServer::~HttpServer() { stop(); }


void HttpServer::accept_loop()
{
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    for (;;) {
        if (::poll(fds, 2, -1) <= 0) {
            continue;  // EINTR
        }
        if (fds[1].revents != 0) {
            return;  // woken by stop(), which accepts what is left itself
        }
        if ((fds[0].revents & POLLIN) != 0) {
            accept_backlog();
        }
    }
}


void HttpServer::accept_backlog()
{
    for (;;) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client >= 0) {
            admit(client);
        } else if (errno != EINTR && errno != ECONNABORTED) {
            return;  // EAGAIN: the backlog is empty
        }
    }
}


void HttpServer::admit(int fd)
{
    set_nonblocking(fd);
    {
        std::lock_guard<std::mutex> guard{queue_mutex_};
        if (queue_.size() < options_.queue_capacity) {
            queue_.push_back(fd);
            queue_peak_.store(std::max<std::uint64_t>(queue_peak_.load(),
                                                      queue_.size()));
            queue_cv_.notify_one();
            return;
        }
    }
    // Backpressure: answer 429 at once instead of queueing unboundedly.
    // The short send deadline keeps the acceptor responsive even against
    // a client that does not read.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    send_all(fd,
             with_response_header(
                 refusal(429, "server saturated, retry later"),
                 "Retry-After: 1\r\n"),
             250);
    ::close(fd);
}


void HttpServer::worker_loop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock{queue_mutex_};
            queue_cv_.wait(lock,
                           [this] { return !queue_.empty() || draining_; });
            if (queue_.empty()) {
                return;  // draining and nothing left: graceful exit
            }
            fd = queue_.front();
            queue_.pop_front();
        }
        if (options_.worker_hook) {
            options_.worker_hook();
        }
        serve(fd);
    }
}


void HttpServer::serve(int fd)
{
    HttpRequest request;
    const auto result =
        read_http_request(fd, request, 8 * 1024, options_.max_body_bytes,
                          options_.deadline_ms);
    std::string response;
    if (result == read_result::ok) {
        try {
            response = options_.handle(request);
        } catch (const std::exception& e) {
            response = refusal(500, e.what());
        }
    } else if (result != read_result::closed && result != read_result::error) {
        read_failures_.fetch_add(1, std::memory_order_relaxed);
        response =
            result == read_result::timeout ? refusal(408, "request timeout")
            : result == read_result::header_too_large
                ? refusal(431, "request header fields too large")
            : result == read_result::body_too_large
                ? refusal(413, "request body too large")
                : refusal(400, "malformed request");
    }
    if (!response.empty() && !send_all(fd, response, options_.deadline_ms)) {
        send_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
}


std::string HttpServer::refusal(int status, const std::string& reason) const
{
    return options_.refuse ? options_.refuse(status, reason)
                           : json_response(status, error_json(reason));
}


void HttpServer::stop()
{
    auto expected = server_state::accepting;
    if (!state_.compare_exchange_strong(expected, server_state::draining)) {
        return;
    }
    // Clients whose connect() returned wait in the listen backlog, and
    // closing the listener would reset them: accept and admit them first.
    if (acceptor_.joinable()) {
        [[maybe_unused]] const ssize_t woken = ::write(wake_fds_[1], "x", 1);
        acceptor_.join();
        accept_backlog();
    }
    for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
    {
        std::lock_guard<std::mutex> guard{queue_mutex_};
        draining_ = true;
    }
    queue_cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
    workers_.clear();
    state_.store(server_state::stopped, std::memory_order_release);
}


HttpServer::Stats HttpServer::stats() const
{
    return {rejected_.load(std::memory_order_relaxed),
            read_failures_.load(std::memory_order_relaxed),
            send_failures_.load(std::memory_order_relaxed),
            queue_peak_.load(std::memory_order_relaxed)};
}


}  // namespace mgko::serve
