// The serve:: layer's HTTP plumbing and the one server core both servers
// run on (DESIGN.md §15).
//
//   * HttpServer      the socket machinery of SolveServer and
//                     TelemetryServer: the listener, one acceptor, a
//                     bounded queue (429 + Retry-After when full), a worker
//                     pool, bounded request reads (408/431/413/400), sends
//                     with a deadline, readiness and a graceful stop().  A
//                     server on it keeps only its routes and its counters.
//   * ProcessServer   the process-wide instance behind each server's
//                     *_start / *_stop / *_active / *_port functions.
//   * read_http_request() / send_all()  one request in, one response out,
//                     under any TCP segmentation, EINTR and EAGAIN, each
//                     within a wall-clock deadline.
//   * http_response() / json_response() / error_json()  the response
//                     shapes; every error is {"error": "..."} JSON.
//   * parse_traceparent() / emit_traceparent()  W3C Trace Context in and
//                     out (log/trace_context.hpp, DESIGN.md §17).
//
// Client sockets are non-blocking, so every wait happens in poll() under
// an explicit deadline.  http.cpp is the only file in src/ that touches
// sockets; a CI step keeps it that way.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "config/json.hpp"
#include "core/exception.hpp"
#include "log/trace_context.hpp"

namespace mgko::serve {


/// One parsed HTTP request.  Header names are lowercased; values are
/// trimmed of surrounding whitespace.
struct HttpRequest {
    std::string method;
    std::string target;
    std::string version;
    std::map<std::string, std::string> headers;
    std::string body;

    /// Lowercased-name header lookup; empty string when absent.
    std::string header(const std::string& name) const
    {
        auto it = headers.find(name);
        return it == headers.end() ? std::string{} : it->second;
    }
};


/// Outcome of read_http_request.
enum class read_result {
    ok,                ///< a complete request was parsed
    timeout,           ///< the deadline expired first (408)
    header_too_large,  ///< the header block exceeded its bound (431)
    body_too_large,    ///< the declared body exceeds its bound (413)
    closed,            ///< the peer closed before a complete request
    malformed,         ///< the bytes do not parse as HTTP (400)
    error,             ///< a socket error other than EINTR/EAGAIN
};

/// Human-readable name of a read_result (diagnostics and tests).
const char* to_string(read_result r);

/// Puts `fd` into non-blocking mode; returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Reads one HTTP request from `fd` (which should be non-blocking):
/// accumulates until the "\r\n\r\n" header terminator — tolerating
/// arbitrary TCP segmentation, down to one byte per segment — then reads
/// the Content-Length body.  The header block is bounded by
/// `max_header_bytes`, the body by `max_body_bytes`, and the whole read by
/// `deadline_ms` of wall time; a server that takes no body passes
/// `max_body_bytes` 0, so any declared body is body_too_large.  On
/// read_result::ok, `out` carries the parsed request; on any other result
/// its contents are unspecified.
read_result read_http_request(int fd, HttpRequest& out,
                              std::size_t max_header_bytes = 8 * 1024,
                              std::size_t max_body_bytes = 0,
                              int deadline_ms = 1000);

/// Writes all of `data` to `fd`: retries on EINTR, polls for writability
/// on EAGAIN/EWOULDBLOCK until `deadline_ms` expires, and returns false on
/// the deadline or any other errno (the caller knows the response may be
/// truncated instead of finding out from the peer's logs).
bool send_all(int fd, const std::string& data, int deadline_ms = 5000);

/// The standard reason phrase for the status codes the serve:: layer
/// emits; "Unknown" otherwise.
const char* http_status_text(int status);

/// Formats a complete HTTP/1.0 response with Content-Type, Content-Length,
/// and Connection: close headers.  `extra_headers` is spliced verbatim
/// into the header block and must be empty or "Name: value\r\n"-shaped.
std::string http_response(int status, const char* content_type,
                          const std::string& body,
                          const std::string& extra_headers = {});

/// The structured error body every serve:: endpoint answers with:
/// {"error": message}.
config::Json error_json(const std::string& message);

/// http_response() for a JSON body (the body is dumped with a trailing
/// newline so curl output stays readable).
std::string json_response(int status, const config::Json& body,
                          const std::string& extra_headers = {});

/// Inserts one "Name: value\r\n" header line into an already formatted
/// response, just before the blank line ending the header block.  Lets a
/// server stamp a response-wide header (the traceparent echo) without
/// threading extra_headers through every route.
std::string with_response_header(std::string response,
                                 const std::string& header_line);

/// The value of `key` in a request target's "?k=v&k2=v2" query string;
/// empty when the query or the key is absent.  Shared by every endpoint
/// that takes filters (/trace.json, /v1/requests), so all of them parse
/// queries identically.
std::string query_param(const std::string& target, const std::string& key);

/// The ?trace_id= filter of a request target: 32 or 16 lowercase hex
/// digits (the full W3C trace id or just the low 64 bits records carry),
/// returned as the low word; 0 when absent.  A malformed value returns 0
/// and sets `refusal` to the typed 400 every filtering endpoint answers.
std::uint64_t trace_id_filter(const std::string& target,
                              std::string& refusal);

/// Parses a W3C `traceparent` header value
/// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") into a
/// TraceContext carrying the caller's trace id and sampled flag.  Any
/// malformed value — wrong version, wrong field lengths, non-hex or
/// uppercase characters, all-zero trace or parent id, missing fields —
/// yields a zero (invalid) context: propagation headers are ignored when
/// broken, never a reason to reject the request.
log::TraceContext parse_traceparent(const std::string& header_value);

/// The "traceparent: 00-...-...-0?\r\n" header line for `ctx`, ready for
/// extra_headers or with_response_header.
std::string emit_traceparent(const log::TraceContext& ctx);


/// Readiness of an HttpServer: accepting -> draining (stop() running; the
/// listen backlog, the queue and the requests in flight are still served)
/// -> stopped (all answered, threads joined).
enum class server_state { accepting, draining, stopped };

/// "accepting", "draining" or "stopped".
const char* to_string(server_state s);


struct HttpServerOptions {
    int port{0};  ///< 0 binds an ephemeral port
    std::string owner{"http server"};  ///< names the server in errors
    std::size_t num_workers{1};
    /// Connections waiting for a worker; past it the acceptor answers
    /// 429 + Retry-After.  The listen backlog is SOMAXCONN, so saturation
    /// shows as that status code and not as connect delay.
    std::size_t queue_capacity{16};
    /// Body bound: 413 beyond it, 0 admits no body.  Every server bounds
    /// the header block at 8 KiB (431 beyond it).
    std::size_t max_body_bytes{0};
    /// Bounds reading one request (408) and writing its response.
    int deadline_ms{1000};
    /// Routes a request read in full; called concurrently by the workers.
    std::function<std::string(const HttpRequest&)> handle;
    /// Formats the core's own answers: 429, 408/431/413/400 for requests
    /// it could not read, 500 when `handle` throws.  Empty means
    /// json_response(status, error_json(reason)).
    std::function<std::string(int status, const std::string& reason)>
        refuse;
    /// Test-only: each worker calls it after dequeuing a connection.
    std::function<void()> worker_hook;
};


/// The one accept-and-serve loop of the serve:: layer: an acceptor thread
/// admits connections into a bounded queue, and a worker pool reads each
/// request, routes it through `handle` and sends the answer.
class HttpServer {
public:
    /// Binds 0.0.0.0:`options.port` and starts the threads.  Throws
    /// BadParameter when the port lies outside [0, 65535] or cannot be
    /// bound, or when there are no workers or no queue.
    static std::unique_ptr<HttpServer> start(HttpServerOptions options);

    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// The bound port; it stays readable after stop().
    int port() const { return port_; }

    server_state state() const
    {
        return state_.load(std::memory_order_acquire);
    }

    /// Graceful shutdown, in this order: stop accepting; accept what waits
    /// in the listen backlog and admit it like any connection; close the
    /// listener, so later connects are refused rather than reset; serve
    /// the queue and the requests in flight; join.  Idempotent; the
    /// destructor calls it.
    void stop();

    struct Stats {
        std::uint64_t rejected{0};       ///< 429s: the queue was full
        std::uint64_t read_failures{0};  ///< answered 408/431/413/400
        std::uint64_t send_failures{0};  ///< answers we could not write
        std::uint64_t queue_peak{0};
    };
    Stats stats() const;

private:
    HttpServer() = default;

    void accept_loop();
    void accept_backlog();
    void admit(int fd);
    void worker_loop();
    void serve(int fd);
    std::string refusal(int status, const std::string& reason) const;

    HttpServerOptions options_;
    int listen_fd_{-1};
    int port_{0};
    int wake_fds_[2]{-1, -1};  ///< stop() writes here to wake the acceptor
    std::atomic<server_state> state_{server_state::accepting};
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<int> queue_;
    bool draining_{false};
    std::thread acceptor_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> read_failures_{0};
    std::atomic<std::uint64_t> send_failures_{0};
    std::atomic<std::uint64_t> queue_peak_{0};  ///< written under the lock
};


/// The process-wide instance of one server type, behind its *_start,
/// *_stop, *_active and *_port functions.
template <typename Server>
class ProcessServer {
public:
    /// `name` and `stop_call` word the conflicting-port error.
    ProcessServer(const char* name, const char* stop_call)
        : name_{name}, stop_call_{stop_call}
    {}

    /// Starts a server with `launch(port)` when none runs and returns the
    /// running server's port.  While one runs, port 0 ("any port")
    /// reports it and a different explicit port throws BadParameter: a
    /// second port is a conflicting configuration, not a request the
    /// running server can satisfy.
    template <typename Launch>
    int start(int port, Launch&& launch)
    {
        std::lock_guard<std::mutex> guard{mutex_};
        if (!server_) {
            server_ = launch(port);
            port_.store(server_->port(), std::memory_order_release);
        } else if (port != 0 && port != server_->port()) {
            throw BadParameter(
                __FILE__, __LINE__,
                std::string{name_} + " already running on port " +
                    std::to_string(server_->port()) + ", cannot rebind to " +
                    std::to_string(port) + " (" + stop_call_ + " it first)");
        }
        return server_->port();
    }

    /// Stops and discards the running server (a no-op when none runs);
    /// `first`, when given, runs just before under the same lock.
    void stop(void (*first)() = nullptr)
    {
        std::lock_guard<std::mutex> guard{mutex_};
        if (first != nullptr) {
            first();
        }
        port_.store(0, std::memory_order_release);
        server_.reset();
    }

    /// The running server's port; 0 when none runs.
    int port() const { return port_.load(std::memory_order_acquire); }

    /// Calls `f(server)` under the lock when a server runs.
    template <typename F>
    void visit(F&& f)
    {
        std::lock_guard<std::mutex> guard{mutex_};
        if (server_) {
            f(*server_);
        }
    }

private:
    const char* name_;
    const char* stop_call_;
    std::mutex mutex_;
    std::unique_ptr<Server> server_;
    std::atomic<int> port_{0};
};


}  // namespace mgko::serve
