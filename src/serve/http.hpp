// Shared POSIX HTTP plumbing for the serve:: layer.
//
// TelemetryServer proved a dependency-free HTTP endpoint can live in-tree;
// SolveServer put real traffic on it.  Both now share the hardened helpers
// here instead of each open-coding recv/send loops:
//
//   * send_all()          writes a full response even when the socket is
//                         non-blocking, the send buffer is tiny, or a
//                         signal lands mid-write: EINTR retries, EAGAIN
//                         polls for writability with a deadline, all other
//                         errnos are surfaced to the caller instead of
//                         silently truncating the response.
//   * read_http_request() reads one request without assuming it arrives in
//                         a single recv(): it accumulates until the
//                         "\r\n\r\n" header terminator (bounded), then
//                         reads Content-Length body bytes (bounded
//                         separately), with a wall-clock deadline so a
//                         stalled client cannot pin a worker.  The request
//                         line and headers are parsed into HttpRequest.
//   * listen_on()         the one socket/bind/listen path both servers
//                         start from; rejects ports outside [0, 65535],
//                         which the uint16_t port field would wrap onto
//                         other ports.
//   * http_response()     formats a full HTTP/1.0 response with
//                         Content-Length and Connection: close, plus any
//                         extra headers (e.g. Retry-After for 429s).
//   * json_response() /   the one error shape every serve:: endpoint
//     error_json()        answers with ({"error": "..."} as
//                         application/json), so clients need one parser
//                         for telemetry and solve traffic alike.
//   * parse_traceparent() W3C Trace Context propagation: servers adopt a
//     emit_traceparent()  caller's trace id from its `traceparent` header
//                         (malformed headers are ignored, never rejected),
//                         mint one when absent, and echo the context on
//                         every response (see log/trace_context.hpp and
//                         DESIGN.md §17).
//
// Servers put accepted client sockets into non-blocking mode (see
// set_nonblocking) so every wait happens in poll() under an explicit
// deadline rather than inside a blocking syscall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "config/json.hpp"
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
    ok,         ///< a complete request was parsed
    timeout,    ///< the deadline expired before the request completed (408)
    too_large,  ///< header block or body exceeded its bound (431 / 413)
    closed,     ///< the peer closed before sending a complete request
    malformed,  ///< bytes arrived but do not parse as an HTTP request (400)
    error,      ///< a socket error other than EINTR/EAGAIN
};

/// Human-readable name of a read_result (diagnostics and tests).
const char* to_string(read_result r);

/// Puts `fd` into non-blocking mode; returns false on fcntl failure.
bool set_nonblocking(int fd);

/// A listening socket and the port it is bound to.
struct Listener {
    int fd{-1};
    int port{0};
};

/// Binds a TCP socket to 0.0.0.0:`port` (0 picks an ephemeral port) and
/// listens with `backlog`; the result carries the concrete bound port.
/// Throws BadParameter naming `owner` when `port` lies outside
/// [0, 65535] or the socket cannot be created or bound.
Listener listen_on(int port, int backlog, const std::string& owner);

/// Reads one HTTP request from `fd` (which should be non-blocking):
/// accumulates until the "\r\n\r\n" header terminator — tolerating
/// arbitrary TCP segmentation, down to one byte per segment — then reads
/// the Content-Length body.  The header block is bounded by
/// `max_header_bytes`, the body by `max_body_bytes`, and the whole read by
/// `deadline_ms` of wall time.  On read_result::ok, `out` carries the
/// parsed request; on any other result its contents are unspecified.
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

/// Parses a trace id filter: 32 or 16 lowercase hex digits (the full W3C
/// trace id or just its low 64 bits — records carry the low word).
/// Returns 0 on malformed input, with `ok` false; endpoints turn that
/// into the one typed 400 every filter answers with.
std::uint64_t parse_trace_filter(const std::string& value, bool& ok);

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


}  // namespace mgko::serve
