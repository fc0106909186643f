// Shared output helpers for log/'s exporters: where the MGKO_PROFILE /
// MGKO_TRACE / MGKO_METRICS dumps land (and the flight recorder's
// MGKO_FLIGHT_* files), and how their JSON writes a number.
//
// A non-"1" destination can name a file, a directory or a path prefix;
// each dump derives a per-run file name from it, so two benches in one
// pipeline do not overwrite each other's artifacts:
//
//   "-" / "1" / "stdout"   print to stdout (dump_to_stdout)
//   "out/" or existing dir "out/mgko-<kind>-<name>.<ext>"
//   "out/run3"             "out/run3-<name>.<ext>"   (path prefix)
//   "out/run3.json"        "out/run3-<name>.json"    (extension re-applied)
//
// so MGKO_TRACE=/tmp/obs/ keeps fig5a and fig5b traces side by side while
// MGKO_TRACE=trace.json still lands next to the old behaviour, minus the
// collision.
#pragma once

#include <string>

namespace mgko::log {


/// True when `dest` selects stdout ("-", "1", or "stdout").
bool dump_to_stdout(const std::string& dest);

/// Resolves a dump destination to a concrete file path.  `kind` is the
/// artifact family ("profile", "trace", "metrics", "flight"), `name` the
/// per-run label (the bench figure id), `ext` the extension including the
/// dot (".json", ".txt").  See the table above for the rules; `dest` is
/// treated as a directory when it exists as one or ends with '/'.
std::string resolve_dump_path(const std::string& dest, const std::string& kind,
                              const std::string& name, const std::string& ext);

/// Writes `text` where the environment variable `var` points; an unset or
/// empty `var` writes nothing.  Stdout destinations print it under a
/// "=== mgko <kind> [<name>] ===" banner, any other value goes through
/// resolve_dump_path.
void dump_to_env(const char* var, const std::string& kind,
                 const std::string& name, const std::string& ext,
                 const std::string& text);

/// `value` as a JSON number token (the shortest text that reads back to
/// the same double), or `null` for NaN and infinities, which JSON cannot
/// spell — the rule config::Json::dump follows too.
std::string json_number(double value);


}  // namespace mgko::log
