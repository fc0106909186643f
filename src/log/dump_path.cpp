#include "log/dump_path.hpp"

#include <sys/stat.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace mgko::log {

namespace {

bool is_directory(const std::string& path)
{
    struct stat info{};
    return ::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode);
}

bool ends_with(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

}  // namespace


bool dump_to_stdout(const std::string& dest)
{
    return dest == "-" || dest == "1" || dest == "stdout";
}


std::string resolve_dump_path(const std::string& dest, const std::string& kind,
                              const std::string& name, const std::string& ext)
{
    if (dest.empty()) {
        return "mgko-" + kind + "-" + name + ext;
    }
    if (ends_with(dest, "/") || is_directory(dest)) {
        std::string dir = dest;
        if (!ends_with(dir, "/")) {
            dir += '/';
        }
        return dir + "mgko-" + kind + "-" + name + ext;
    }
    std::string prefix = dest;
    if (ends_with(prefix, ext)) {
        prefix.resize(prefix.size() - ext.size());
    }
    return prefix + "-" + name + ext;
}


void dump_to_env(const char* var, const std::string& kind,
                 const std::string& name, const std::string& ext,
                 const std::string& text)
{
    const char* value = std::getenv(var);
    if (value == nullptr || *value == '\0') {
        return;
    }
    const std::string dest{value};
    const char* newline = ends_with(text, "\n") ? "" : "\n";
    if (dump_to_stdout(dest)) {
        std::cout << "=== mgko " << kind << " [" << name << "] ===\n"
                  << text << newline << std::flush;
        return;
    }
    const auto path = resolve_dump_path(dest, kind, name, ext);
    std::ofstream out{path};
    if (out) {
        out << text << newline;
    } else {
        std::cerr << "mgko: cannot write " << kind << " to '" << path
                  << "'\n";
    }
}


std::string json_number(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string{buffer, result.ptr};
}


}  // namespace mgko::log
