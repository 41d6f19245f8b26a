#include "sim/trace.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace scimpi::sim {

std::string Tracer::to_chrome_json() const {
    std::string out = "[\n";
    char buf[192];
    bool first = true;
    // Perfetto metadata: name the process once and every known track, so
    // timelines read "rank 3" instead of a bare thread id.
    out += R"(  {"name": "process_name", "ph": "M", "pid": 0, )"
           R"("args": {"name": "scimpi cluster"}})";
    first = false;
    for (const auto& [track, name] : track_names_) {
        out += ",\n";
        std::snprintf(buf, sizeof buf,
                      R"(  {"name": "thread_name", "ph": "M", "pid": 0, "tid": %d, )",
                      track);
        out += buf;
        out += R"("args": {"name": ")";
        obs::json_escape(out, name);
        out += R"("}})";
    }
    for (const Event& e : events_) {
        if (!first) out += ",\n";
        first = false;
        out += R"(  {"name": ")";
        obs::json_escape(out, names_.name(e.name_id));
        out += '"';
        if (e.cat_id != 0) {
            out += R"(, "cat": ")";
            obs::json_escape(out, names_.name(e.cat_id));
            out += '"';
        }
        switch (e.kind) {
            case Kind::span:
                std::snprintf(buf, sizeof buf,
                              R"(, "ph": "X", "ts": %.3f, "dur": %.3f, "pid": 0, "tid": %d)",
                              to_us(e.t0), to_us(e.t1 - e.t0), e.track);
                out += buf;
                if (e.arg != kNoArg) {
                    std::snprintf(buf, sizeof buf, R"(, "args": {"bytes": %llu})",
                                  static_cast<unsigned long long>(e.arg));
                    out += buf;
                }
                break;
            case Kind::instant:
                std::snprintf(buf, sizeof buf,
                              R"(, "ph": "i", "ts": %.3f, "pid": 0, "tid": %d, "s": "t")",
                              to_us(e.t0), e.track);
                out += buf;
                break;
            case Kind::counter:
                std::snprintf(buf, sizeof buf,
                              R"(, "ph": "C", "ts": %.3f, "pid": 0, "args": {"value": %.6g})",
                              to_us(e.t0), e.value);
                out += buf;
                break;
            case Kind::flow_start:
                std::snprintf(buf, sizeof buf,
                              R"(, "ph": "s", "ts": %.3f, "pid": 0, "tid": %d, "id": %llu)",
                              to_us(e.t0), e.track,
                              static_cast<unsigned long long>(e.arg));
                out += buf;
                break;
            case Kind::flow_end:
                // "bp": "e" binds the finish to the enclosing slice, which is
                // what Perfetto expects for arrows that land *inside* a span.
                std::snprintf(buf, sizeof buf,
                              R"(, "ph": "f", "bp": "e", "ts": %.3f, "pid": 0, "tid": %d, "id": %llu)",
                              to_us(e.t0), e.track,
                              static_cast<unsigned long long>(e.arg));
                out += buf;
                break;
        }
        out += '}';
    }
    out += "\n]\n";
    return out;
}

Status Tracer::write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status::error(Errc::io_error, "trace: cannot open '" + path +
                                                 "': " + std::strerror(errno));
    const std::string json = to_chrome_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    const int write_errno = errno;
    if (std::fclose(f) != 0)
        return Status::error(Errc::io_error, "trace: close failed for '" + path +
                                                 "': " + std::strerror(errno));
    if (!ok)
        return Status::error(Errc::io_error, "trace: short write to '" + path +
                                                 "': " + std::strerror(write_errno));
    return Status::ok();
}

}  // namespace scimpi::sim
