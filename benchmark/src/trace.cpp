#include "trace.hpp"

#include <charconv>
#include <cstdio>

namespace tcplp::bm {

Tracer* g_tracer = nullptr;

int Tracer::begin(std::string name, int parent) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return int(spans_.size() - 1);
}

std::int64_t Tracer::selfNs(int span) const {
    const Span& s = spans_[std::size_t(span)];
    std::int64_t children = 0;
    for (const Span& c : spans_) {
        if (c.parent == span) children += c.endNs - c.startNs;
    }
    return (s.endNs - s.startNs) - children;
}

void Tracer::enter(Hook h) { stack_.push_back(Frame{h, nowNs(), 0}); }

void Tracer::exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = nowNs() - f.startNs;
    const auto i = std::size_t(f.hook);
    ++hooks_.count[i];
    hooks_.ns[i] += dur;
    const bool app = f.hook < Hook::kTcpConnect;
    if (app) hooks_.appSelfNs += dur - f.childNs;
    if (!stack_.empty()) stack_.back().childNs += dur;
}

namespace {

void putNumber(std::FILE* out, double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    std::fwrite(buf, 1, std::size_t(r.ptr - buf), out);
}

}  // namespace

bool Tracer::writeChromeJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"trace_id\":\"%s\"},"
                      "\"traceEvents\":[",
                 traceId_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":",
                     i == 0 ? "" : ",", s.name.c_str());
        putNumber(out, double(s.startNs - origin) / 1e3);
        std::fputs(",\"dur\":", out);
        putNumber(out, double(s.endNs - s.startNs) / 1e3);
        std::fprintf(out, ",\"args\":{\"trace_id\":\"%s\",\"span_id\":%zu,\"parent\":%d,"
                          "\"self_us\":",
                     traceId_.c_str(), i, s.parent);
        putNumber(out, double(selfNs(int(i))) / 1e3);
        for (const auto& [key, value] : s.args) {
            std::fprintf(out, ",\"%s\":", key.c_str());
            putNumber(out, value);
        }
        std::fputs("}}", out);
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
}

}  // namespace tcplp::bm
