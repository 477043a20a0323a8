#include "tcplp/scenario/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "tcplp/common/assert.hpp"

namespace tcplp::scenario {

double MetricValue::number() const {
    switch (kind_) {
        case Kind::kInt: return double(i_);
        case Kind::kUint: return double(u_);
        case Kind::kDouble: return d_;
        case Kind::kBool: return b_ ? 1.0 : 0.0;
        case Kind::kString: return 0.0;
    }
    return 0.0;
}

bool MetricValue::operator==(const MetricValue& o) const {
    if (kind_ != o.kind_) return false;
    switch (kind_) {
        case Kind::kInt: return i_ == o.i_;
        case Kind::kUint: return u_ == o.u_;
        case Kind::kDouble:
            // NaN equals NaN: the determinism tests compare rows read back
            // from a manifest against rows computed in-process.
            return (std::isnan(d_) && std::isnan(o.d_)) || d_ == o.d_;
        case Kind::kBool: return b_ == o.b_;
        case Kind::kString: return s_ == o.s_;
    }
    return false;
}

MetricRow& MetricRow::set(const std::string& key, MetricValue value) {
    for (auto& [k, v] : fields_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    fields_.emplace_back(key, std::move(value));
    return *this;
}

const MetricValue* MetricRow::find(const std::string& key) const {
    for (const auto& [k, v] : fields_) {
        if (k == key) return &v;
    }
    return nullptr;
}

double MetricRow::number(const std::string& key, double fallback) const {
    const MetricValue* v = find(key);
    return v ? v->number() : fallback;
}

const std::string& MetricRow::str(const std::string& key) const {
    static const std::string kEmpty;
    const MetricValue* v = find(key);
    return v && v->kind() == MetricValue::Kind::kString ? v->asString() : kEmpty;
}

std::string formatDouble(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

namespace {
void appendEscaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}
}  // namespace

std::string toJsonLine(const MetricRow& row) {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : row.fields()) {
        if (!first) out += ',';
        first = false;
        appendEscaped(out, key);
        out += ':';
        switch (value.kind()) {
            case MetricValue::Kind::kInt:
                out += std::to_string(value.asInt());
                break;
            case MetricValue::Kind::kUint:
                out += std::to_string(value.asUint());
                break;
            case MetricValue::Kind::kDouble:
                out += formatDouble(value.asDouble());
                break;
            case MetricValue::Kind::kBool:
                out += value.asBool() ? "true" : "false";
                break;
            case MetricValue::Kind::kString:
                appendEscaped(out, value.asString());
                break;
        }
    }
    out += '}';
    return out;
}

// --- Row frame codec --------------------------------------------------------

namespace {

void appendFrameField(std::string& out, const std::string& key, const MetricValue& v) {
    TCPLP_ASSERT(key.find(' ') == std::string::npos &&
                 key.find('\n') == std::string::npos);
    switch (v.kind()) {
        case MetricValue::Kind::kInt:
            out += "i " + key + ' ' + std::to_string(v.asInt());
            break;
        case MetricValue::Kind::kUint:
            out += "u " + key + ' ' + std::to_string(v.asUint());
            break;
        case MetricValue::Kind::kDouble: {
            // The frame encoding is distinct from the JSON rendering:
            // non-finite values must survive the round trip exactly (JSON
            // folds them all to null), or presenter arithmetic over resumed
            // rows would diverge from the uninterrupted run.
            const double d = v.asDouble();
            out += "d " + key + ' ';
            if (std::isnan(d)) {
                out += "nan";
            } else if (std::isinf(d)) {
                out += d > 0 ? "inf" : "-inf";
            } else {
                out += formatDouble(d);
            }
            break;
        }
        case MetricValue::Kind::kBool:
            out += std::string("b ") + key + ' ' + (v.asBool() ? "1" : "0");
            break;
        case MetricValue::Kind::kString:
            TCPLP_ASSERT(v.asString().find('\n') == std::string::npos);
            out += "s " + key + ' ' + v.asString();
            break;
    }
    out += '\n';
}

bool parseFrameValue(char kind, const std::string& text, MetricValue& out) {
    switch (kind) {
        case 'i': {
            std::int64_t v = 0;
            const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
            if (res.ec != std::errc()) return false;
            out = MetricValue(v);
            return true;
        }
        case 'u': {
            std::uint64_t v = 0;
            const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
            if (res.ec != std::errc()) return false;
            out = MetricValue(v);
            return true;
        }
        case 'd': {
            if (text == "nan") {
                out = MetricValue(std::nan(""));
                return true;
            }
            if (text == "inf" || text == "-inf") {
                const double inf = std::numeric_limits<double>::infinity();
                out = MetricValue(text[0] == '-' ? -inf : inf);
                return true;
            }
            double v = 0.0;
            const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
            if (res.ec != std::errc()) return false;
            out = MetricValue(v);
            return true;
        }
        case 'b':
            out = MetricValue(text == "1");
            return true;
        case 's':
            out = MetricValue(text);
            return true;
        default: return false;
    }
}

}  // namespace

std::string encodeRowFrame(std::size_t index, const MetricRow& row) {
    std::string out = "ROW " + std::to_string(index) + ' ' +
                      std::to_string(row.fields().size()) + '\n';
    for (const auto& [key, value] : row.fields()) appendFrameField(out, key, value);
    return out;
}

bool drainRowFrames(std::string& buffer,
                    std::vector<std::pair<std::size_t, MetricRow>>& rows) {
    for (;;) {
        // A frame is (1 + nfields) lines; wait until all of them arrived.
        const std::size_t headerEnd = buffer.find('\n');
        if (headerEnd == std::string::npos) return true;
        const std::string header = buffer.substr(0, headerEnd);
        if (header.rfind("ROW ", 0) != 0) return false;
        std::size_t index = 0, nfields = 0;
        if (std::sscanf(header.c_str(), "ROW %zu %zu", &index, &nfields) != 2)
            return false;

        std::size_t pos = headerEnd + 1;
        std::vector<std::pair<std::size_t, std::size_t>> lines;  // (start, end)
        for (std::size_t f = 0; f < nfields; ++f) {
            const std::size_t end = buffer.find('\n', pos);
            if (end == std::string::npos) return true;  // incomplete: wait
            lines.emplace_back(pos, end);
            pos = end + 1;
        }

        MetricRow row;
        for (const auto& [start, end] : lines) {
            const std::string line = buffer.substr(start, end - start);
            if (line.size() < 3 || line[1] != ' ') return false;
            const char kind = line[0];
            const std::size_t keyEnd = line.find(' ', 2);
            if (keyEnd == std::string::npos) return false;
            const std::string key = line.substr(2, keyEnd - 2);
            MetricValue value;
            if (!parseFrameValue(kind, line.substr(keyEnd + 1), value)) return false;
            row.set(key, value);
        }
        rows.emplace_back(index, std::move(row));
        buffer.erase(0, pos);
    }
}

}  // namespace tcplp::scenario
