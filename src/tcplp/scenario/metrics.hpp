// Standardized metric rows for the scenario engine.
//
// Every run point of every scenario produces one MetricRow — an ordered list
// of (key, value) pairs — and every consumer reads the same rendering: the
// per-figure presenters, the campaign's golden corpus, and the CI campaign
// smoke all see exactly one JSON object per line, keys in insertion order.
//
// Rows carry only simulation outputs: every field is a deterministic
// function of (spec, seed), and the golden corpus pins every field of
// every row. Host timing and host work counters (wall clock, rates,
// allocation counts, pool recycling, listener visits) belong to the
// repository benchmark (benchmark/), never to a scenario row.
//
// Determinism contract: doubles are rendered shortest-round-trip
// (std::to_chars), so a row read back from a campaign manifest as text
// reparses to the bit-identical value and re-renders to the same bytes.
// This is what makes a resumed run byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tcplp::scenario {

class MetricValue {
public:
    enum class Kind : std::uint8_t { kInt, kUint, kDouble, kBool, kString };

    MetricValue() = default;
    MetricValue(std::int64_t v) : kind_(Kind::kInt), i_(v) {}           // NOLINT
    MetricValue(int v) : kind_(Kind::kInt), i_(v) {}                    // NOLINT
    MetricValue(std::uint64_t v) : kind_(Kind::kUint), u_(v) {}         // NOLINT
    MetricValue(double v) : kind_(Kind::kDouble), d_(v) {}              // NOLINT
    MetricValue(bool v) : kind_(Kind::kBool), b_(v) {}                  // NOLINT
    MetricValue(std::string v) : kind_(Kind::kString), s_(std::move(v)) {}  // NOLINT
    MetricValue(const char* v) : kind_(Kind::kString), s_(v) {}         // NOLINT

    Kind kind() const { return kind_; }
    std::int64_t asInt() const { return i_; }
    std::uint64_t asUint() const { return u_; }
    double asDouble() const { return d_; }
    bool asBool() const { return b_; }
    const std::string& asString() const { return s_; }

    /// Numeric coercion for presenters (string -> 0).
    double number() const;

    bool operator==(const MetricValue& o) const;

private:
    // Plain members (not a union): rows are small and short-lived, and the
    // manifest decode path copies values type-agnostically.
    Kind kind_ = Kind::kInt;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    double d_ = 0.0;
    bool b_ = false;
    std::string s_;
};

/// One run point's metrics, in insertion order.
class MetricRow {
public:
    /// Sets `key`; an existing key is overwritten in place (order kept).
    MetricRow& set(const std::string& key, MetricValue value);

    const MetricValue* find(const std::string& key) const;
    /// Numeric value of `key`, or `fallback` when absent.
    double number(const std::string& key, double fallback = 0.0) const;
    const std::string& str(const std::string& key) const;

    const std::vector<std::pair<std::string, MetricValue>>& fields() const {
        return fields_;
    }
    bool operator==(const MetricRow& o) const { return fields_ == o.fields_; }

private:
    std::vector<std::pair<std::string, MetricValue>> fields_;
};

/// Shortest-round-trip double rendering (std::to_chars); non-finite values
/// render as "null" to keep the JSON valid.
std::string formatDouble(double v);

/// One JSON object, no trailing newline, keys in row order.
std::string toJsonLine(const MetricRow& row);

// --- Row frame codec --------------------------------------------------------
//
// The exact line-based text encoding of the campaign manifest's
// completed-point record:
//
//   ROW <index> <nfields>\n
//   <kind> <key> <value>\n        (kind in {i,u,d,b,s}; value to end of line)
//
// Doubles are encoded shortest-round-trip and non-finite values survive
// exactly (JSON folds them to null), so a decoded row compares equal to the
// in-process original, bit for bit.

/// Encodes one row as a complete frame (trailing newline included).
std::string encodeRowFrame(std::size_t index, const MetricRow& row);

/// Parses complete frames out of `buffer` (consuming them) into `rows`;
/// leaves any trailing incomplete frame in place. Returns false on a
/// malformed frame.
bool drainRowFrames(std::string& buffer,
                    std::vector<std::pair<std::size_t, MetricRow>>& rows);

}  // namespace tcplp::scenario
