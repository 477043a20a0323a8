// Standardized metric rows for the scenario engine.
//
// Every run point of every scenario produces one MetricRow — an ordered list
// of (key, value) pairs — and every consumer reads the same rendering: the
// per-figure presenters, the campaign's golden corpus, and the CI sweep
// smoke all see exactly one JSON object per line, keys in insertion order.
// The 23 bench binaries used to hand-roll this formatting ad hoc; this is
// the one shared implementation.
//
// Determinism contract: doubles are rendered shortest-round-trip
// (std::to_chars), so a row that crosses the sweep worker pipe as text
// reparses to the bit-identical value and re-renders to the same bytes.
// This is what makes `--jobs N` output byte-identical to `--jobs 1`.
#pragma once

#include <cstdint>
#include <functional>
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
    // worker-pipe decode path copies values type-agnostically.
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

/// Writes `rows` as JSON lines to `path` (one object per line).
bool writeJsonLines(const std::string& path, const std::vector<MetricRow>& rows);

// --- Timing-field canonicalization ----------------------------------------
//
// A handful of metric keys record *host* observations (worker-process
// timings, throughput rates, allocation counts). They are the only
// fields of a row that legitimately differ between two runs of the same
// (spec, seed), so every determinism consumer — campaign output, the golden
// regression corpus, the jobs-N-vs-serial identity checks — strips them
// before comparing or persisting. The list is a fixed convention (documented
// in docs/SCENARIOS.md):
//
//   exact:  wall_ms, cores, speedup, auto_speedup
//   suffix: *_per_sec, *_ns_per_event, *_wall_ms, *_allocs_per_frame
//
// Simulated-time metrics (rtt_median_ms, ...) are NOT timing fields: they
// are deterministic outputs of the simulation and must be pinned.

/// True if `key` names a wall-clock/timing field per the list above.
bool isTimingField(const std::string& key);

/// Copy of `row` with every timing field removed (insertion order kept).
MetricRow stripTimingFields(const MetricRow& row);

/// toJsonLine(stripTimingFields(row)) — the canonical rendering used by the
/// campaign artifacts and the golden corpus.
std::string toCanonicalJsonLine(const MetricRow& row);

// --- Row frame codec --------------------------------------------------------
//
// The exact line-based text encoding a MetricRow uses to cross a sweep
// worker's pipe, and (unchanged) the campaign manifest's completed-point
// record:
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
/// leaves any trailing incomplete frame in place. Lines of the form
/// "BEGIN <index>" are reported through `onBegin` (when non-null) and
/// consumed — the worker protocol writes one before each run point so the
/// parent can name the in-flight point of a crashed worker. `onRowParsed`
/// fires as each complete ROW frame lands, IN STREAM ORDER relative to
/// onBegin (one drain call may contain several BEGIN/ROW pairs plus a
/// trailing unanswered BEGIN). Returns false on a malformed frame.
bool drainRowFrames(std::string& buffer,
                    std::vector<std::pair<std::size_t, MetricRow>>& rows,
                    const std::function<void(std::size_t)>& onBegin = nullptr,
                    const std::function<void(std::size_t)>& onRowParsed = nullptr);

}  // namespace tcplp::scenario
