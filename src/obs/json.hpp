/**
 * @file
 * Minimal JSON support for the observability layer: a writer with
 * correct string escaping (used by the metrics / trace / telemetry
 * sinks) and a strict recursive-descent parser in the model_io style —
 * fatal() on malformed input, so a truncated telemetry file cannot be
 * silently half-read. Used by tests to round-trip every exported sink.
 *
 * This is deliberately not a general-purpose JSON library: documents
 * are small (metric registries, trace summaries), numbers are doubles,
 * and object key order is preserved for deterministic output.
 */
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aw::obs {

/** One parsed JSON value (tagged union; children own their storage). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member access; fatal() when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Typed accessors; fatal() on a kind mismatch. */
    double asNumber() const;
    const std::string &asString() const;
};

/** Parse a complete JSON document. fatal() on malformed input or
 *  trailing garbage. */
JsonValue parseJson(const std::string &text);

/**
 * Parse without fatal(): returns false (leaving `out` unspecified) on
 * malformed input or trailing garbage. For readers that must survive a
 * corrupt document — e.g. the result cache recovering from a torn
 * cache file — where the strict parseJson would take the process down.
 */
bool tryParseJson(std::string_view text, JsonValue &out);

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Append a double the way the sinks, the result cache and the awd wire
 * format spell it: the first of %.6g / %.12g / %.17g (written with
 * std::to_chars, or as plain digits for an integer below 10^6) that
 * reads back to exactly `v`. That is not always the shortest exact
 * form, but it is the form every stored cache key and entry uses, so
 * it must not change. Never NaN/Inf: those are clamped to 0 with a
 * warning (JSON has no NaN).
 */
void appendJsonNumber(std::string &out, double v);

/** appendJsonNumber into a fresh string. */
std::string jsonNumber(double v);

/**
 * Builds a document, key or entry in one caller-owned string,
 * ostream-style: a double is written with appendJsonNumber, an integer
 * in decimal, text as is (escaping is the caller's job). Serializers
 * reserve the string once and append through this, instead of
 * concatenating temporaries or going through an ostringstream.
 */
class TextAppender
{
  public:
    explicit TextAppender(std::string &out) : out_(out) {}

    TextAppender &operator<<(std::string_view s)
    {
        out_ += s;
        return *this;
    }
    TextAppender &operator<<(char c)
    {
        out_ += c;
        return *this;
    }
    TextAppender &operator<<(double v)
    {
        appendJsonNumber(out_, v);
        return *this;
    }
    template <std::integral Int>
    TextAppender &operator<<(Int v)
    {
        out_ += std::to_string(v);
        return *this;
    }

  private:
    std::string &out_;
};

} // namespace aw::obs
