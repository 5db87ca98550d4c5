/**
 * @file
 * The tree's one JSON reader and writer.
 *
 * Service frames and the daemon's job records (docs/SERVICE.md), run
 * journal lines and the perf-smoke baseline are all read with
 * parseJson(). Writing is mostly string-built, with every string
 * quoted by jsonQuote(); writeJson() re-renders a parsed tree.
 *
 * Scope: standard JSON minus surrogate pairs. A \uXXXX escape decodes
 * to the UTF-8 bytes of that BMP code point; a surrogate half is
 * encoded as-is rather than paired. Numbers keep their source text,
 * so 64-bit ids survive the double round-trip.
 */

#ifndef HIERAGEN_UTIL_JSON_HH
#define HIERAGEN_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hieragen::util
{

/** One parsed JSON value; a tree of these backs every frame. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Object, Array };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isString() const { return type_ == Type::String; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isBool() const { return type_ == Type::Bool; }

    /** Typed reads with a default for absent/mistyped values. */
    bool asBool(bool dflt = false) const;
    double asNumber(double dflt = 0.0) const;
    uint64_t asUint(uint64_t dflt = 0) const;
    const std::string &asString() const;  ///< "" unless String
    /** A number's source text ("" unless Number). */
    const std::string &numberText() const;

    /** Object member lookup; null when not an object / no member. */
    const JsonValue *find(const std::string &key) const;

    /** Convenience: member's string/uint/bool, default if absent. */
    std::string str(const std::string &key,
                    const std::string &dflt = "") const;
    uint64_t uint(const std::string &key, uint64_t dflt = 0) const;
    bool boolean(const std::string &key, bool dflt = false) const;

    /** Array elements (empty unless Array). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in source order (empty unless Object). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

  private:
    friend class Parser;
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string text_;  ///< String value, or Number source text
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Parse one JSON document. False (with @p err when given) on any
 *  syntax error or trailing garbage. */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *err = nullptr);

/** Re-render a parsed value as compact JSON (member order
 *  preserved; numbers keep their source text). */
std::string writeJson(const JsonValue &v);

/** Escape and double-quote a string for embedding in JSON. */
std::string jsonQuote(const std::string &s);

} // namespace hieragen::util

#endif // HIERAGEN_UTIL_JSON_HH
