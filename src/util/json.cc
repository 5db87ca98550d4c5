#include "util/json.hh"

#include <cstdio>
#include <cstdlib>

namespace hieragen::util
{

bool
JsonValue::asBool(bool dflt) const
{
    return type_ == Type::Bool ? bool_ : dflt;
}

double
JsonValue::asNumber(double dflt) const
{
    return type_ == Type::Number ? num_ : dflt;
}

uint64_t
JsonValue::asUint(uint64_t dflt) const
{
    if (type_ != Type::Number)
        return dflt;
    // Re-parse the source text: a 64-bit id loses low bits through
    // the double.
    return std::strtoull(text_.c_str(), nullptr, 10);
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return type_ == Type::String ? text_ : empty;
}

const std::string &
JsonValue::numberText() const
{
    static const std::string empty;
    return type_ == Type::Number ? text_ : empty;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

std::string
JsonValue::str(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->text_ : dflt;
}

uint64_t
JsonValue::uint(const std::string &key, uint64_t dflt) const
{
    const JsonValue *v = find(key);
    return v ? v->asUint(dflt) : dflt;
}

bool
JsonValue::boolean(const std::string &key, bool dflt) const
{
    const JsonValue *v = find(key);
    return v ? v->asBool(dflt) : dflt;
}

/** Recursive-descent parser over a string_view; depth-bounded so a
 *  hostile frame cannot blow the stack. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : s_(text), err_(err)
    {}

    bool
    parse(JsonValue &out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (err_)
            *err_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        char c = s_[pos_];
        switch (c) {
        case '{':
            return object(out, depth);
        case '[':
            return array(out, depth);
        case '"': {
            out.type_ = JsonValue::Type::String;
            return string(out.text_);
        }
        case 't':
            if (!literal("true"))
                return fail("bad literal");
            out.type_ = JsonValue::Type::Bool;
            out.bool_ = true;
            return true;
        case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out.type_ = JsonValue::Type::Bool;
            out.bool_ = false;
            return true;
        case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out.type_ = JsonValue::Type::Null;
            return true;
        default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.type_ = JsonValue::Type::Object;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.members_.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.type_ = JsonValue::Type::Array;
        ++pos_;  // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.items_.push_back(std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= s_.size())
                    return fail("truncated escape");
                char e = s_[++pos_];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    out.push_back(e);
                    break;
                case 'b':
                    out.push_back('\b');
                    break;
                case 'f':
                    out.push_back('\f');
                    break;
                case 'n':
                    out.push_back('\n');
                    break;
                case 'r':
                    out.push_back('\r');
                    break;
                case 't':
                    out.push_back('\t');
                    break;
                case 'u': {
                    if (pos_ + 4 >= s_.size())
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_ + 1 + i];
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            v |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            v |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                    if (v < 0x80) {
                        out.push_back(static_cast<char>(v));
                    } else {
                        // Pass through as UTF-8 (2/3-byte forms);
                        // surrogate pairs are out of scope.
                        if (v < 0x800) {
                            out.push_back(static_cast<char>(
                                0xC0 | (v >> 6)));
                        } else {
                            out.push_back(static_cast<char>(
                                0xE0 | (v >> 12)));
                            out.push_back(static_cast<char>(
                                0x80 | ((v >> 6) & 0x3F)));
                        }
                        out.push_back(
                            static_cast<char>(0x80 | (v & 0x3F)));
                    }
                    break;
                }
                default:
                    return fail("unknown escape");
                }
                ++pos_;
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < s_.size() &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            if (s_[pos_] >= '0' && s_[pos_] <= '9')
                digits = true;
            ++pos_;
        }
        if (!digits)
            return fail("expected a value");
        out.type_ = JsonValue::Type::Number;
        out.text_.assign(s_.substr(start, pos_ - start));
        out.num_ = std::strtod(out.text_.c_str(), nullptr);
        return true;
    }

    std::string_view s_;
    size_t pos_ = 0;
    std::string *err_;
};

bool
parseJson(std::string_view text, JsonValue &out, std::string *err)
{
    out = JsonValue();
    return Parser(text, err).parse(out);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof esc, "\\u%04x", c);
                out += esc;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace
{

void
writeTo(const JsonValue &v, std::string &out)
{
    switch (v.type()) {
    case JsonValue::Type::Null:
        out += "null";
        break;
    case JsonValue::Type::Bool:
        out += v.asBool() ? "true" : "false";
        break;
    case JsonValue::Type::Number:
        out += v.numberText();
        break;
    case JsonValue::Type::String:
        out += jsonQuote(v.asString());
        break;
    case JsonValue::Type::Array: {
        out.push_back('[');
        bool first = true;
        for (const JsonValue &item : v.items()) {
            if (!first)
                out.push_back(',');
            first = false;
            writeTo(item, out);
        }
        out.push_back(']');
        break;
    }
    case JsonValue::Type::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &kv : v.members()) {
            if (!first)
                out.push_back(',');
            first = false;
            out += jsonQuote(kv.first);
            out.push_back(':');
            writeTo(kv.second, out);
        }
        out.push_back('}');
        break;
    }
    }
}

} // namespace

std::string
writeJson(const JsonValue &v)
{
    std::string out;
    writeTo(v, out);
    return out;
}

} // namespace hieragen::util
