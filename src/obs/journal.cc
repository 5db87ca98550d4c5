#include "obs/journal.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/trace.hh"

namespace hieragen::obs
{

namespace
{

/**
 * Minimal tokenizer over one flat journal line: walks the top-level
 * object key by key, respecting string escapes and balanced nested
 * containers, and returns the raw value text for @p key. Journal
 * records are flat objects we wrote ourselves, but detail strings may
 * contain braces or colons, so a plain substring search is not safe.
 */
std::string
topLevelField(const std::string &line, const std::string &key)
{
    size_t i = 0;
    const size_t n = line.size();
    auto skipWs = [&] {
        while (i < n && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto skipString = [&]() -> size_t {
        // line[i] == '"'; returns index one past the closing quote.
        size_t j = i + 1;
        while (j < n) {
            if (line[j] == '\\')
                j += 2;
            else if (line[j] == '"')
                return j + 1;
            else
                ++j;
        }
        return n;
    };
    skipWs();
    if (i >= n || line[i] != '{')
        return "";
    ++i;
    while (i < n) {
        skipWs();
        if (i >= n || line[i] == '}')
            return "";
        if (line[i] != '"')
            return "";
        size_t keyStart = i + 1;
        size_t keyEnd = skipString();
        std::string k = line.substr(keyStart, keyEnd - keyStart - 1);
        i = keyEnd;
        skipWs();
        if (i >= n || line[i] != ':')
            return "";
        ++i;
        skipWs();
        size_t valStart = i;
        if (i < n && line[i] == '"') {
            i = skipString();
        } else if (i < n && (line[i] == '{' || line[i] == '[')) {
            int depth = 0;
            while (i < n) {
                char c = line[i];
                if (c == '"') {
                    i = skipString();
                    continue;
                }
                if (c == '{' || c == '[')
                    ++depth;
                else if (c == '}' || c == ']') {
                    --depth;
                    if (depth == 0) {
                        ++i;
                        break;
                    }
                }
                ++i;
            }
        } else {
            while (i < n && line[i] != ',' && line[i] != '}')
                ++i;
            while (i > valStart &&
                   std::isspace(static_cast<unsigned char>(line[i - 1])))
                --i;
        }
        if (k == key)
            return line.substr(valStart, i - valStart);
        skipWs();
        if (i < n && line[i] == ',')
            ++i;
    }
    return "";
}

std::string
unquoteJson(const std::string &v)
{
    if (v.size() < 2 || v.front() != '"' || v.back() != '"')
        return "";
    std::string out;
    out.reserve(v.size() - 2);
    const size_t end = v.size() - 1;  // the closing quote
    for (size_t i = 1; i < end; ++i) {
        if (v[i] != '\\' || i + 1 >= end) {
            out.push_back(v[i]);
            continue;
        }
        switch (v[++i]) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
            // jsonQuote writes control bytes as \u00XX; decode any
            // BMP code point to UTF-8 (surrogate pairs are out of
            // scope, as in the service's JSON reader).
            if (i + 4 >= end)
                return out;
            unsigned cp = 0;
            for (int k = 0; k < 4; ++k) {
                char h = v[++i];
                if (!std::isxdigit(static_cast<unsigned char>(h)))
                    return out;
                cp = cp << 4 |
                     static_cast<unsigned>(h <= '9' ? h - '0'
                                                    : (h | 0x20) - 'a' + 10);
            }
            if (cp < 0x80) {
                out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
                out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
                out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                out.push_back(
                    static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
        }
        default: out.push_back(v[i]); break;  // \" \\ \/
        }
    }
    return out;
}

constexpr const char *kCkMarker = ",\"ck\":\"";

} // namespace

std::string
JournalRecord::field(const std::string &key) const
{
    return topLevelField(line, key);
}

uint64_t
JournalRecord::fieldU64(const std::string &key, uint64_t def) const
{
    std::string v = field(key);
    if (v.empty())
        return def;
    errno = 0;
    char *end = nullptr;
    unsigned long long r = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str())
        return def;
    return r;
}

std::string
JournalRecord::fieldString(const std::string &key) const
{
    return unquoteJson(field(key));
}

const JournalRecord *
JournalReplay::last(const std::string &kind) const
{
    for (auto it = records.rbegin(); it != records.rend(); ++it)
        if (it->kind == kind)
            return &*it;
    return nullptr;
}

uint64_t
JournalReplay::count(const std::string &kind) const
{
    uint64_t n = 0;
    for (const auto &r : records)
        if (r.kind == kind)
            ++n;
    return n;
}

bool
Journal::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
    seq_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    return out_.open(path);
}

uint64_t
Journal::recordsWritten() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
}

void
Journal::event(const std::string &kind,
               const std::vector<std::pair<std::string, std::string>>
                   &fields,
               bool durable)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!out_.isOpen())
        return;
    auto now = std::chrono::steady_clock::now();
    uint64_t tMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                              epoch_)
            .count());
    uint64_t ts = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    std::string line;
    line.reserve(128);
    line += "{\"seq\":";
    line += std::to_string(seq_);
    line += ",\"t_ms\":";
    line += std::to_string(tMs);
    line += ",\"ts\":";
    line += std::to_string(ts);
    line += ",\"kind\":";
    line += jsonQuote(kind);
    for (const auto &kv : fields) {
        line += ',';
        line += jsonQuote(kv.first);
        line += ':';
        line += kv.second.empty() ? std::string("null") : kv.second;
    }
    // Checksum everything written so far (the record body); replay
    // recomputes over the same prefix. 16 hex digits, then close.
    uint64_t ck = util::fnv1a64(line.data(), line.size());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(ck));
    line += kCkMarker;
    line += buf;
    line += "\"}";
    if (out_.appendLine(line)) {
        ++seq_;
        if (durable)
            out_.sync();
    }
}

JournalReplay
Journal::replay(const std::string &path)
{
    JournalReplay out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        size_t pos = line.rfind(kCkMarker);
        bool good = false;
        if (pos != std::string::npos &&
            line.size() == pos + std::strlen(kCkMarker) + 16 + 2 &&
            line.compare(line.size() - 2, 2, "\"}") == 0) {
            uint64_t want = util::fnv1a64(line.data(), pos);
            char buf[17];
            std::memcpy(buf, line.data() + pos + std::strlen(kCkMarker),
                        16);
            buf[16] = '\0';
            char *end = nullptr;
            uint64_t got = std::strtoull(buf, &end, 16);
            good = (end == buf + 16) && (got == want);
        }
        if (!good) {
            ++out.droppedLines;
            continue;
        }
        JournalRecord rec;
        rec.line = line;
        rec.seq = rec.fieldU64("seq");
        rec.tMs = rec.fieldU64("t_ms");
        rec.kind = rec.fieldString("kind");
        if (rec.kind == "run_start")
            ++out.runStarts;
        if (rec.kind == "verdict") {
            out.hasVerdict = true;
            out.verdictOk = rec.field("ok") == "true";
            out.verdictKind = rec.fieldString("error_kind");
            out.statesExplored = rec.fieldU64("states_explored");
        }
        out.records.push_back(std::move(rec));
    }
    return out;
}

} // namespace hieragen::obs
