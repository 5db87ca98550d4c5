#include "obs/journal.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/trace.hh"
#include "util/json.hh"

namespace hieragen::obs
{

namespace
{

constexpr const char *kCkMarker = ",\"ck\":\"";

/** A journal line as a JSON object; null when it does not parse. */
util::JsonValue
parseLine(const std::string &line)
{
    util::JsonValue v;
    if (!util::parseJson(line, v) || !v.isObject())
        v = util::JsonValue();
    return v;
}

} // namespace

std::string
JournalRecord::field(const std::string &key) const
{
    util::JsonValue v = parseLine(line);
    const util::JsonValue *f = v.find(key);
    return f ? util::writeJson(*f) : "";
}

uint64_t
JournalRecord::fieldU64(const std::string &key, uint64_t def) const
{
    return parseLine(line).uint(key, def);
}

std::string
JournalRecord::fieldString(const std::string &key) const
{
    return parseLine(line).str(key);
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
        util::JsonValue v = good ? parseLine(line) : util::JsonValue();
        if (!v.isObject()) {
            ++out.droppedLines;
            continue;
        }
        JournalRecord rec;
        rec.line = line;
        rec.seq = v.uint("seq");
        rec.tMs = v.uint("t_ms");
        rec.kind = v.str("kind");
        if (rec.kind == "run_start")
            ++out.runStarts;
        if (rec.kind == "verdict") {
            out.hasVerdict = true;
            out.verdictOk = v.boolean("ok");
            out.verdictKind = v.str("error_kind");
            out.statesExplored = v.uint("states_explored");
        }
        out.records.push_back(std::move(rec));
    }
    return out;
}

} // namespace hieragen::obs
