#include "obs/trace.hh"

#include <iomanip>
#include <sstream>

namespace hieragen::obs
{

namespace
{

std::string
renderArgs(const TraceWriter::Args &args)
{
    if (args.empty())
        return {};
    std::string out = "{";
    for (size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(args[i].first);
        out += ": ";
        out += args[i].second;
    }
    out += "}";
    return out;
}

std::string
renderNumber(double v)
{
    std::ostringstream os;
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::abs(v) < 1e15) {
        os << static_cast<int64_t>(v);
    } else {
        os << std::setprecision(6) << v;
    }
    return os.str();
}

} // namespace

TraceWriter::TraceWriter() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t
TraceWriter::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
TraceWriter::push(Event &&e)
{
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(std::move(e));
}

void
TraceWriter::setThreadName(uint32_t tid, const std::string &name)
{
    push({'M', "thread_name", tid, 0, 0,
          "{\"name\": " + jsonQuote(name) + "}"});
}

void
TraceWriter::completeEvent(const std::string &name, uint32_t tid,
                           uint64_t ts_us, uint64_t dur_us, Args args)
{
    push({'X', name, tid, ts_us, dur_us, renderArgs(args)});
}

void
TraceWriter::counterEvent(
    const std::string &name, uint32_t tid, uint64_t ts_us,
    const std::vector<std::pair<std::string, double>> &series)
{
    std::string args = "{";
    for (size_t i = 0; i < series.size(); ++i) {
        if (i)
            args += ", ";
        args += jsonQuote(series[i].first);
        args += ": ";
        args += renderNumber(series[i].second);
    }
    args += "}";
    push({'C', name, tid, ts_us, 0, std::move(args)});
}

void
TraceWriter::instantEvent(const std::string &name, uint32_t tid,
                          uint64_t ts_us, Args args)
{
    push({'i', name, tid, ts_us, 0, renderArgs(args)});
}

size_t
TraceWriter::eventCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return events_.size();
}

void
TraceWriter::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lk(mu_);
    os << "{\"traceEvents\": [\n";
    // Process metadata first so viewers label the single pid.
    os << "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"hieragen\"}}";
    for (const Event &e : events_) {
        os << ",\n  {\"ph\": \"" << e.ph << "\", \"name\": "
           << jsonQuote(e.name) << ", \"pid\": 1, \"tid\": " << e.tid
           << ", \"ts\": " << e.ts;
        if (e.ph == 'X')
            os << ", \"dur\": " << e.dur;
        if (e.ph == 'i')
            os << ", \"s\": \"t\"";
        if (!e.argsJson.empty())
            os << ", \"args\": " << e.argsJson;
        os << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::string
TraceWriter::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace hieragen::obs
