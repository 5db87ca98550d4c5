#include "svc/proto.hh"

#include <sstream>

#include "obs/trace.hh"
#include "protocols/registry.hh"

namespace hieragen::svc
{

namespace
{

const char *
modeName(ConcurrencyMode m)
{
    switch (m) {
    case ConcurrencyMode::Atomic:
        return "atomic";
    case ConcurrencyMode::Stalling:
        return "stalling";
    case ConcurrencyMode::NonStalling:
        return "nonstalling";
    }
    return "nonstalling";
}

bool
modeFromName(const std::string &name, ConcurrencyMode &out)
{
    if (name == "atomic")
        out = ConcurrencyMode::Atomic;
    else if (name == "stalling")
        out = ConcurrencyMode::Stalling;
    else if (name == "nonstalling" || name == "non-stalling")
        out = ConcurrencyMode::NonStalling;
    else
        return false;
    return true;
}

bool
isBuiltinName(const std::string &name)
{
    for (const std::string &n : protocols::builtinNames())
        if (n == name)
            return true;
    return name == "MSI_SE";  // registered but not listed
}

} // namespace

std::string
jobSpecToJson(const api::JobSpec &spec)
{
    std::ostringstream os;
    os << "{\"lower\":" << obs::jsonQuote(spec.lowerName)
       << ",\"higher\":" << obs::jsonQuote(spec.higherName)
       << ",\"lower_dsl\":" << obs::jsonQuote(spec.lowerDsl)
       << ",\"higher_dsl\":" << obs::jsonQuote(spec.higherDsl)
       << ",\"mode\":\"" << modeName(spec.mode) << "\""
       << ",\"optimized_compat\":"
       << (spec.optimizedCompat ? "true" : "false")
       << ",\"merge_states\":"
       << (spec.mergeEquivalentStates ? "true" : "false")
       << ",\"dir_cache_evictions\":"
       << (spec.dirCacheEvictions ? "true" : "false")
       << ",\"num_cache_h\":" << spec.numCacheH
       << ",\"num_cache_l\":" << spec.numCacheL
       << ",\"max_states\":" << spec.maxStates
       << ",\"threads\":" << spec.threads
       << ",\"label\":" << obs::jsonQuote(spec.label) << "}";
    return os.str();
}

bool
jobSpecFromJson(const JsonValue &v, api::JobSpec &out, Error *err)
{
    if (!v.isObject()) {
        if (err)
            *err = Error(ErrorKind::BadRequest,
                         "spec must be a JSON object");
        return false;
    }
    out = api::JobSpec{};
    out.lowerName = v.str("lower");
    out.higherName = v.str("higher");
    out.lowerDsl = v.str("lower_dsl");
    out.higherDsl = v.str("higher_dsl");
    std::string mode = v.str("mode", "nonstalling");
    if (!modeFromName(mode, out.mode)) {
        if (err)
            *err = Error(ErrorKind::BadRequest,
                         "unknown mode '" + mode +
                             "' (atomic|stalling|nonstalling)");
        return false;
    }
    out.optimizedCompat = v.boolean("optimized_compat", false);
    out.mergeEquivalentStates = v.boolean("merge_states", true);
    out.dirCacheEvictions = v.boolean("dir_cache_evictions", true);
    out.numCacheH = static_cast<int>(v.uint("num_cache_h", 1));
    out.numCacheL = static_cast<int>(v.uint("num_cache_l", 1));
    out.maxStates = v.uint("max_states", 0);
    out.threads = static_cast<unsigned>(v.uint("threads", 1));
    out.label = v.str("label");
    Error e = validateJobSpec(out);
    if (e) {
        if (err)
            *err = std::move(e);
        return false;
    }
    return true;
}

Error
validateJobSpec(const api::JobSpec &spec)
{
    if (spec.lowerName.empty() && spec.lowerDsl.empty())
        return Error(ErrorKind::SpecError,
                     "no lower SSP: set 'lower' (builtin name) or "
                     "'lower_dsl' (inline source)");
    if (spec.higherName.empty() && spec.higherDsl.empty())
        return Error(ErrorKind::SpecError,
                     "no higher SSP: set 'higher' (builtin name) or "
                     "'higher_dsl' (inline source)");
    if (!spec.lowerName.empty() && !isBuiltinName(spec.lowerName))
        return Error(ErrorKind::SpecError,
                     "unknown builtin SSP '" + spec.lowerName + "'");
    if (!spec.higherName.empty() && !isBuiltinName(spec.higherName))
        return Error(ErrorKind::SpecError,
                     "unknown builtin SSP '" + spec.higherName + "'");
    if (spec.numCacheH < 1 || spec.numCacheL < 1 ||
        spec.numCacheH > 16 || spec.numCacheL > 16)
        return Error(ErrorKind::BadRequest,
                     "cache counts must be in [1,16]");
    if (spec.threads > 256)
        return Error(ErrorKind::BadRequest, "threads must be <= 256");
    return Error();
}

std::string
jobStatusToJson(const api::JobStatus &st)
{
    std::ostringstream os;
    os << "{\"id\":" << st.handle.id << ",\"state\":\""
       << api::jobStateName(st.state) << "\"";
    if (st.error)
        os << ",\"error\":" << errorToJson(st.error);
    if (!st.label.empty())
        os << ",\"label\":" << obs::jsonQuote(st.label);
    os << ",\"cache_hit\":" << (st.cacheHit ? "true" : "false")
       << ",\"verify_ok\":" << (st.verifyOk ? "true" : "false")
       << ",\"states_explored\":" << st.statesExplored
       << ",\"states_generated\":" << st.statesGenerated
       << ",\"elapsed_sec\":" << st.elapsedSec
       << ",\"preemptions\":" << st.preemptions << "}";
    return os.str();
}

bool
jobStatusFromJson(const JsonValue &v, api::JobStatus &out)
{
    if (!v.isObject())
        return false;
    out = api::JobStatus{};
    out.handle.id = v.uint("id");
    out.state = api::jobStateFromName(v.str("state", "failed"));
    if (const JsonValue *e = v.find("error"))
        out.error = errorFromJson(*e);
    out.label = v.str("label");
    out.cacheHit = v.boolean("cache_hit");
    out.verifyOk = v.boolean("verify_ok");
    out.statesExplored = v.uint("states_explored");
    out.statesGenerated = v.uint("states_generated");
    if (const JsonValue *e = v.find("elapsed_sec"))
        out.elapsedSec = e->asNumber();
    out.preemptions = static_cast<unsigned>(v.uint("preemptions"));
    return true;
}

std::string
errorToJson(const Error &e)
{
    return std::string("{\"kind\":\"") + errorKindName(e.kind) +
           "\",\"message\":" + obs::jsonQuote(e.message) + "}";
}

Error
errorFromJson(const JsonValue &v)
{
    if (!v.isObject())
        return Error(ErrorKind::Internal, "malformed error object");
    return Error(errorKindFromName(v.str("kind", "internal")),
                 v.str("message"));
}

std::string
checkResultToJson(const verif::CheckResult &r)
{
    std::ostringstream os;
    os << "{\"ok\":" << (r.ok ? "true" : "false")
       << ",\"error_kind\":"
       << obs::jsonQuote(errorKindName(r.errorKind))
       << ",\"detail\":" << obs::jsonQuote(r.detail)
       << ",\"states_explored\":" << r.statesExplored
       << ",\"states_generated\":" << r.statesGenerated
       << ",\"transitions_fired\":" << r.transitionsFired
       << ",\"resumable\":" << (r.resumable ? "true" : "false")
       << ",\"resumed\":"
       << (r.resumedFromCheckpoint ? "true" : "false")
       << ",\"checkpoints_written\":" << r.checkpointsWritten
       << ",\"symmetry\":" << (r.symmetryReduction ? "true" : "false")
       << ",\"spilled\":" << (r.spilledToDisk ? "true" : "false")
       << ",\"peak_rss_bytes\":" << r.peakRssBytes << "}";
    return os.str();
}

std::string
errorFrame(const Error &e, api::JobHandle id)
{
    std::string out = "{\"ok\":false";
    if (id.valid())
        out += ",\"id\":" + std::to_string(id.id);
    out += ",\"error\":" + errorToJson(e) + "}\n";
    return out;
}

std::string
okFrame(const std::string &extra)
{
    return "{\"ok\":true" + extra + "}\n";
}

} // namespace hieragen::svc
