/**
 * @file
 * The service's JSON names; the reader and writer live in
 * util/json.hh.
 */

#ifndef HIERAGEN_SVC_JSON_HH
#define HIERAGEN_SVC_JSON_HH

#include "util/json.hh"

namespace hieragen::svc
{

using util::JsonValue;
using util::parseJson;
using util::writeJson;

} // namespace hieragen::svc

#endif // HIERAGEN_SVC_JSON_HH
