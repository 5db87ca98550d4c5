/**
 * @file
 * gtest name generators for the suites parameterized over builtin
 * (lower, higher) protocol combos, so their test names are stable
 * across builds (the default printer spells a const char * as its
 * address): "MSI_MESI" and "MSI_MESI_NonStalling".
 */

#ifndef HIERAGEN_TESTS_PARAM_NAMES_HH
#define HIERAGEN_TESTS_PARAM_NAMES_HH

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "fsm/protocol.hh"

namespace hieragen::testnames
{

using Combo = std::pair<const char *, const char *>;

inline std::string
comboName(const Combo &c)
{
    return std::string(c.first) + "_" + c.second;
}

inline const char *
modeName(ConcurrencyMode m)
{
    switch (m) {
      case ConcurrencyMode::Atomic:
        return "Atomic";
      case ConcurrencyMode::Stalling:
        return "Stalling";
      case ConcurrencyMode::NonStalling:
        return "NonStalling";
    }
    return "Unknown";
}

/** Name generator for ValuesIn(combos). */
inline std::string
combo(const testing::TestParamInfo<Combo> &info)
{
    return comboName(info.param);
}

/** Name generator for Combine(ValuesIn(combos), Values(modes...)). */
inline std::string
comboMode(
    const testing::TestParamInfo<std::tuple<Combo, ConcurrencyMode>> &info)
{
    return comboName(std::get<0>(info.param)) + "_" +
           modeName(std::get<1>(info.param));
}

} // namespace hieragen::testnames

#endif // HIERAGEN_TESTS_PARAM_NAMES_HH
