/**
 * @file
 * Select a refresh mechanism on a hand-built MemConfig the way System
 * construction does: by registry name, with the mechanism's config
 * bundle applied. Tests that drive Rank, Channel, a controller, the
 * checker, or TimingParams directly need the bundle outputs (refresh
 * profile, SARP and HiRA flags) without building a System.
 */

#ifndef DSARP_TESTS_POLICY_HH
#define DSARP_TESTS_POLICY_HH

#include <string>

#include "common/config.hh"
#include "refresh/registry.hh"

namespace dsarp {

inline void
selectPolicy(MemConfig &cfg, const std::string &name)
{
    cfg.policy = name;
    RefreshPolicyRegistry::instance().resolve(cfg);
}

} // namespace dsarp

#endif // DSARP_TESTS_POLICY_HH
