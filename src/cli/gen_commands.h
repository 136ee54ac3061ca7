// `concord datagen` and `concord fuzz` (DESIGN.md §13).
//
// Both commands speak the unified generator flag surface — --family, --seed,
// --knob k=v, --out-dir — over the GeneratorRegistry. Family parameters are
// knobs only (--knob role=2); there are no per-family flags.
#ifndef SRC_CLI_GEN_COMMANDS_H_
#define SRC_CLI_GEN_COMMANDS_H_

#include <ostream>

namespace concord {

// Writes one family's corpus to --out-dir (configs/ and metadata/ subtrees).
int RunDatagen(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);

// Runs the differential fuzz campaign: replays --corpus-dir repros, then
// --runs fresh seeded cases, each through the learn-identity, serve-identity,
// and never-crash/never-hang oracles. Exit 0 clean, 1 on any failure, 2 usage.
int RunFuzz(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace concord

#endif  // SRC_CLI_GEN_COMMANDS_H_
