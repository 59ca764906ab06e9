#ifndef RNT_SIM_PROGRAM_SPEC_H_
#define RNT_SIM_PROGRAM_SPEC_H_

#include <cstdint>
#include <string>

#include "action/registry.h"
#include "common/status.h"
#include "common/types.h"

namespace rnt::sim {

/// A seeded, self-contained description of one nested-transaction
/// program — everything a process needs to rebuild the exact same
/// ActionRegistry and round-robin Topology from one argv token. The
/// supervisor, each rnt_node process, and the in-process backends of an
/// equivalence test all call BuildRegistry() on equal specs and get
/// bit-identical programs; that is what makes "same seed, different
/// transport" a meaningful comparison.
///
/// Probabilities are carried as parts-per-million integers so the
/// serialized form is exact (no float round-trip through argv).
struct ProgramSpec {
  std::uint64_t seed = 1;
  std::uint32_t top_level = 3;
  std::uint32_t max_children = 3;
  std::uint32_t max_depth = 3;
  std::uint32_t objects = 3;
  /// Probability an inner action is an access (vs. a subtransaction).
  std::uint32_t access_ppm = 500000;
  /// Probability an access is a read (vs. a random mutation).
  std::uint32_t read_ppm = 400000;
  std::uint32_t k = 3;

  /// Deterministically generates the registry: a worklist DFS seeding
  /// `top_level` roots, each expanding to `1..max_children` children
  /// until `max_depth`, leaves and `access_ppm`-coin inner nodes
  /// becoming random accesses over `objects` objects.
  action::ActionRegistry BuildRegistry() const;

  /// One shell-safe token, e.g. "seed=7,top=3,kids=3,depth=3,objs=4,
  /// access=500000,read=400000,k=3".
  std::string Serialize() const;
  static StatusOr<ProgramSpec> Parse(const std::string& token);

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// Parses `text` as a decimal integer in [0, max]: digits only (no sign,
/// no whitespace, no trailing bytes) and no overflow. The one strict
/// number parser behind ProgramSpec::Parse and rnt_node's argv, which
/// come from outside the program.
bool ParseDecimal(const std::string& text, std::uint64_t max,
                  std::uint64_t* out);

}  // namespace rnt::sim

#endif  // RNT_SIM_PROGRAM_SPEC_H_
