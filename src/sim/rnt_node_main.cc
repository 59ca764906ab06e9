// rnt_node: one node of the distributed algebra ℬ as an OS process.
//
// Spawned (and re-spawned after kill -9) by sim::RunMultiProcess; argv
// carries the entire configuration so a reborn process reconstructs the
// exact same seeded program. Exit 0 = clean finish (hub broadcast
// kAllDone, or terminal give-up); exit 1 = bad argv (with the usage
// line) or a local invariant violation, diagnosed on stderr.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/status.h"
#include "sim/node_runtime.h"
#include "sim/program_spec.h"

namespace {

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

int Usage() {
  std::fprintf(stderr,
               "usage: rnt_node --spec=<token> --node=N --dir=DIR "
               "--endpoint=unix:PATH|tcp:HOST:PORT [--incarnation=G] "
               "[--recover] [--propagation=delta|eager] "
               "[--max-idle-spins=N]\n");
  return 1;
}

int BadValue(const char* arg) {
  std::fprintf(stderr, "rnt_node: bad value in '%s'\n", arg);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  rnt::sim::NodeRuntimeOptions options;
  bool have_spec = false;
  std::uint64_t n = 0;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (TakeFlag(argv[i], "--spec", &value)) {
      auto spec = rnt::sim::ProgramSpec::Parse(value);
      if (!spec.ok()) {
        std::fprintf(stderr, "rnt_node: %s\n",
                     spec.status().ToString().c_str());
        return 1;
      }
      options.spec = *spec;
      have_spec = true;
    } else if (TakeFlag(argv[i], "--node", &value)) {
      if (!rnt::sim::ParseDecimal(value, kMaxU32, &n)) return BadValue(argv[i]);
      options.node = static_cast<rnt::NodeId>(n);
    } else if (TakeFlag(argv[i], "--dir", &value)) {
      options.dir = value;
    } else if (TakeFlag(argv[i], "--endpoint", &value)) {
      options.endpoint = value;
    } else if (TakeFlag(argv[i], "--incarnation", &value)) {
      if (!rnt::sim::ParseDecimal(value, kMaxU32, &n)) return BadValue(argv[i]);
      options.incarnation = static_cast<std::uint32_t>(n);
    } else if (TakeFlag(argv[i], "--propagation", &value)) {
      if (value != "delta" && value != "eager") return BadValue(argv[i]);
      options.propagation = value == "eager" ? rnt::sim::Propagation::kEager
                                             : rnt::sim::Propagation::kDelta;
    } else if (TakeFlag(argv[i], "--max-idle-spins", &value)) {
      if (!rnt::sim::ParseDecimal(value, kMaxU64, &n)) return BadValue(argv[i]);
      options.max_idle_spins = n;
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      options.recover = true;
    } else {
      std::fprintf(stderr, "rnt_node: unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }
  if (!have_spec || options.dir.empty() || options.endpoint.empty()) {
    return Usage();
  }
  const rnt::Status s = rnt::sim::RunNodeProcess(options);
  if (!s.ok()) {
    std::fprintf(stderr, "rnt_node[%u]: %s\n", options.node,
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}
