#ifndef RNT_SIM_NODE_RUNTIME_H_
#define RNT_SIM_NODE_RUNTIME_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "sim/dist_driver.h"
#include "sim/program_spec.h"

namespace rnt::sim {

/// Configuration of one rnt_node process: which node of which seeded
/// program to run, where the durable per-node state lives, and how to
/// reach the supervisor's hub. Everything here round-trips through argv
/// (see rnt_node_main.cc), so a reborn process is started from the same
/// spec token plus `--recover --incarnation=<g>`.
struct NodeRuntimeOptions {
  ProgramSpec spec;
  NodeId node = 0;
  /// Process generation: 0 for the initial spawn, +1 per rebirth. Names
  /// this incarnation's trace file.
  std::uint32_t incarnation = 0;
  /// Rebirth: replay the durable state of prior incarnations first.
  bool recover = false;
  /// Durable directory: per-node trace files + retention log.
  std::string dir;
  /// Hub endpoint ("unix:<path>" or "tcp:<host>:<port>").
  std::string endpoint;
  /// kDelta or kEager (the loop is reactive; kLazy is rejected).
  Propagation propagation = Propagation::kDelta;
  /// Idle passes before the node gives up (degrading the run to diagnosed
  /// incomplete instead of hanging). The watchdog's other thresholds are
  /// the loop's constants kStallRetrySpins and kMaxAttemptsPerStep.
  std::uint64_t max_idle_spins = 60000;
};

/// Runs one ℬ node as this whole process: recovers durable state when
/// `recover` is set (mechanical replay of the node's own trace files,
/// then one legal Receive of the retention log — the paper's §9.1
/// rebirth), connects to the hub, and drives the node's NodeLoop
/// (node_loop.h) until the hub broadcasts kAllDone. Returns non-ok only
/// on local invariant violations or unusable durable state; fault-induced
/// stalls end in a diagnosed give-up heartbeat, not an error.
Status RunNodeProcess(const NodeRuntimeOptions& options);

}  // namespace rnt::sim

#endif  // RNT_SIM_NODE_RUNTIME_H_
