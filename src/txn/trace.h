#ifndef RNT_TXN_TRACE_H_
#define RNT_TXN_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "action/action_tree.h"
#include "action/update.h"
#include "algebra/events.h"
#include "common/status.h"
#include "lock/lock_manager.h"

namespace rnt::txn {

/// One engine event, recorded in global serialization order (under the
/// engine mutex). The trace is the bridge from the concurrent engine back
/// to the paper's formalism: replaying it yields the action tree of the
/// execution, on which the Theorem 9 checker and the exhaustive oracle
/// can pass judgment.
struct TraceEvent {
  enum class Kind : std::uint8_t { kBegin, kCommit, kAbort, kPerform };

  Kind kind;
  lock::TxnId id;       // the transaction, or the access for kPerform
  lock::TxnId parent;   // kBegin: parent txn; kPerform: owning txn
  ObjectId object = 0;  // kPerform
  action::Update update;  // kPerform
  Value seen = 0;         // kPerform: the value read (the label)
};

/// Fault-handling counters for a run executed under injected failures —
/// retries, node crashes, message chaos, recoveries. Attached to traces
/// (and to sim::DriverStats) so executions that survived faults are
/// inspectable after the fact: a trace that replays cleanly but carries
/// faults.Any() shows how much adversity the schedule absorbed.
struct FaultStats {
  std::uint64_t retries = 0;          // step/child re-attempts
  std::uint64_t crashes = 0;          // node crashes injected
  std::uint64_t dropped_msgs = 0;     // transmissions lost (incl. partition)
  std::uint64_t duplicated_msgs = 0;  // extra deliveries of one send
  std::uint64_t delayed_msgs = 0;     // deliveries pushed to a later round
  std::uint64_t recovered_nodes = 0;  // rebirths via buffer replay
  std::uint64_t timeout_aborts = 0;   // stuck subtransactions aborted

  bool Any() const;
  std::string ToString() const;

  void MergeFrom(const FaultStats& other);

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

struct Trace {
  std::vector<TraceEvent> events;
  /// Fault counters for the run that produced this trace (all zero for a
  /// failure-free execution).
  FaultStats faults;
};

/// A streaming consumer of engine events. When installed via
/// TransactionManager::Options::trace_sink, the engine calls Append
/// *inside the critical section that serializes the event* — the same
/// place the in-memory trace is appended — so the sink observes the
/// engine's one true serialization order. This is what makes a
/// write-ahead log built on the sink sound: a log record's position is
/// fixed before any lock protecting the event is released, so no
/// conflicting later event can be logged ahead of it.
///
/// Contract for implementations: Append must not call back into the
/// engine (its mutexes are held) and must be cheap — an in-memory
/// buffer push, not an I/O syscall. Work that costs more belongs on a
/// thread of the sink's own, behind a stamp taken inside Append so the
/// serialization order survives the hand-off: storage::Wal stamps an LSN
/// and batches and fsyncs on a group-commit thread; txn::OnlineChecker
/// stamps and buffers, and applies the events in stamp order on its
/// consumer thread (or on the thread that asks for a verdict).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Append(const TraceEvent& event) = 0;
};

/// The action-tree reconstruction of a trace: a registry built from the
/// observed transactions/accesses plus the replayed tree.
struct ReplayedTrace {
  /// Owns the registry the tree points into.
  std::unique_ptr<action::ActionRegistry> registry;
  action::ActionTree tree;
};

/// Replays a trace into an action tree, checking every event's level-1
/// precondition along the way (an internal-error status indicates an
/// engine bug, e.g. commit with an active child). Aborts of transactions
/// recursively abort their live descendants first, mirroring engine
/// semantics with the paper's one-vertex-at-a-time abort events.
StatusOr<ReplayedTrace> ReplayTrace(const Trace& trace);

/// A trace lowered to the level-4 algebra's event vocabulary.
struct LoweredTrace {
  /// Owns the registry the events refer to.
  std::unique_ptr<action::ActionRegistry> registry;
  std::vector<algebra::LockEvent> events;
};

/// Lowers a trace recorded by a *single-mode* TransactionManager into a
/// level-4 (value-map algebra) event sequence:
///
///  * begin          -> create;
///  * access         -> create + perform + release-lock (the engine holds
///                      locks per transaction, so an access's lock passes
///                      to its transaction immediately);
///  * commit         -> commit + release-lock for every object the
///                      transaction held (lock inheritance);
///  * abort          -> abort + lose-lock for every held object.
///
/// The engine conforms to the paper's algorithm iff the lowered sequence
/// is a *valid computation of ValueMapAlgebra* — every precondition
/// (d11)-(f12) holds at every step. tests/conformance_test.cc runs
/// multithreaded engine traces through this bridge and on up the whole
/// refinement chain to the serializability spec.
///
/// Only single-mode traces lower faithfully: the read/write engine admits
/// concurrent sibling readers, which the single-lock-mode level-4 algebra
/// cannot express (see aat.h on the §10 extension).
StatusOr<LoweredTrace> LowerTraceToLockEvents(const Trace& trace);

}  // namespace rnt::txn

#endif  // RNT_TXN_TRACE_H_
