#ifndef RNT_TXN_ONLINE_CHECKER_H_
#define RNT_TXN_ONLINE_CHECKER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "action/registry.h"
#include "action/update.h"
#include "algebra/events.h"
#include "common/flat_map.h"
#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "txn/trace.h"

namespace rnt::txn {

/// Streaming Theorem 9 oracle: the incremental form of
/// aat::IsPermDataSerializable{,Rw} over a trace, consumed one event at a
/// time through the TraceSink interface (the same interface the WAL
/// implements, so the checker can tee off any engine's serialization
/// order live instead of buffering the whole run and replaying it).
///
/// What it maintains, per event:
///
///  * the tree frontier — one record per vertex whose fate can still
///    matter (status, dead flag, "anchored" = member of perm(T), open
///    children for the commit precondition);
///  * per object, a *version window*: the suffix of the per-object
///    perform order (= data_T) whose membership in perm(prefix) is not
///    yet final, plus the running fold of update functions over the
///    finalized prefix. Version compatibility of a datastep is latched
///    the moment every earlier datastep on its object is
///    perm-or-dead — a final state, since commits and aborts are
///    permanent — so a mismatch is a permanent verdict and the window
///    pops down to the first undetermined slot;
///  * per sibling group (the children of one vertex), the lifted
///    sibling-data_T graph over *perm* datasteps only, built by edge
///    insertion at the event where a datastep joins perm. Per (group,
///    child, object) only the min/max perm positions are kept (and the
///    min/max over non-read accesses, for the §10 read/write
///    relaxation), which is enough to decide every sibling edge without
///    enumerating datastep pairs. Each inserted edge runs one
///    incremental cycle check (BFS from target to source inside the
///    group); the first edge that closes a cycle latches the verdict
///    with the shortest witness cycle through that edge.
///
/// Equivalence to the post-hoc checker is exact, per prefix: perm
/// membership is monotone, so the online edge set equals the post-hoc
/// edge set of perm(prefix) at every event, and the determined prefix of
/// each version window folds to the same values IsVersionCompatible
/// computes. A datastep can join perm while an *earlier* datastep on its
/// object is still undetermined — rw-mode engines do this routinely
/// (concurrent sibling readers leave pending reads behind later joiners)
/// and forged traces can do it arbitrarily. Such "deferred" joins leave
/// their version check to fire when the window determines; in the
/// meantime Verdict() folds the undetermined region transiently (skipping
/// pending and dead slots, exactly the post-hoc perm projection), which
/// keeps verdicts identical to the post-hoc checker on every prefix —
/// engine traces never transiently reject (the slots skipped over are
/// identity reads), forged ones are flagged `transient` because a later
/// event could still heal them.
///
/// Windowed GC: a child of a sibling group is retired once it is *quiet*
/// (itself and all descendants done; every access in it dead or
/// popped-from-its-version-window) and has in-degree zero in the live
/// group graph. Such a child can never gain an incoming edge (any
/// future edge into it would need an undetermined earlier datastep,
/// which popping rules out), hence can never lie on a future cycle, so
/// dropping its records, aggregates and outgoing edges changes no
/// future verdict or witness: verdicts are invariant to the window
/// size. Quietness is kept incrementally (per interior vertex, a count
/// of children not yet quiet); a vertex that turns quiet joins a
/// worklist, and every `gc_window` events the worklist drains: each
/// quiet in-degree-zero candidate retires, and its retirement cascades
/// to siblings whose last incoming edge it held. A drain therefore costs
/// O(what it retires), never a walk of the live tree, and retires
/// exactly the set a full sweep at the same event would (the quiet
/// vertices no non-quiet sibling reaches). Retired *dead* interior
/// vertices leave a tombstone holding their id and fate (the paper's
/// create precondition (a1) allows beginning children under an aborted
/// parent forever, and never under a committed one), so memory is
/// O(active frontier) + one entry per retired dead transaction. A
/// kBegin/kPerform whose parent is not an active or aborted transaction
/// is rejected with one detail whatever the parent is (committed, an
/// access, retired or never seen), so outcome, index and detail do not
/// depend on what GC has forgotten. The one adversarial blind spot this
/// buys: a forged event *reusing* the id of an already-retired live
/// committed vertex is indistinguishable from a fresh one. Engine ids are
/// unique, so this never affects live monitoring; when auditing an
/// untrusted finite log, run with gc_window = 0 and duplicate detection
/// is exact (the mutation suite covers both).
///
/// A determined version window is 16 bytes (base, fold) in an
/// open-addressing table (`windows_`, 20 bytes a slot with its key); the
/// slot vector, its head and the deferred flag live in `open_slots_`
/// only while the window holds an undetermined slot. Table entries move
/// when the table grows, so an access finds its window by its object id.
///
/// Thread safety: Append is a stamped hand-off. It takes a global stamp
/// and buffers the event in the calling thread's append slot, both under
/// that slot's mutex, so inside an engine's serializing section the
/// stamp order is the serialization order. The events are applied in
/// stamp order under the checker mutex by one drainer at a time: a
/// consumer thread (started the first time a slot's backlog reaches
/// kStartBacklog, never in the constructor), or the caller of
/// Verdict()/stats(), which drain on the calling thread first and so
/// describe every event appended before the call. A slot that reaches
/// kSlotCap events is drained by its appender, which bounds memory when
/// the consumer falls behind. Append never calls back into the engine,
/// does no I/O and, below the cap, waits for no checker work. The
/// destructor stops the consumer; events still buffered then are
/// dropped unapplied.
class OnlineChecker : public TraceSink {
 public:
  /// Which Theorem 9 characterization to apply: kSingle totally orders
  /// all perm datasteps per object (the paper's proved algorithm),
  /// kRw restricts the cycle condition to conflicting pairs (§10's
  /// complete Moss algorithm with concurrent sibling readers).
  enum class Mode : std::uint8_t { kSingle, kRw };

  enum class Outcome : std::uint8_t { kOk, kInvalidTrace, kNotSerializable };

  /// Append slots: engine threads bind to one round-robin at their
  /// first append.
  static constexpr std::size_t kAppendSlots = 8;
  /// A slot holding this many unapplied events is drained by its
  /// appender. The backlog (events stamped but not applied) therefore
  /// stays near kSlotCap per busy slot however slow the consumer is.
  static constexpr std::size_t kSlotCap = 1024;
  /// A slot backlog that starts the consumer thread. Short traces fed
  /// and judged on one thread never reach it, so they spawn nothing.
  static constexpr std::size_t kStartBacklog = 256;

  struct Options {
    Mode mode = Mode::kSingle;
    /// Events between retirement-worklist drains; 1 drains after every
    /// event, 0 disables subtree retirement (version windows still pop as
    /// their determined frontiers advance). Verdicts and witnesses are
    /// invariant to this.
    std::uint64_t gc_window = 256;
  };

  struct CheckResult {
    Outcome outcome = Outcome::kOk;
    /// Index of the first offending event (the event at which the
    /// violation became determined). Meaningful when outcome != kOk.
    std::size_t event_index = 0;
    /// True when the rejection comes from the not-yet-final region of a
    /// version window (possible only on traces violating Lemma 10(c),
    /// i.e. never on engine-produced traces): a later event could still
    /// heal it. Latched (permanent) results have transient == false.
    bool transient = false;
    std::string detail;
    /// For kNotSerializable by cycle: the witness sibling cycle
    /// c0 -> c1 -> ... -> ck -> c0, as transaction ids (each edge is a
    /// sibling-data_T edge; the shortest cycle through the closing edge).
    std::vector<lock::TxnId> witness;
  };

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t live_vertices = 0;      // current tree-frontier records
    std::uint64_t window_slots = 0;       // current undetermined datasteps
    std::uint64_t edges = 0;              // current live sibling edges
    std::uint64_t tombstones = 0;         // retired dead interior vertices
    /// High-water mark of live_vertices + window_slots + edges +
    /// tombstones. Grows with the number of aborted transactions.
    std::uint64_t peak_tracked = 0;
    /// High-water mark of live_vertices + window_slots + edges: the
    /// frontier alone, the figure that stays flat with run length.
    std::uint64_t peak_frontier = 0;
    /// Most events stamped but not yet applied, sampled by the drainer
    /// each time it collects the slots: how far the checker lagged.
    std::uint64_t backlog_peak = 0;
    /// Objects whose version window holds a slot not yet popped; every
    /// other object costs only its fold and next position.
    std::uint64_t open_windows = 0;
    /// Objects with a version window (every object ever performed on),
    /// and the bytes of the table holding their folds and positions.
    std::uint64_t objects = 0;
    std::uint64_t window_bytes = 0;
    std::uint64_t retired_vertices = 0;   // records GC has dropped
    std::uint64_t gc_sweeps = 0;          // retirement-worklist drains
    std::uint64_t edges_inserted = 0;     // lifetime sibling-edge inserts
    /// Datasteps that joined perm while an earlier datastep on their
    /// object was still undetermined, leaving their version check to the
    /// windowed fold. Routine for rw-mode engines (concurrent sibling
    /// readers) and within one commit's anchoring avalanche; a spike on a
    /// single-mode trace is a diagnostic smell.
    std::uint64_t deferred_joins = 0;
  };

  OnlineChecker();
  explicit OnlineChecker(Options options);
  ~OnlineChecker() override;

  /// Takes the next event of the trace, in serialization order: stamps
  /// and buffers it (applied later, in stamp order, by the drainer). A
  /// latched violation makes the application of later events a no-op.
  void Append(const TraceEvent& event) override;

  /// The verdict for the prefix appended so far (drained first, on the
  /// calling thread). Equals the post-hoc verdict (ReplayTrace +
  /// IsPermDataSerializable{,Rw}) on that prefix.
  CheckResult Verdict() const;

  /// Counters over the prefix appended so far (drained first, like
  /// Verdict).
  Stats stats() const;

 private:
  /// Aggregated positions of one child subtree's perm datasteps on one
  /// object within one sibling group: enough to decide every sibling
  /// edge against a newly joining datastep without pair enumeration.
  struct ChildSpan {
    std::uint64_t min_any = 0;
    std::uint64_t max_any = 0;
    bool has_any = false;
    std::uint64_t min_write = 0;  // over non-read accesses only
    std::uint64_t max_write = 0;
    bool has_write = false;
  };

  struct Vertex;

  /// One member's aggregated spans on one object, in a group's per-object
  /// list (kept sorted by member id, the order edges are decided in).
  struct SpanEntry {
    Vertex* child = nullptr;
    ChildSpan span;
  };

  /// State only interior (non-access) vertices carry: the commit
  /// precondition, the quiet bookkeeping, the ordered child list, and the
  /// sibling group the vertex heads.
  struct Interior {
    std::uint32_t open_children = 0;  // commit precondition (b1)
    std::uint32_t unsettled = 0;      // live children not yet quiet
    Vertex* first_child = nullptr;    // live children, creation order
    Vertex* last_child = nullptr;
    /// Per object, the perm spans of this group's members (lookup only).
    std::unordered_map<ObjectId, std::vector<SpanEntry>> spans;
    /// The objects this vertex has an entry for in its parent's `spans`,
    /// so retirement erases them by lookup.
    std::vector<ObjectId> span_objects;
  };

  /// One tree vertex. Accesses carry only the common fields plus their
  /// datastep; `interior` is set for transactions and the root.
  struct Vertex {
    lock::TxnId id = 0;
    /// The live parent record; null for the root and for vertices begun
    /// under a tombstone. Retirement drops whole subtrees, so a live
    /// vertex's parent pointer never dangles.
    Vertex* parent_vertex = nullptr;
    Vertex* prev_sibling = nullptr;
    Vertex* next_sibling = nullptr;
    bool is_access = false;
    bool dead = false;       // self or some ancestor aborted
    bool anchored = false;   // in perm: whole ancestor chain committed
    /// Below a tombstone: unreachable from the root, never retired.
    bool detached = false;
    /// Done, every descendant quiet, every access dead or popped.
    bool quiet = false;
    std::uint8_t status = 0;  // 0 active, 1 committed, 2 aborted
    /// Edges into / out of this vertex in its parent's sibling group;
    /// `out` is sorted by target id (deterministic BFS order).
    std::uint32_t in_degree = 0;
    std::vector<Vertex*> out;
    std::uint64_t bfs_mark = 0;
    Vertex* bfs_parent = nullptr;
    // Access-only fields.
    ObjectId object = 0;
    action::Update update;
    Value label = 0;
    std::uint64_t pos = 0;  // index in the object's perform order
    std::unique_ptr<Interior> interior;
  };

  /// One not-yet-popped datastep in a version window. `access` is set
  /// while the state is kPending or kPerm (such an access is never quiet,
  /// so never retired); a kDead slot needs no record.
  struct Slot {
    enum : std::uint8_t { kPending, kPerm, kDead };
    Vertex* access = nullptr;
    std::uint8_t state = kPending;
  };

  /// A window's undetermined region: slots[head..) hold positions
  /// [base, next) of the owning window.
  struct OpenSlots {
    std::vector<Slot> slots;
    std::uint32_t head = 0;
    bool deferred = false;  // listed in deferred_windows_
  };

  /// Per-object version window: the determined prefix is folded into
  /// `fold` and popped; `base` is the first position not popped. The
  /// undetermined region, if any, is the object's `open_slots_` entry.
  struct Window {
    std::uint64_t base = 0;
    Value fold = action::kInitValue;
  };

  /// One appended event and its place in the serialization order.
  struct Stamped {
    std::uint64_t stamp = 0;
    TraceEvent event;
  };

  /// Per-thread buffer of stamped events not yet collected by a drain.
  /// Stamps within one slot increase (both are taken under its mutex).
  struct AppendSlot {
    Mutex checker_slot_mu{"checker.slot", kRankCheckerSlot};
    std::vector<Stamped> pending GUARDED_BY(checker_slot_mu);
    bool listed GUARDED_BY(checker_slot_mu) = false;  // in listed_slots_
  };

  std::size_t SlotForThisThread();
  /// Collects every listed slot, merges by stamp, and applies the
  /// contiguous run from next_apply_; stamps past a gap (an event
  /// stamped after its slot was collected) wait for the next drain.
  void ApplyStamped() REQUIRES(checker_mu_);
  /// Consumes one event, in stamp order.
  void ApplyLocked(const TraceEvent& event) REQUIRES(checker_mu_);
  CheckResult VerdictLocked() const REQUIRES(checker_mu_);
  void StartConsumer();
  void ConsumerLoop();

  void Latch(Outcome outcome, std::size_t index, std::string detail,
             std::vector<lock::TxnId> witness) REQUIRES(checker_mu_);
  Vertex* Find(lock::TxnId id) REQUIRES(checker_mu_);
  bool IsTombstone(lock::TxnId id) const REQUIRES(checker_mu_);
  /// The create precondition on a kBegin/kPerform parent: true when
  /// `id` is an active or aborted transaction, live (*parent set) or
  /// retired (*parent null).
  bool ResolveParent(lock::TxnId id, Vertex** parent) REQUIRES(checker_mu_);
  /// Links a new vertex under `parent` (null: under a tombstone).
  void Attach(Vertex& v, Vertex* parent) REQUIRES(checker_mu_);
  /// Sets `v`'s quiet flag; a flip enlists a newly quiet vertex for
  /// retirement and carries on to the parent's unsettled count.
  void SetQuiet(Vertex& v, bool quiet) REQUIRES(checker_mu_);
  /// Adds `delta` (+1 or -1) to interior `v`'s count of unsettled
  /// children and re-evaluates its quiet flag.
  void Settle(Vertex& v, int delta) REQUIRES(checker_mu_);
  void MarkDeadSubtree(Vertex* v, std::size_t event_index) REQUIRES(checker_mu_);
  void AnchorSubtree(Vertex* v, std::size_t event_index) REQUIRES(checker_mu_);
  void JoinPerm(Vertex& v, std::size_t event_index) REQUIRES(checker_mu_);
  void AddEdge(const Vertex& group, Vertex* from, Vertex* to,
               std::size_t event_index) REQUIRES(checker_mu_);
  /// The window of an object some access has been performed on.
  Window& WindowOf(ObjectId x) REQUIRES(checker_mu_) {
    return *windows_.Find(x);
  }
  /// Pops the determined prefix of x's open region `o` into `w`; drops
  /// the region once it is empty (`o` dangles after that).
  void AdvanceFrontier(Window& w, OpenSlots& o, ObjectId x,
                       std::size_t event_index) REQUIRES(checker_mu_);
  void DrainRetirements() REQUIRES(checker_mu_);
  void RetireChild(Vertex* child) REQUIRES(checker_mu_);
  void UpdatePeak() REQUIRES(checker_mu_);

  const Options options_;

  // Front half: taken by appenders without the checker mutex.
  std::array<AppendSlot, kAppendSlots> slots_;
  /// Bit i: slot i has been appended to; drains skip the other slots.
  /// Set under the slot mutex before the slot's first stamp, so a drain
  /// that must find an event also sees its slot's bit.
  std::atomic<std::uint32_t> listed_slots_{0};
  std::atomic<std::uint64_t> next_stamp_{0};
  std::atomic<bool> consumer_started_{false};
  /// Set by the consumer just before it sleeps; the appender that clears
  /// it wakes the consumer.
  std::atomic<bool> consumer_sleeping_{false};
  Mutex checker_wake_mu_{"checker.wake", kRankCheckerWake};
  CondVar wake_cv_;
  bool stop_ GUARDED_BY(checker_wake_mu_) = false;
  std::thread consumer_ GUARDED_BY(checker_wake_mu_);

  // The hashed containers below are lookup-only: nothing iterates them,
  // so their hash order never reaches a verdict, index or witness.
  mutable Mutex checker_mu_{"checker.online", kRankOnlineChecker};
  std::unordered_map<lock::TxnId, Vertex> vertices_ GUARDED_BY(checker_mu_);
  /// One entry per object ever performed on; never erased. Segmented so
  /// that a growth copies a sixteenth of the table at a time.
  FlatMap<ObjectId, Window> windows_ GUARDED_BY(checker_mu_){16};
  /// The undetermined regions, one per open window (node-stable).
  std::unordered_map<ObjectId, OpenSlots> open_slots_ GUARDED_BY(checker_mu_);
  /// Objects whose window holds a perm slot behind an undetermined one
  /// (a deferred join): the only windows Verdict must fold, in id order.
  std::set<ObjectId> deferred_windows_ GUARDED_BY(checker_mu_);
  /// Retired dead interior vertices and their status (committed or
  /// aborted): an aborted one is still a legal parent for future
  /// kBegin/kPerform events ((a1) allows create under an aborted action),
  /// a committed one never is. Their subtrees are dead, so the id and
  /// fate are all we must keep.
  FlatMap<lock::TxnId, std::uint8_t> tombstones_ GUARDED_BY(checker_mu_);
  /// Vertices that turned quiet since the last drain (ids: an entry may
  /// be retired with an ancestor before its turn comes).
  std::vector<lock::TxnId> retire_worklist_ GUARDED_BY(checker_mu_);
  /// Scratch reused across events: AddEdge's BFS queue, and the stack of
  /// the subtree walks (anchor, mark-dead, retire; these never nest).
  std::vector<Vertex*> bfs_queue_ GUARDED_BY(checker_mu_);
  std::vector<Vertex*> walk_ GUARDED_BY(checker_mu_);
  std::uint64_t bfs_epoch_ GUARDED_BY(checker_mu_) = 0;
  std::optional<CheckResult> latched_ GUARDED_BY(checker_mu_);
  /// Back half: the next stamp to apply, collected events waiting behind
  /// a gap (stamp order), and the spare buffer swapped into a slot.
  std::uint64_t next_apply_ GUARDED_BY(checker_mu_) = 0;
  std::vector<Stamped> held_ GUARDED_BY(checker_mu_);
  std::vector<Stamped> spare_ GUARDED_BY(checker_mu_);
  std::uint64_t current_edges_ GUARDED_BY(checker_mu_) = 0;
  std::uint64_t current_slots_ GUARDED_BY(checker_mu_) = 0;
  Stats stats_ GUARDED_BY(checker_mu_);
};

/// Fans one event stream out to several sinks, in order. Lets the
/// durable engine keep the WAL as its primary sink while an
/// OnlineChecker (or any observer) certifies the same serialization
/// order live.
class TeeSink : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void Append(const TraceEvent& event) override {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) s->Append(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Lowers level-1/2 tree events (algebra::TreeEvent, over a registry) to
/// TraceEvents for streaming into an OnlineChecker. The trace vocabulary
/// collapses create+perform of an access into one kPerform event, so the
/// adapter drops Create(access) and drops Abort of a never-performed
/// access (such a vertex has no trace form; it is never a datastep and
/// never in perm, so the verdict is unaffected). Commit/Abort of the
/// virtual root are likewise dropped (no engine emits them; perm
/// membership never consults the root's status). ActionIds map to
/// TxnIds identically (kRootAction == kNoTxn == 0).
class TreeEventLowering {
 public:
  explicit TreeEventLowering(const action::ActionRegistry* registry)
      : registry_(registry) {}

  /// Returns the trace form of `e`, or nullopt when `e` has none.
  std::optional<TraceEvent> Lower(const algebra::TreeEvent& e);

 private:
  const action::ActionRegistry* registry_;
  std::set<ActionId> performed_;
};

}  // namespace rnt::txn

#endif  // RNT_TXN_ONLINE_CHECKER_H_
