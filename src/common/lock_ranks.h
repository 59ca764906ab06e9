#ifndef RNT_COMMON_LOCK_RANKS_H_
#define RNT_COMMON_LOCK_RANKS_H_

/// The whole-program lock-order model: every rnt::Mutex declares a name
/// and a rank from this table, and both enforcement layers consume it —
///
///  * statically, tools/analyze/rnt_lockorder.py extracts the cross-TU
///    acquisition graph from the annotated sources and rejects any edge
///    that acquires a lower (or undeclared-equal) rank while a higher
///    one is held;
///  * dynamically, the debug-build LockOrderRegistry (common/mutex.h)
///    keeps a thread-local held-rank stack and aborts on the first
///    out-of-order acquisition, recording observed edges that tests diff
///    against the static graph (observed ⊆ declared).
///
/// Ranks must be acquired in strictly increasing order within a thread.
/// Equal-rank nesting is forbidden unless the mutexes are the *same*
/// named group constructed with `Mutex::SortedGroup` — the
/// sorted-acquisition idiom (the engine's root-first ancestor-chain
/// locking, parent-before-child commit), which the static analyzer
/// additionally requires to be declared at the acquisition site with a
/// `// rnt-order: sorted(<name>)` directive.
///
/// The table is ordered outermost (lowest) to innermost (highest); gaps
/// are deliberate so new layers (buffer pool, transport) can slot in
/// without renumbering. See DESIGN.md "Lock-order model" for the mapping
/// to the paper's locking rules.
namespace rnt {

/// Front-end worker bookkeeping (queue depth / wake flags). Held only
/// around submission bookkeeping, but Submit re-arms the completion
/// under it, so it sits below the completion rank.
inline constexpr int kRankFrontendWorker = 10;
/// Completion done-flag + result hand-off.
inline constexpr int kRankFrontendCompletion = 12;
/// Parallel runner live-certification section (stamp + lower + sink
/// Append as one critical section — it feeds the online checker's
/// append slots, so it must sit below kRankCheckerSlot).
inline constexpr int kRankRunnerLive = 15;
/// Parallel runner first-error latch.
inline constexpr int kRankRunnerError = 17;
/// Sharded engine per-transaction records. A *sorted group*: mutexes of
/// this rank nest with each other along one ancestor chain, acquired
/// root-first (Access/AccessBatch) or parent-before-child (Commit).
inline constexpr int kRankTxnRec = 20;
/// The MVTO baseline engine's single lock.
inline constexpr int kRankMvtoEngine = 24;
/// Lock-table shards (per-object queues of Moss's algorithm). Below the
/// record ranks: the engine calls into the lock manager while a record
/// mutex is held; a shard may query Ancestry, which reads the
/// transaction table, but never a record mutex.
inline constexpr int kRankLockShard = 30;
/// Transaction-table shards (id -> record).
inline constexpr int kRankTxnTable = 35;
/// Wait-for-graph shards (blocked acquirer edges).
inline constexpr int kRankTxnWait = 37;
/// Committed-store shards.
inline constexpr int kRankTxnStore = 40;
/// In-memory trace buffer.
inline constexpr int kRankTxnTrace = 45;
/// Online Theorem 9 checker state, held by whichever thread drains the
/// stamped events into it (the checker's consumer thread, a Verdict or
/// stats caller, or an appender whose slot is full). Above every engine
/// rank and kRankRunnerLive: a full slot drains from inside an engine's
/// serializing section.
inline constexpr int kRankOnlineChecker = 50;
/// Online checker append slots (stamp + buffer). A TraceSink leaf: Append
/// takes one inside the engines' serializing sections, and the drainer
/// takes each in turn while holding kRankOnlineChecker.
inline constexpr int kRankCheckerSlot = 51;
/// Online checker consumer wake-up (sleep flag, stop flag, lazy thread
/// start). Taken by an appender after its slot mutex is released, and by
/// the consumer thread with nothing else held.
inline constexpr int kRankCheckerWake = 52;
/// Multi-process transport hub: supervisor-facing status/control table
/// of sim::SocketHub. A leaf taken by the hub I/O thread between socket
/// operations and by the supervisor thread for snapshots; never held
/// across a syscall or another acquisition.
inline constexpr int kRankTransportHub = 55;
/// Parallel runner durable retention log (M_i write-through).
inline constexpr int kRankRetentionLog = 60;
/// WAL flush serialization (FlushOnce vs Reset). Taken by the
/// group-commit thread before the slot mutexes it drains.
inline constexpr int kRankWalFlush = 70;
/// WAL per-worker append slots. Also a TraceSink leaf: Append runs
/// inside the engines' serializing critical sections.
inline constexpr int kRankWalSlot = 72;
/// WAL group-commit coordination (stop/flush flags, stats, horizon cv).
inline constexpr int kRankWalGc = 74;

}  // namespace rnt

#endif  // RNT_COMMON_LOCK_RANKS_H_
