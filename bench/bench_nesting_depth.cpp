// Experiment E3 (DESIGN.md): the cost of the nesting machinery itself —
// lock acquisition checks walk ancestor chains, and every commit inherits
// locks one level up (the paper's release-lock chain, §7-§9).
//
// Microbenchmarks on the lock manager and the engine as nesting depth
// grows: acquire cost, the commit-inheritance chain, abort-discard, and
// the end-to-end cost of one access performed at depth d and committed
// all the way to the top. Also reports the lock-table footprint.

#include <benchmark/benchmark.h>

#include <map>

#include "lock/lock_manager.h"
#include "txn/transaction_manager.h"

namespace {

using rnt::lock::Ancestry;
using rnt::lock::kNoTxn;
using rnt::lock::LockManager;
using rnt::lock::LockMode;
using rnt::lock::TxnId;
using rnt::ObjectId;

/// Linear-chain ancestry of configurable depth: 1 <- 2 <- ... <- d.
class ChainAncestry : public Ancestry {
 public:
  explicit ChainAncestry(int depth) : depth_(depth) {}
  bool IsAncestor(TxnId anc, TxnId desc) const override {
    if (anc == kNoTxn) return true;
    return anc <= desc && desc <= static_cast<TxnId>(depth_);
  }

 private:
  int depth_;
};

void BM_LockAcquireAtDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  ChainAncestry anc(depth);
  LockManager lm(&anc);
  // Ancestors 1..depth-1 already hold the lock (the paper's lock stack).
  for (int d = 1; d < depth; ++d) {
    lm.TryAcquire(0, static_cast<TxnId>(d), LockMode::kWrite);
  }
  TxnId leaf = static_cast<TxnId>(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.TryAcquire(0, leaf, LockMode::kWrite));
    lm.OnAbort(leaf, LockManager::kAllShards);  // reset for the next round
  }
  state.counters["lock_records"] =
      static_cast<double>(lm.RecordCount());
}

void BM_CommitInheritChain(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  ChainAncestry anc(depth);
  for (auto _ : state) {
    state.PauseTiming();
    LockManager lm(&anc);
    TxnId leaf = static_cast<TxnId>(depth);
    for (ObjectId x = 0; x < 8; ++x) lm.TryAcquire(x, leaf, LockMode::kWrite);
    state.ResumeTiming();
    // Walk the lock up the whole chain: d inheritance steps (release-lock
    // at each level of the paper's level-3/4 algebras).
    for (int d = depth; d >= 1; --d) {
      lm.OnCommit(static_cast<TxnId>(d),
                  d == 1 ? kNoTxn : static_cast<TxnId>(d - 1),
                  LockManager::kAllShards);
    }
  }
  state.SetItemsProcessed(state.iterations() * depth);
}

void BM_AbortDiscard(benchmark::State& state) {
  int objects = static_cast<int>(state.range(0));
  ChainAncestry anc(1);
  for (auto _ : state) {
    state.PauseTiming();
    LockManager lm(&anc);
    for (ObjectId x = 0; x < static_cast<ObjectId>(objects); ++x) {
      lm.TryAcquire(x, 1, LockMode::kWrite);
    }
    state.ResumeTiming();
    lm.OnAbort(1, LockManager::kAllShards);
  }
  state.SetItemsProcessed(state.iterations() * objects);
}

void BM_EngineAccessAtDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  rnt::txn::TransactionManager engine;
  for (auto _ : state) {
    // Build a chain of subtransactions of the given depth, access at the
    // leaf, then commit the whole chain bottom-up.
    std::vector<std::unique_ptr<rnt::txn::TxnHandle>> chain;
    chain.push_back(engine.Begin());
    for (int d = 1; d < depth; ++d) {
      auto c = chain.back()->BeginChild();
      if (!c.ok()) { state.SkipWithError("BeginChild failed"); return; }
      chain.push_back(std::move(*c));
    }
    benchmark::DoNotOptimize(
        chain.back()->Apply(0, rnt::action::Update::Add(1)));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!(*it)->Commit().ok()) { state.SkipWithError("commit failed"); return; }
    }
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_LockAcquireAtDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_CommitInheritChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_AbortDiscard)->Arg(1)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_EngineAccessAtDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
