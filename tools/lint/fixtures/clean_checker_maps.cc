// lint-as: src/txn/online_checker.h
// Fixture: the online checker is lint-scoped as a deterministic layer
// (its witnesses and rejection indices are diffed against the post-hoc
// oracle, so iteration order must be stable run to run). This is the
// idiomatic shape that must lint clean there: ordered containers keyed
// by stable transaction ids, an annotated wrapper mutex serializing
// Append against Verdict, and no wall-clock or hash-seed dependence.
// Hashed containers are fine for lookup (find/count/operator[]/erase,
// comparison with end()) as long as nothing walks them; anything that
// needs an order walks an ordered index kept beside them.
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace rnt::txn {

class FixtureCheckerState {
 public:
  void Observe(std::uint64_t txn, std::uint64_t object) {
    MutexLock lk(mu_);
    edges_[txn].insert(object);
    frontier_.push_back(txn);
  }

  // Deterministic iteration: std::map walks ids in numeric order, so
  // the first vertex reported in a witness is the same every run.
  std::uint64_t FirstTracked() const {
    MutexLock lk(mu_);
    return edges_.empty() ? 0 : edges_.begin()->first;
  }

  // Lookup-only hashing: point queries and updates by id, never a walk.
  void Record(std::uint64_t object, std::uint64_t pos) {
    MutexLock lk(mu_);
    auto [it, fresh] = windows_.try_emplace(object);
    it->second.push_back(pos);
    if (fresh) open_.insert(object);
    if (tombstones_.count(object) != 0) tombstones_.erase(object);
  }

  std::size_t WindowSize(std::uint64_t object) const {
    MutexLock lk(mu_);
    auto it = windows_.find(object);
    return it == windows_.end() ? 0 : it->second.size();
  }

  // FlatMap is for point lookups and inserts in the same way.
  std::int64_t Fold(std::uint32_t object) {
    MutexLock lk(mu_);
    const std::int64_t* fold = folds_.Find(object);
    if (fold == nullptr) folds_[object] = 0;
    return fold == nullptr ? 0 : *fold;
  }

  // Ordered walks go through the ordered index of the same keys.
  std::size_t OpenTotal() const {
    MutexLock lk(mu_);
    std::size_t n = 0;
    for (std::uint64_t object : open_) n += windows_.at(object).size();
    return n;
  }

 private:
  mutable Mutex mu_;
  std::map<std::uint64_t, std::set<std::uint64_t>> edges_ GUARDED_BY(mu_);
  std::deque<std::uint64_t> frontier_ GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> windows_
      GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> tombstones_ GUARDED_BY(mu_);
  std::set<std::uint64_t> open_ GUARDED_BY(mu_);
  FlatMap<std::uint32_t, std::int64_t> folds_ GUARDED_BY(mu_);
};

}  // namespace rnt::txn
