// lint-as: src/txn/online_checker.cc
// Fixture: the online checker may keep hashed containers for lookup, but
// walking one makes whatever the walk feeds (a witness, the first failing
// window) depend on the hash seed; each walk must trip [hashed-iteration].
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"

namespace rnt::txn {

using FixtureIndex = std::unordered_map<std::uint64_t, int>;
using FixtureFolds = FlatMap<std::uint32_t, std::int64_t>;

struct FixtureWalker {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> edges_;
  std::unordered_set<std::uint64_t> seen_;
  FixtureIndex index_;
  FlatMap<std::uint32_t, std::int64_t> windows_;
  FixtureFolds folds_;

  std::uint64_t FirstEdge() const {
    for (const auto& [from, outs] : edges_) {  // lint-expect
      if (!outs.empty()) return from;
    }
    return 0;
  }

  std::uint64_t AnySeen() const {
    return seen_.empty() ? 0 : *seen_.begin();  // lint-expect
  }

  int Total() const {
    int n = 0;
    for (const auto& kv : index_) n += kv.second;  // lint-expect
    return n;
  }

  // FlatMap is lookup-only here too: ForEach walks in hash order.
  std::int64_t FirstWindow() const {
    std::int64_t first = 0;
    windows_.ForEach([&](std::uint32_t, std::int64_t v) {  // lint-expect
      if (first == 0) first = v;
    });
    return first;
  }

  std::int64_t SumFolds() const {
    std::int64_t sum = 0;
    folds_.ForEach([&](std::uint32_t, std::int64_t v) {  // lint-expect
      sum += v;
    });
    return sum;
  }

  // The header-declared checker maps are covered from the .cc too.
  std::uint64_t FirstVertex() const {
    return vertices_.cbegin()->first;  // lint-expect
  }
};

}  // namespace rnt::txn
