// lint-as: src/sim/fixture_clean.cc
// Fixture: the idiomatic shape of a concurrent+deterministic component —
// annotated wrapper mutex, seeded randomness left to common/random.h,
// ordered containers keyed by stable ids, smart-pointer ownership, an
// untimed poll() that waits only for its event, and a justified per-line
// suppression. Must lint clean.
#include <cstdint>
#include <map>
#include <memory>

#include <poll.h>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace rnt::sim {

class CleanComponent {
 public:
  void Record(std::uint64_t id, int v) {
    MutexLock lk(mu_);
    values_[id] = v;
  }

  // Strings and comments must not confuse the scanner: "std::mutex",
  // "new", 'x' — none of these are code.
  const char* Describe() const { return "uses std::mutex? never; new? no"; }

 private:
  mutable Mutex mu_;
  std::map<std::uint64_t, int> values_ GUARDED_BY(mu_);
  std::unique_ptr<int> owned_ = std::make_unique<int>(0);
};

// Blocking until the fd is readable paces nothing on the wall clock.
inline bool WaitReadable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, -1) > 0;
}

// A lock-free handoff may own raw nodes when every path provably frees;
// the suppression documents it.
struct Node {
  int v;
  Node* next;
};
inline Node* Push(Node* head, int v) {
  return new Node{v, head};  // rnt-lint: allow(owning-new)
}

}  // namespace rnt::sim
