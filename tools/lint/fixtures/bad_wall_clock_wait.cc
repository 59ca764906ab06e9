// lint-as: src/sim/fixture_wait.cc
// Fixture: timed waits in a deterministic layer must trip
// [wall-clock-wait] — sleeping paces the simulation on the OS scheduler,
// so retry counts and interleavings stop being functions of the seed.
// Every line marked `lint-expect` must be flagged on its own.
#include <chrono>
#include <thread>

#include <poll.h>
#include <time.h>
#include <unistd.h>

namespace rnt::sim {

inline void BadBackoff(int attempt) {
  std::this_thread::sleep_for(  // lint-expect
      std::chrono::milliseconds(1 << attempt));
}

inline bool BadDeadline(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() < deadline;  // lint-expect
}

inline void BadPollSleep(int ms) {
  (void)::poll(nullptr, 0, ms);  // lint-expect
}

inline int BadCappedWait(int fd) {
  pollfd p{fd, POLLIN, 0};
  return poll(&p, 1, 10);  // lint-expect
}

inline void BadUsleep() {
  (void)::usleep(1000);  // lint-expect
}

inline void BadNanosleep() {
  timespec ts{0, 1000000};
  (void)::nanosleep(&ts, nullptr);  // lint-expect
}

inline long BadClockRead() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);  // lint-expect
  return ts.tv_nsec;
}

}  // namespace rnt::sim
