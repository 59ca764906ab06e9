#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

// Timing from outside the library: decorators over the public txn::Engine,
// txn::TxnHandle and txn::TraceSink interfaces that time every call into
// a layer. Only the traced run installs them; the untraced run talks to
// the library directly.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "txn/engine.h"
#include "txn/trace.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A thread-safe log of durations (ns). Worker threads append; the driver
/// reads it once the phase has drained.
class Samples {
 public:
  void Add(std::int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    ns_.push_back(static_cast<double>(ns));
  }
  /// Durations in µs.
  std::vector<double> Us() const;
  /// Sum of all durations in ns.
  double TotalNs() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> ns_;
};

/// Per-call durations of the transaction layer, plus the storage layer's
/// commit barrier when the engine under test is durable.
struct TxnLayerSamples {
  Samples begin;         // top-level Begin and BeginChild
  Samples access;        // ApplyBatch, Apply, Get or Put: one data call
  Samples child_commit;  // commit of a subtransaction
  Samples top_commit;    // engine part of a top-level commit
  Samples abort;         // TxnHandle::Abort
  Samples barrier;       // Wal::BarrierAll after a top-level commit
};

/// What the engine calls of the batch a worker is executing cost so far.
/// TimedEngine::Begin (the first engine call of every submission, which
/// always opens a top-level transaction) resets it; the completion
/// callback, which runs on the same worker thread, reads it.
struct AttemptTimes {
  std::int64_t exec_begin = 0;  // entry into the top-level Begin
  std::int64_t engine_ns = 0;   // summed engine calls, barrier excluded
  std::int64_t barrier_ns = 0;  // summed Wal::BarrierAll
};
AttemptTimes& ThisThreadAttempt();

/// txn::Engine decorator timing every call. With a non-null `wal`, the
/// wrapped engine is a plain TransactionManager logging into that WAL and
/// the decorator adds the top-level durability barrier itself, exactly as
/// storage::DurableEngine's handle does, so the engine commit and the
/// barrier wait are timed apart.
class TimedEngine final : public rnt::txn::Engine {
 public:
  TimedEngine(rnt::txn::Engine* inner, rnt::storage::Wal* wal,
              TxnLayerSamples* samples)
      : inner_(inner), wal_(wal), samples_(samples) {}

  std::unique_ptr<rnt::txn::TxnHandle> Begin() override;
  rnt::Value ReadCommitted(rnt::ObjectId x) override {
    return inner_->ReadCommitted(x);
  }
  std::string name() const override { return "timed-" + inner_->name(); }

 private:
  rnt::txn::Engine* inner_;
  rnt::storage::Wal* wal_;
  TxnLayerSamples* samples_;
};

/// txn::TraceSink decorator timing each Append of the wrapped sink.
class TimedSink final : public rnt::txn::TraceSink {
 public:
  TimedSink(rnt::txn::TraceSink* inner, Samples* samples)
      : inner_(inner), samples_(samples) {}
  void Append(const rnt::txn::TraceEvent& event) override {
    const std::int64_t t0 = NowNs();
    inner_->Append(event);
    samples_->Add(NowNs() - t0);
  }

 private:
  rnt::txn::TraceSink* inner_;
  Samples* samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
