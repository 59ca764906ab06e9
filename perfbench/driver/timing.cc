#include "timing.h"

namespace perfbench {

namespace {

using rnt::ObjectId;
using rnt::Status;
using rnt::StatusOr;
using rnt::Value;
using rnt::txn::TxnHandle;

/// Adds the duration since `t0` to `samples` and to this thread's attempt.
void Charge(Samples& samples, std::int64_t t0) {
  const std::int64_t d = NowNs() - t0;
  samples.Add(d);
  ThisThreadAttempt().engine_ns += d;
}

class TimedTxn final : public TxnHandle {
 public:
  TimedTxn(std::unique_ptr<TxnHandle> inner, rnt::storage::Wal* wal,
           TxnLayerSamples* samples, bool top)
      : inner_(std::move(inner)), wal_(wal), samples_(samples), top_(top) {}

  StatusOr<Value> Get(ObjectId x) override {
    const std::int64_t t0 = NowNs();
    StatusOr<Value> r = inner_->Get(x);
    Charge(samples_->access, t0);
    return r;
  }
  Status Put(ObjectId x, Value v) override {
    const std::int64_t t0 = NowNs();
    Status s = inner_->Put(x, v);
    Charge(samples_->access, t0);
    return s;
  }
  StatusOr<Value> Apply(ObjectId x, const rnt::action::Update& u) override {
    const std::int64_t t0 = NowNs();
    StatusOr<Value> r = inner_->Apply(x, u);
    Charge(samples_->access, t0);
    return r;
  }
  void ApplyBatch(std::span<const rnt::txn::BatchAccess> ops,
                  rnt::txn::OpOutcome* results) override {
    const std::int64_t t0 = NowNs();
    inner_->ApplyBatch(ops, results);
    Charge(samples_->access, t0);
  }
  StatusOr<std::unique_ptr<TxnHandle>> BeginChild() override {
    const std::int64_t t0 = NowNs();
    StatusOr<std::unique_ptr<TxnHandle>> child = inner_->BeginChild();
    Charge(samples_->begin, t0);
    if (!child.ok()) return child.status();
    return std::unique_ptr<TxnHandle>(
        new TimedTxn(std::move(*child), wal_, samples_, /*top=*/false));
  }
  Status Commit() override {
    const std::int64_t t0 = NowNs();
    Status s = inner_->Commit();
    Charge(top_ ? samples_->top_commit : samples_->child_commit, t0);
    if (!s.ok() || !top_ || wal_ == nullptr) return s;
    const std::int64_t b0 = NowNs();
    s = wal_->BarrierAll();
    const std::int64_t d = NowNs() - b0;
    samples_->barrier.Add(d);
    ThisThreadAttempt().barrier_ns += d;
    return s;
  }
  Status Abort() override {
    const std::int64_t t0 = NowNs();
    Status s = inner_->Abort();
    Charge(samples_->abort, t0);
    return s;
  }

 private:
  std::unique_ptr<TxnHandle> inner_;
  rnt::storage::Wal* wal_;
  TxnLayerSamples* samples_;
  const bool top_;
};

}  // namespace

std::vector<double> Samples::Us() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> us;
  us.reserve(ns_.size());
  for (double ns : ns_) us.push_back(ns / 1e3);
  return us;
}

double Samples::TotalNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0;
  for (double ns : ns_) sum += ns;
  return sum;
}

AttemptTimes& ThisThreadAttempt() {
  thread_local AttemptTimes times;
  return times;
}

std::unique_ptr<TxnHandle> TimedEngine::Begin() {
  const std::int64_t t0 = NowNs();
  ThisThreadAttempt() = AttemptTimes{t0, 0, 0};
  std::unique_ptr<TxnHandle> inner = inner_->Begin();
  Charge(samples_->begin, t0);
  return std::make_unique<TimedTxn>(std::move(inner), wal_, samples_,
                                    /*top=*/true);
}

}  // namespace perfbench
