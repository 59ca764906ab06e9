#include "frontend/batch.h"

namespace rnt::frontend {

namespace {

bool IsDataOp(BatchOpKind k) {
  return k == BatchOpKind::kGet || k == BatchOpKind::kPut ||
         k == BatchOpKind::kApply;
}

}  // namespace

void Session::CloseAbort() {
  while (!stack_.empty()) {
    // Teardown of a poisoned session: innermost-out aborts where "already
    // aborted by a cascade" is expected, not reportable.
    (void)stack_.back()->Abort();  // rnt-lint: allow(status-must-use)
    stack_.pop_back();
  }
}

void Session::LockAhead(std::span<const BatchOp> ops, std::size_t begin) {
  ahead_failure_ = StatusCode::kOk;
  scratch_ops_.clear();
  std::size_t depth = 1;
  for (std::size_t i = begin + 1; i < ops.size(); ++i) {
    const BatchOp& op = ops[i];
    if (IsDataOp(op.kind)) {
      scratch_ops_.push_back(txn::BatchAccess{op.object, op.update});
    } else if (op.kind == BatchOpKind::kBegin) {
      ++depth;
    } else if (op.kind == BatchOpKind::kCommit ||
               op.kind == BatchOpKind::kAbort) {
      if (--depth == 0) {
        const Status s = stack_.back()->LockAhead(scratch_ops_);
        ahead_failure_ = s.code();
        return;
      }
    }
  }
}

void Session::RunDataOps(std::span<const BatchOp> run, OpResult* results,
                         bool batched) {
  txn::TxnHandle* txn = stack_.back().get();
  if (ahead_failure_ != StatusCode::kOk) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      results[i] = OpResult{ahead_failure_, 0};
    }
    ahead_failure_ = StatusCode::kOk;
    return;
  }
  if (batched) {
    scratch_ops_.clear();
    for (const BatchOp& op : run) {
      scratch_ops_.push_back(txn::BatchAccess{op.object, op.update});
    }
    scratch_out_.resize(run.size());
    txn->ApplyBatch(scratch_ops_, scratch_out_.data());
    for (std::size_t i = 0; i < run.size(); ++i) {
      results[i] = OpResult{scratch_out_[i].code, scratch_out_[i].value};
    }
    return;
  }
  for (std::size_t i = 0; i < run.size(); ++i) {
    StatusOr<Value> r = txn->Apply(run[i].object, run[i].update);
    results[i] = r.ok() ? OpResult{StatusCode::kOk, *r}
                        : OpResult{r.status().code(), 0};
  }
}

BatchResult Session::Run(const BatchRequest& request, OpResult* results,
                         bool batched) {
  const std::span<const BatchOp> ops = request.ops;
  std::size_t i = 0;
  while (i < ops.size()) {
    const BatchOp& op = ops[i];
    if (IsDataOp(op.kind)) {
      if (stack_.empty()) {
        // No transaction open: refuse the whole data run identically in
        // both modes (each op individually hits the same empty stack).
        results[i] = OpResult{StatusCode::kIllegalState, 0};
        ++i;
        continue;
      }
      // The amortization unit: a maximal run of consecutive data ops
      // goes to the engine as one ApplyBatch call.
      std::size_t end = i + 1;
      while (end < ops.size() && IsDataOp(ops[end].kind)) ++end;
      RunDataOps(ops.subspan(i, end - i), results + i, batched);
      i = end;
      continue;
    }
    switch (op.kind) {
      case BatchOpKind::kBegin: {
        if (stack_.empty()) {
          stack_.push_back(engine_->Begin());
          results[i] = OpResult{StatusCode::kOk, 0};
          if (batched) LockAhead(ops, i);
        } else {
          auto child = stack_.back()->BeginChild();
          if (child.ok()) {
            stack_.push_back(std::move(*child));
            results[i] = OpResult{StatusCode::kOk, 0};
          } else {
            results[i] = OpResult{child.status().code(), 0};
          }
        }
        break;
      }
      case BatchOpKind::kCommit: {
        if (stack_.empty()) {
          results[i] = OpResult{StatusCode::kIllegalState, 0};
          break;
        }
        Status s = stack_.back()->Commit();
        results[i] = OpResult{s.code(), 0};
        // A kOk commit retires the handle. So does kAborted (the
        // transaction is dead either way); kIllegalState (open
        // children) keeps it — the session still owns the subtree.
        if (s.ok() || s.IsAborted()) stack_.pop_back();
        break;
      }
      case BatchOpKind::kAbort: {
        if (stack_.empty()) {
          results[i] = OpResult{StatusCode::kIllegalState, 0};
          break;
        }
        Status s = stack_.back()->Abort();
        results[i] = OpResult{s.code(), 0};
        stack_.pop_back();
        break;
      }
      default:
        results[i] = OpResult{StatusCode::kInvalidArgument, 0};
        break;
    }
    ++i;
  }
  BatchResult out;
  out.results = std::span<const OpResult>(results, ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (results[k].ok()) {
      ++out.ok_ops;
    } else {
      ++out.failed_ops;
    }
  }
  return out;
}

}  // namespace rnt::frontend
