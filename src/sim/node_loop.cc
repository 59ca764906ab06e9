#include "sim/node_loop.h"

#include <algorithm>
#include <map>
#include <utility>
#include <variant>

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistEvent;

/// anc(A) ∩ summary.aborted ≠ ∅, judged from one node's local knowledge —
/// the lose-lock precondition (f12) at this level.
bool LocallyDead(const action::ActionRegistry& reg, const ActionSummary& t,
                 ActionId a) {
  for (; a != kRootAction; a = reg.Parent(a)) {
    if (t.IsAborted(a)) return true;
  }
  return false;
}

}  // namespace

Status ValidateLoopOptions(Propagation propagation, NodeId k,
                           const faults::FaultPlan& plan) {
  if (propagation == Propagation::kLazy) {
    return Status::InvalidArgument(
        "node loop is reactive: use kDelta or kEager propagation");
  }
  return faults::ValidatePlan(plan, k);
}

StatusOr<LoopPlan> PlanProgram(const dist::DistAlgebra& alg,
                               const std::set<ActionId>& abort_set) {
  const action::ActionRegistry& reg = alg.registry();
  const dist::Topology& topo = alg.topology();
  for (ActionId a : abort_set) {
    if (!reg.Valid(a) || reg.IsAccess(a) || a == kRootAction) {
      return Status::InvalidArgument(
          "abort_set must contain registered non-access actions");
    }
  }
  LoopPlan plan;
  plan.children.resize(reg.size());
  plan.nodes.resize(topo.k());
  for (ActionId a = 1; a < reg.size(); ++a) {
    plan.children[reg.Parent(a)].push_back(a);
  }
  std::map<ObjectId, std::vector<ActionId>> tickets;
  std::vector<std::pair<ActionId, bool>> stack;  // (action, expanded)
  const auto& roots = plan.children[kRootAction];
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, false);
  }
  while (!stack.empty()) {
    auto [a, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      plan.nodes[topo.HomeOfAction(a)].commits.push_back(a);
      continue;
    }
    plan.nodes[topo.Origin(a)].creates.push_back(a);
    if (reg.IsAccess(a)) {
      tickets[reg.Object(a)].push_back(a);
      continue;
    }
    if (abort_set.count(a)) {
      plan.nodes[topo.HomeOfAction(a)].aborts.push_back(a);
      continue;  // subtree pruned: its descendants are never created
    }
    stack.emplace_back(a, true);  // commit after the subtree
    const auto& kids = plan.children[a];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  for (auto& [x, list] : tickets) {
    plan.nodes[topo.HomeOfObject(x)].objects.push_back(
        LoopPlan::Object{x, std::move(list)});
  }
  return plan;
}

NodeLoop::NodeLoop(const dist::DistAlgebra& alg, dist::DistState& state,
                   const LoopPlan& plan, const Config& config, NodeHost& host)
    : alg_(alg),
      reg_(alg.registry()),
      state_(state),
      plan_(plan),
      work_(plan.nodes[config.self]),
      config_(config),
      host_(host),
      created_(reg_.size(), 0),
      done_flag_(work_.aborts.size() + work_.commits.size(), 0),
      cursors_(work_.objects.size()),
      shipped_(alg.topology().k()),
      shipped_version_(alg.topology().k(), 0) {}

bool NodeLoop::Step() {
  ++passes_;
  bool progress = false;
  progress |= DeliverMail();
  progress |= TryCreates();
  progress |= TryAborts();
  progress |= TryObjects();
  progress |= TryCommits();
  if (!err_.ok()) return false;
  if (!marked_done_ && LocalDone()) {
    marked_done_ = true;
    progress = true;
    host_.OnDone();
  }
  Flush();
  if (host_.AllDone()) return false;
  if (progress) {
    ResetWatchdog();
  } else {
    ++idle_;
    if (config_.watchdog && idle_ >= next_retry_idle_) {
      Watchdog();
      if (!err_.ok()) return false;
    }
    if (!marked_done_ && idle_ > config_.max_idle_spins) {
      // Permanent starvation (e.g. an unhealed partition): abandon the
      // remaining obligations; the others may still finish.
      gave_up_ = true;
      marked_done_ = true;
      host_.OnDone();
    }
  }
  return host_.Pace(progress);
}

void NodeLoop::Crash() {
  state_.nodes[config_.self].summary = ActionSummary{};
  held_.clear();
  ++stats_.crashes;
}

Status NodeLoop::Rebirth(const ActionSummary& retained) {
  if (!retained.empty()) {
    DistEvent recv{dist::Receive{config_.self, retained}};
    if (!alg_.Defined(state_, recv)) {
      // M_i holds exactly the Send payloads recorded toward this node,
      // so this means the write-ahead discipline is broken.
      return Status::Internal(
          "node loop: rebirth replay is not a legal Receive");
    }
    alg_.Apply(state_, recv);
    if (!Record(std::move(recv))) return err_;
  }
  ++stats_.recovered_nodes;
  ++version_;
  // Cursors restart at the front; the next pass skips what the recovered
  // knowledge shows done (TryCreates and TryObjects skip settled entries).
  const ActionSummary& t = Knowledge();
  for (ActionId a : work_.creates) created_[a] = t.Contains(a) ? 1 : 0;
  next_create_ = 0;
  for (std::size_t i = 0; i < work_.aborts.size(); ++i) {
    done_flag_[i] = t.IsAborted(work_.aborts[i]) ? 1 : 0;
  }
  for (std::size_t i = 0; i < work_.commits.size(); ++i) {
    done_flag_[work_.aborts.size() + i] = t.IsDone(work_.commits[i]) ? 1 : 0;
  }
  // Re-walk every object's durable lock table.
  cursors_.assign(cursors_.size(), Cursor{});
  ResetWatchdog();
  return Status::Ok();
}

void NodeLoop::ResetWatchdog() {
  idle_ = 0;
  attempts_ = 0;
  next_retry_idle_ = kStallRetrySpins;
}

/// Stamps and records `e` through the host; with `retain`, `e` is a Send
/// toward this node whose payload then joins M_i (record-then-retain).
bool NodeLoop::Record(DistEvent e, bool retain) {
  std::uint64_t stamp = 0;
  Status s = host_.Record(e, &stamp);
  if (s.ok() && retain) s = host_.Retain(std::get<dist::Send>(e).summary);
  if (!s.ok()) {
    err_ = std::move(s);
    return false;
  }
  if (config_.keep_log) log_.push_back(StampedEvent{stamp, std::move(e)});
  return true;
}

/// Applies one node event: Defined is checked against the doer's own
/// component only, so the check is race-free. A summary-changing event
/// is followed by its write-ahead self-send Send{i,i}.
bool NodeLoop::ApplyNodeEvent(DistEvent e) {
  ActionId changed = kInvalidAction;  // whose summary entry e sets
  if (const auto* c = std::get_if<dist::NodeCreate>(&e)) changed = c->a;
  if (const auto* c = std::get_if<dist::NodeCommit>(&e)) changed = c->a;
  if (const auto* c = std::get_if<dist::NodeAbort>(&e)) changed = c->a;
  if (const auto* p = std::get_if<dist::NodePerform>(&e)) changed = p->a;
  if (!alg_.Defined(state_, e)) {
    err_ = Status::Internal("node loop: event unexpectedly undefined: " +
                            dist::ToString(e));
    return false;
  }
  alg_.Apply(state_, e);
  ++stats_.node_events;
  ++version_;
  if (!Record(std::move(e))) return false;
  if (changed == kInvalidAction) return true;
  // The entry as the event just set it: active on create, committed on
  // commit and on perform (effect (d21)), aborted on abort.
  ActionSummary entry;
  entry.AddActive(changed);
  entry.SetStatus(changed, Knowledge().StatusOf(changed));
  DistEvent send{dist::Send{config_.self, config_.self, std::move(entry)}};
  // Always defined: the entry was just installed in our own summary
  // (precondition (g11), payload <= sender's knowledge).
  alg_.Apply(state_, send);  // merge into the buffer M_i (g21)
  return Record(std::move(send), /*retain=*/true);
}

/// Applies Send (merge into own buffer M_i, on the receiver) + Receive
/// (merge into own summary) per delivered message; messages under a delay
/// verdict are held for later passes (reordering).
bool NodeLoop::DeliverMail() {
  const NodeId self = config_.self;
  bool progress = false;
  std::vector<TransportMessage> due;
  for (TransportMessage& m : held_) {
    if (--m.delay <= 0) due.push_back(std::move(m));
  }
  std::erase_if(held_,
                [](const TransportMessage& m) { return m.delay <= 0; });
  for (TransportMessage& m : host_.Poll()) {
    if (m.delay > 0) {
      ++stats_.delayed_msgs;
      held_.push_back(std::move(m));
    } else {
      due.push_back(std::move(m));
    }
  }
  for (TransportMessage& m : due) {
    ++stats_.messages;
    stats_.summary_entries += m.summary.size();
    host_.Observe(m.clock);
    if (!Record(DistEvent{dist::Send{m.from, self, m.summary}},
                /*retain=*/true)) {
      return progress;
    }
    state_.buffer[self].MergeFrom(m.summary);  // (g21)
    if (!Record(DistEvent{dist::Receive{self, m.summary}})) return progress;
    // The sender certainly knows what it sent: advancing our frontier
    // for it suppresses echo traffic.
    shipped_[m.from].MergeFrom(m.summary);
    if (state_.nodes[self].summary.MergeFrom(std::move(m.summary))) {
      ++version_;
      progress = true;
    }
  }
  return progress;
}

bool NodeLoop::TryCreates() {
  const ActionSummary& t = Knowledge();
  bool progress = false;
  // Creates are in DFS order, so a blocked parent blocks its (local)
  // descendants too; scan past blocked entries anyway — different
  // subtrees interleave on one node.
  for (std::size_t idx = next_create_; idx < work_.creates.size(); ++idx) {
    ActionId a = work_.creates[idx];
    if (created_[a]) continue;
    if (LocallyDead(reg_, t, a)) {
      // A timeout-abort killed an enclosing subtransaction: the create
      // obligation is resolved by never running (the subtree is dead).
      created_[a] = 1;
      progress = true;
      continue;
    }
    ActionId p = reg_.Parent(a);
    if (p != kRootAction && (!t.Contains(p) || t.IsCommitted(p))) continue;
    if (!ApplyNodeEvent(DistEvent{dist::NodeCreate{config_.self, a}})) {
      return progress;
    }
    created_[a] = 1;
    progress = true;
  }
  while (next_create_ < work_.creates.size() &&
         created_[work_.creates[next_create_]]) {
    ++next_create_;
  }
  return progress;
}

bool NodeLoop::TryAborts() {
  bool progress = false;
  for (std::size_t i = 0; i < work_.aborts.size(); ++i) {
    if (done_flag_[i]) continue;
    ActionId a = work_.aborts[i];
    if (!Knowledge().IsActive(a)) continue;
    if (!ApplyNodeEvent(DistEvent{dist::NodeAbort{config_.self, a}})) {
      return progress;
    }
    done_flag_[i] = 1;
    ++stats_.aborts;
    progress = true;
  }
  return progress;
}

bool NodeLoop::TryCommits() {
  const ActionSummary& t = Knowledge();
  bool progress = false;
  for (std::size_t i = 0; i < work_.commits.size(); ++i) {
    const std::size_t flag = work_.aborts.size() + i;
    if (done_flag_[flag]) continue;
    ActionId a = work_.commits[i];
    if (!t.IsActive(a)) continue;
    // Stronger than ℬ's (b12): every child must be *created* (all of a's
    // children are created on this very node, so this is a local check)
    // and *done* in local knowledge — the same strengthening the chaos
    // driver documents, needed for the level-4 image. (a is planned, so
    // no ancestor of it is in the abort set and every child is live.)
    bool ready = true;
    for (ActionId c : plan_.children[a]) {
      if (!created_[c] || !t.IsDone(c)) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    if (!ApplyNodeEvent(DistEvent{dist::NodeCommit{config_.self, a}})) {
      return progress;
    }
    done_flag_[flag] = 1;
    ++stats_.commits;
    progress = true;
  }
  return progress;
}

/// Performs the ticket-head access of each local object once its lock
/// chain clears, walking blockers (release committed / lose dead) as far
/// as local knowledge allows; after the last ticket, drains the object's
/// locks to the root U the same way.
bool NodeLoop::TryObjects() {
  bool progress = false;
  for (std::size_t o = 0; o < work_.objects.size(); ++o) {
    const LoopPlan::Object& obj = work_.objects[o];
    Cursor& c = cursors_[o];
    if (c.next < obj.tickets.size()) {
      ActionId a = obj.tickets[c.next];
      if (Knowledge().IsCommitted(a) || LocallyDead(reg_, Knowledge(), a)) {
        // Performed before a crash (effect (d21) committed it), or
        // orphaned (an enclosing subtransaction was timeout-aborted) and
        // never to perform: skip it so the queue keeps moving.
        ++c.next;
        progress = true;
        continue;
      }
      if (!Knowledge().IsActive(a)) continue;
      if (!WalkLocks(obj.x, a, &progress)) continue;  // still blocked
      Value u = state_.nodes[config_.self].vmap.PrincipalValue(obj.x, reg_);
      if (!ApplyNodeEvent(
              DistEvent{dist::NodePerform{config_.self, a, u}})) {
        return progress;
      }
      ++stats_.performs;
      ++c.next;
      progress = true;
    } else if (!c.drained) {
      if (WalkLocks(obj.x, kInvalidAction, &progress)) {
        c.drained = true;
        progress = true;
      }
    }
  }
  return progress;
}

/// Walks blocking locks on x as far as local knowledge allows. Returns
/// true when no blocker remains for `requester` (kInvalidAction: for
/// anything but the root). Sets *progress on each applied walk event.
bool NodeLoop::WalkLocks(ObjectId x, ActionId requester, bool* progress) {
  const NodeId self = config_.self;
  const ActionSummary& t = Knowledge();
  for (;;) {
    const ActionId blocker = Blocker(x, requester);
    if (blocker == kInvalidAction) return true;
    if (LocallyDead(reg_, t, blocker)) {
      if (!ApplyNodeEvent(DistEvent{dist::NodeLoseLock{self, blocker, x}})) {
        return false;
      }
      ++stats_.loses;
    } else if (t.IsCommitted(blocker)) {
      if (!ApplyNodeEvent(
              DistEvent{dist::NodeReleaseLock{self, blocker, x}})) {
        return false;
      }
      ++stats_.releases;
    } else {
      return false;  // knowledge not here yet; broadcasts will bring it
    }
    *progress = true;
  }
}

/// The first lock holder on x that blocks `requester` (kInvalidAction:
/// anything but the root blocks), or kInvalidAction when none does.
ActionId NodeLoop::Blocker(ObjectId x, ActionId requester) const {
  const auto* entry = state_.nodes[config_.self].vmap.EntriesFor(x);
  if (entry == nullptr) return kInvalidAction;
  for (const auto& [b, v] : *entry) {
    if (b != kRootAction && (requester == kInvalidAction ||
                             !reg_.IsProperAncestor(b, requester))) {
      return b;
    }
  }
  return kInvalidAction;
}

bool NodeLoop::LocalDone() const {
  if (next_create_ < work_.creates.size()) return false;
  for (char f : done_flag_) {
    if (!f) return false;
  }
  for (std::size_t o = 0; o < work_.objects.size(); ++o) {
    if (cursors_[o].next < work_.objects[o].tickets.size() ||
        !cursors_[o].drained) {
      return false;
    }
  }
  return true;
}

/// One watchdog firing: a logical-clock tick, an anti-entropy full-summary
/// re-broadcast (a dropped delta is gone for good; a healed partition
/// needs a resend), and — past the escalation threshold — a
/// timeout-abort. Backoff is bounded-exponential in idle passes.
void NodeLoop::Watchdog() {
  ++stats_.retries;
  ++attempts_;
  host_.Tick();
  FullBroadcast();
  if (!marked_done_ && attempts_ > config_.max_attempts_per_step) {
    if (TimeoutAbort()) attempts_ = 0;
  }
  next_retry_idle_ =
      idle_ + (std::uint64_t{kStallRetrySpins} << std::min(attempts_, 5));
}

/// The chaos driver's timeout-abort: abort the deepest abortable enclosing
/// subtransaction *homed on this node* — first among a stuck lock holder's
/// ancestors (freeing the lock via the lose-lock path), then on the node's
/// own pending commit path (orphaning the stuck subtree, which the orphan
/// machinery must keep consistent). Only locally homed actions are
/// eligible: a node event touches only the doer's component.
bool NodeLoop::TimeoutAbort() {
  const ActionSummary& t = Knowledge();
  for (std::size_t o = 0; o < work_.objects.size(); ++o) {
    const LoopPlan::Object& obj = work_.objects[o];  // stuck holders first
    if (cursors_[o].next >= obj.tickets.size()) continue;
    ActionId requester = obj.tickets[cursors_[o].next];
    if (!t.IsActive(requester)) continue;
    const ActionId b = Blocker(obj.x, requester);
    if (b == kInvalidAction || LocallyDead(reg_, t, b) || t.IsCommitted(b)) {
      continue;  // unblocked or walkable
    }
    if (AbortAncestorHomedHere(b, requester)) return true;
  }
  // Own path: commits are in DFS post-order, so the first pending entry
  // is the deepest unfinished subtransaction homed here.
  for (std::size_t i = 0; i < work_.commits.size(); ++i) {
    const std::size_t flag = work_.aborts.size() + i;
    if (done_flag_[flag]) continue;
    ActionId a = work_.commits[i];
    if (!t.IsActive(a)) continue;
    if (!ApplyNodeEvent(DistEvent{dist::NodeAbort{config_.self, a}})) {
      return false;
    }
    done_flag_[flag] = 1;
    ++stats_.timeout_aborts;
    return true;
  }
  return false;
}

/// Aborts the deepest non-access ancestor of `blocker` that is homed here,
/// active, and not an ancestor of `requester` (a blocked step never shoots
/// down its own transaction from here).
bool NodeLoop::AbortAncestorHomedHere(ActionId blocker, ActionId requester) {
  const ActionSummary& t = Knowledge();
  for (ActionId c : reg_.AncestorChain(blocker)) {
    if (c == kRootAction || reg_.IsAccess(c)) continue;
    if (reg_.IsAncestor(c, requester)) continue;
    if (alg_.topology().HomeOfAction(c) != config_.self) continue;
    if (!t.IsActive(c)) continue;
    if (!ApplyNodeEvent(DistEvent{dist::NodeAbort{config_.self, c}})) {
      return false;
    }
    const auto it = std::find(work_.commits.begin(), work_.commits.end(), c);
    if (it != work_.commits.end()) {
      done_flag_[work_.aborts.size() + (it - work_.commits.begin())] = 1;
    }
    ++stats_.timeout_aborts;
    return true;
  }
  return false;
}

/// Ships pending knowledge to every peer. Under kDelta only the entries
/// beyond the per-peer frontier travel — everything that accumulated
/// since the last flush coalesces into a single message per peer; kEager
/// ships the full summary whenever anything changed.
void NodeLoop::Flush() {
  const ActionSummary& t = Knowledge();
  if (t.empty()) return;
  for (NodeId j = 0; j < alg_.topology().k(); ++j) {
    if (j == config_.self) continue;
    if (config_.propagation == Propagation::kDelta) {
      ActionSummary delta = t.DeltaSince(shipped_[j]);
      if (delta.empty()) continue;
      shipped_[j].MergeFrom(delta);
      host_.Send(j, std::move(delta));
    } else {
      if (shipped_version_[j] == version_) continue;
      shipped_version_[j] = version_;
      host_.Send(j, t);
    }
  }
}

void NodeLoop::FullBroadcast() {
  const ActionSummary& t = Knowledge();
  if (t.empty()) return;
  for (NodeId j = 0; j < alg_.topology().k(); ++j) {
    if (j != config_.self) host_.Send(j, t);
  }
}

}  // namespace rnt::sim
