#include "txn/online_checker.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

namespace rnt::txn {

namespace {

constexpr std::uint8_t kActive = 0;
constexpr std::uint8_t kCommitted = 1;
constexpr std::uint8_t kAborted = 2;

/// A transaction (or the root) is quiet once done with every live child
/// quiet; the root never is.
bool TxnQuiet(lock::TxnId id, std::uint8_t status, std::uint32_t unsettled) {
  return id != lock::kNoTxn && status != kActive && unsettled == 0;
}

}  // namespace

OnlineChecker::OnlineChecker() : OnlineChecker(Options()) {}

OnlineChecker::OnlineChecker(Options options) : options_(options) {
  MutexLock l(checker_mu_);
  // The virtual root U: active forever, anchored by definition (perm(T)
  // is the subtree visible to U).
  Vertex& root = vertices_[lock::kNoTxn];
  root.anchored = true;
  root.interior = std::make_unique<Interior>();
}

OnlineChecker::~OnlineChecker() {
  std::thread consumer;
  {
    MutexLock l(checker_wake_mu_);
    stop_ = true;
    consumer = std::move(consumer_);
    wake_cv_.NotifyAll();
  }
  if (consumer.joinable()) consumer.join();
}

std::size_t OnlineChecker::SlotForThisThread() {
  // Round-robin thread -> slot binding, fixed at a thread's first append
  // to any checker (only the modulus matters). The binding decides which
  // buffer an event waits in, never its place in the apply order.
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t assigned =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return assigned % kAppendSlots;
}

void OnlineChecker::Append(const TraceEvent& event) {
  const std::size_t i = SlotForThisThread();
  AppendSlot& slot = slots_[i];
  std::size_t buffered = 0;
  {
    MutexLock l(slot.checker_slot_mu);
    if (!slot.listed) {
      slot.listed = true;
      listed_slots_.fetch_or(std::uint32_t{1} << i);
    }
    // Stamp and push under one mutex: once a stamp is taken its event is
    // in a slot, so a drain that follows finds every lower stamp.
    slot.pending.push_back(Stamped{next_stamp_.fetch_add(1), event});
    buffered = slot.pending.size();
  }
  if (buffered >= kSlotCap) {
    MutexLock l(checker_mu_);
    ApplyStamped();
    return;
  }
  if (buffered >= kStartBacklog &&
      !consumer_started_.load(std::memory_order_relaxed)) {
    StartConsumer();
  }
  // Read after the stamp (both sequentially consistent): either the
  // consumer's last look at next_stamp_ saw this event, or this load sees
  // its sleep flag and the exchange elects one appender to wake it.
  if (consumer_sleeping_.load() && consumer_sleeping_.exchange(false)) {
    MutexLock l(checker_wake_mu_);
    wake_cv_.NotifyOne();
  }
}

void OnlineChecker::StartConsumer() {
  if (consumer_started_.exchange(true)) return;
  // Spawned before taking the wake mutex, which the loop takes itself.
  std::thread consumer([this] { ConsumerLoop(); });
  MutexLock l(checker_wake_mu_);
  consumer_ = std::move(consumer);
}

void OnlineChecker::ConsumerLoop() {
  for (;;) {
    std::uint64_t applied = 0;
    {
      MutexLock l(checker_mu_);
      ApplyStamped();
      applied = next_apply_;
    }
    MutexLock l(checker_wake_mu_);
    if (stop_) return;
    consumer_sleeping_.store(true);
    if (next_stamp_.load() != applied) {
      // New (or still in-flight) stamps: drain again instead of sleeping.
      consumer_sleeping_.store(false);
      continue;
    }
    while (consumer_sleeping_.load() && !stop_) {
      wake_cv_.Wait(checker_wake_mu_);
    }
    if (stop_) return;
  }
}

void OnlineChecker::ApplyStamped() {
  if (held_.empty() && next_stamp_.load() == next_apply_) return;
  // Collect every slot behind the events held back by the last drain.
  // Each slot's run is in stamp order; several runs need a merge.
  std::size_t runs = held_.empty() ? 0 : 1;
  const std::uint32_t listed = listed_slots_.load();
  for (std::size_t i = 0; i < kAppendSlots; ++i) {
    if ((listed & (std::uint32_t{1} << i)) == 0) continue;
    AppendSlot& slot = slots_[i];
    {
      MutexLock l(slot.checker_slot_mu);
      if (slot.pending.empty()) continue;
      slot.pending.swap(spare_);
    }
    ++runs;
    held_.insert(held_.end(), std::make_move_iterator(spare_.begin()),
                 std::make_move_iterator(spare_.end()));
    spare_.clear();
  }
  if (held_.empty()) return;
  stats_.backlog_peak =
      std::max(stats_.backlog_peak, next_stamp_.load() - next_apply_);
  if (runs > 1) {
    std::sort(held_.begin(), held_.end(),
              [](const Stamped& a, const Stamped& b) {
                return a.stamp < b.stamp;
              });
  }
  // Apply the contiguous run. A stamp missing from it was taken after its
  // slot was collected; it and everything behind it wait for the next
  // drain, which is guaranteed to find it.
  std::size_t n = 0;
  for (; n < held_.size() && held_[n].stamp == next_apply_; ++n) {
    ApplyLocked(held_[n].event);
    ++next_apply_;
  }
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
}

void OnlineChecker::Latch(Outcome outcome, std::size_t index,
                          std::string detail,
                          std::vector<lock::TxnId> witness) {
  if (latched_.has_value()) return;
  CheckResult r;
  r.outcome = outcome;
  r.event_index = index;
  r.transient = false;
  r.detail = std::move(detail);
  r.witness = std::move(witness);
  latched_ = std::move(r);
}

OnlineChecker::Vertex* OnlineChecker::Find(lock::TxnId id) {
  auto it = vertices_.find(id);
  return it == vertices_.end() ? nullptr : &it->second;
}

bool OnlineChecker::IsTombstone(lock::TxnId id) const {
  return tombstones_.Find(id) != nullptr;
}

bool OnlineChecker::ResolveParent(lock::TxnId id, Vertex** parent) {
  *parent = Find(id);
  if (*parent != nullptr) {
    return !(*parent)->is_access && (*parent)->status != kCommitted;
  }
  const std::uint8_t* status = tombstones_.Find(id);
  return status != nullptr && *status == kAborted;
}

void OnlineChecker::Attach(Vertex& v, Vertex* parent) {
  if (parent == nullptr) {
    // A retired aborted ancestor: (a1) still admits the create; the
    // vertex is dead at birth and, unreachable from the root, is never
    // retired.
    v.dead = true;
    v.detached = true;
    return;
  }
  v.parent_vertex = parent;
  v.dead = parent->dead;
  v.detached = parent->detached;
  Interior& in = *parent->interior;
  v.prev_sibling = in.last_child;
  if (in.last_child != nullptr) {
    in.last_child->next_sibling = &v;
  } else {
    in.first_child = &v;
  }
  in.last_child = &v;
}

void OnlineChecker::SetQuiet(Vertex& v, bool quiet) {
  if (v.quiet == quiet) return;
  v.quiet = quiet;
  if (quiet && options_.gc_window != 0 && !v.detached) {
    retire_worklist_.push_back(v.id);
  }
  if (v.parent_vertex != nullptr) Settle(*v.parent_vertex, quiet ? -1 : 1);
}

void OnlineChecker::Settle(Vertex& v, int delta) {
  Interior& in = *v.interior;
  if (delta > 0) {
    ++in.unsettled;
  } else {
    --in.unsettled;
  }
  SetQuiet(v, TxnQuiet(v.id, v.status, in.unsettled));
}

void OnlineChecker::AdvanceFrontier(Window& w, OpenSlots& o, ObjectId x,
                                    std::size_t event_index) {
  while (o.head < o.slots.size() && o.slots[o.head].state != Slot::kPending) {
    const Slot s = o.slots[o.head++];
    ++w.base;
    --current_slots_;
    if (s.state == Slot::kPerm) {
      Vertex& a = *s.access;
      if (a.label != w.fold) {
        std::ostringstream os;
        os << "version incompatibility: datastep " << a.id << " on object "
           << x << " saw " << a.label << " but its perm predecessors fold to "
           << w.fold;
        Latch(Outcome::kNotSerializable, event_index, os.str(), {});
        break;
      }
      w.fold = a.update.Apply(w.fold);
      SetQuiet(a, true);  // anchored and popped
    }
  }
  if (o.head == o.slots.size()) {
    // Fully determined: give the slot storage back, keep fold + position.
    if (o.deferred) deferred_windows_.erase(x);
    open_slots_.erase(x);
  } else if (o.head >= 32 && 2 * o.head >= o.slots.size()) {
    // A long-lived window (a hot object never fully determined) drops its
    // popped prefix once that is half the vector: pops stay amortized O(1).
    o.slots.erase(o.slots.begin(), o.slots.begin() + o.head);
    o.head = 0;
  }
}

void OnlineChecker::AddEdge(const Vertex& group, Vertex* from, Vertex* to,
                            std::size_t event_index) {
  if (from == to) return;
  auto at = std::lower_bound(
      from->out.begin(), from->out.end(), to->id,
      [](const Vertex* a, lock::TxnId id) { return a->id < id; });
  if (at != from->out.end() && *at == to) return;  // already present
  from->out.insert(at, to);
  ++to->in_degree;
  ++current_edges_;
  ++stats_.edges_inserted;
  // Incremental cycle check: the new edge closes a cycle iff `from` is
  // reachable from `to` in the group's live graph — never when `to` has
  // no out-edges. BFS over id-sorted out-lists keeps the witness
  // deterministic and shortest; epoch marks stand in for a visited set.
  if (to->out.empty()) return;
  const std::uint64_t mark = ++bfs_epoch_;
  bfs_queue_.clear();
  to->bfs_mark = mark;
  to->bfs_parent = to;
  bfs_queue_.push_back(to);
  bool found = false;
  for (std::size_t head = 0; head < bfs_queue_.size() && !found; ++head) {
    Vertex* n = bfs_queue_[head];
    for (Vertex* next : n->out) {
      if (next->bfs_mark == mark) continue;
      next->bfs_mark = mark;
      next->bfs_parent = n;
      if (next == from) {
        found = true;
        break;
      }
      bfs_queue_.push_back(next);
    }
  }
  if (!found) return;
  // Witness cycle from -> to -> ... -> from, reported without repeating
  // the first vertex.
  std::vector<lock::TxnId> witness{from->id, to->id};
  std::vector<lock::TxnId> back;  // from's BFS ancestors, nearest first
  for (Vertex* n = from->bfs_parent; n != to; n = n->bfs_parent) {
    back.push_back(n->id);
  }
  witness.insert(witness.end(), back.rbegin(), back.rend());
  std::ostringstream os;
  os << "sibling-data cycle of length " << witness.size()
     << " among children of " << group.id << ":";
  for (lock::TxnId n : witness) os << " " << n;
  Latch(Outcome::kNotSerializable, event_index, os.str(), std::move(witness));
}

void OnlineChecker::JoinPerm(Vertex& v, std::size_t event_index) {
  const ObjectId x = v.object;
  Window& w = WindowOf(x);
  // Flip this datastep's slot to perm; the determined frontier may now
  // advance (and check labels) past it.
  OpenSlots& o = open_slots_.find(x)->second;
  o.slots[o.head + static_cast<std::size_t>(v.pos - w.base)].state =
      Slot::kPerm;
  AdvanceFrontier(w, o, x, event_index);
  if (latched_.has_value()) return;
  if (v.pos >= w.base) {
    // Still behind a pending datastep (so `o` is still open): a Lemma
    // 10(c) breach — some earlier datastep on the object is neither dead
    // nor in perm. Its version check stays deferred until the window
    // determines.
    ++stats_.deferred_joins;
    if (!o.deferred) {
      o.deferred = true;
      deferred_windows_.insert(x);
    }
  }
  // Lift the new datastep to every sibling group on its ancestor chain,
  // deciding edges against each group's aggregated spans.
  const std::uint64_t p = v.pos;
  // Conflict classification derives from the update's *effect*
  // (IsIdentity), not its kRead tag: an adversarial trace that labels a
  // mutating access as a read still contributes write spans, so the rw
  // relaxation cannot be talked out of an edge (ROADMAP kRw trust hole).
  const bool is_read = v.update.IsIdentity();
  // In rw mode a read conflicts only with non-reads; a non-read (or
  // single mode) conflicts with every access.
  const bool writes_only = options_.mode == Mode::kRw && is_read;
  Vertex* c = &v;
  for (Vertex* g = v.parent_vertex; g != nullptr;
       c = g, g = g->parent_vertex) {
    std::vector<SpanEntry>& per_obj = g->interior->spans[x];
    std::size_t mine = per_obj.size();
    for (std::size_t i = 0; i < per_obj.size(); ++i) {
      Vertex* c2 = per_obj[i].child;
      if (c2 == c) {  // same subtree: no sibling edge
        mine = i;
        continue;
      }
      const ChildSpan& span = per_obj[i].span;
      if (writes_only ? !span.has_write : !span.has_any) continue;
      const std::uint64_t mn = writes_only ? span.min_write : span.min_any;
      const std::uint64_t mx = writes_only ? span.max_write : span.max_any;
      if (mn < p) {
        AddEdge(*g, c2, c, event_index);
        if (latched_.has_value()) return;
      }
      if (mx > p) {
        AddEdge(*g, c, c2, event_index);
        if (latched_.has_value()) return;
      }
    }
    if (mine == per_obj.size()) {
      auto at = std::lower_bound(
          per_obj.begin(), per_obj.end(), c->id,
          [](const SpanEntry& e, lock::TxnId id) { return e.child->id < id; });
      mine = static_cast<std::size_t>(at - per_obj.begin());
      per_obj.insert(at, SpanEntry{c, ChildSpan{}});
      if (!c->is_access) c->interior->span_objects.push_back(x);
    }
    ChildSpan& s = per_obj[mine].span;
    if (!s.has_any) {
      s.min_any = s.max_any = p;
      s.has_any = true;
    } else {
      s.min_any = std::min(s.min_any, p);
      s.max_any = std::max(s.max_any, p);
    }
    if (!is_read) {
      if (!s.has_write) {
        s.min_write = s.max_write = p;
        s.has_write = true;
      } else {
        s.min_write = std::min(s.min_write, p);
        s.max_write = std::max(s.max_write, p);
      }
    }
  }
}

void OnlineChecker::AnchorSubtree(Vertex* top, std::size_t event_index) {
  // Anchoring avalanche: when a vertex joins perm, its already-committed
  // descendants join with it. Iterative DFS, children in creation order.
  walk_.assign(1, top);
  while (!walk_.empty()) {
    if (latched_.has_value()) return;
    Vertex* v = walk_.back();
    walk_.pop_back();
    if (v->anchored || v->dead) continue;
    v->anchored = true;
    if (v->is_access) {
      JoinPerm(*v, event_index);
      continue;
    }
    for (Vertex* ch = v->interior->last_child; ch != nullptr;
         ch = ch->prev_sibling) {
      if (ch->status == kCommitted && !ch->dead) walk_.push_back(ch);
    }
  }
}

void OnlineChecker::MarkDeadSubtree(Vertex* top, std::size_t event_index) {
  walk_.assign(1, top);
  while (!walk_.empty()) {
    Vertex* v = walk_.back();
    walk_.pop_back();
    if (v->dead) continue;
    v->dead = true;
    if (!v->is_access) {
      for (Vertex* ch = v->interior->first_child; ch != nullptr;
           ch = ch->next_sibling) {
        walk_.push_back(ch);
      }
      continue;
    }
    if (!v->anchored) {
      Window& w = WindowOf(v->object);
      if (v->pos >= w.base) {
        OpenSlots& o = open_slots_.find(v->object)->second;
        Slot& s = o.slots[o.head + static_cast<std::size_t>(v->pos - w.base)];
        s.state = Slot::kDead;
        s.access = nullptr;
        AdvanceFrontier(w, o, v->object, event_index);
      }
    }
    SetQuiet(*v, true);
  }
}

void OnlineChecker::ApplyLocked(const TraceEvent& e) {
  const std::size_t idx = static_cast<std::size_t>(stats_.events++);
  if (latched_.has_value()) return;
  auto invalid = [&](const char* what) {
    std::ostringstream os;
    os << "invalid trace: " << what << " at event " << idx << " (action "
       << e.id << ")";
    Latch(Outcome::kInvalidTrace, idx, os.str(), {});
  };
  switch (e.kind) {
    case TraceEvent::Kind::kBegin: {
      if (e.id == lock::kNoTxn) {
        invalid("begin of the virtual root");
        break;
      }
      if (Find(e.id) != nullptr || IsTombstone(e.id)) {
        invalid("create precondition (duplicate action)");
        break;
      }
      // One detail for every illegal parent: GC may have forgotten a
      // committed vertex or an access, so telling those apart from an
      // unknown id would make the detail depend on gc_window.
      Vertex* p = nullptr;
      if (!ResolveParent(e.parent, &p)) {
        invalid("create precondition (parent not an active or aborted "
                "transaction)");
        break;
      }
      Vertex& v = vertices_[e.id];
      v.id = e.id;
      v.interior = std::make_unique<Interior>();
      Attach(v, p);
      if (p != nullptr) {
        ++p->interior->open_children;
        Settle(*p, 1);  // an active child unsettles its parent
      }
      break;
    }
    case TraceEvent::Kind::kCommit: {
      if (e.id == lock::kNoTxn) {
        invalid("commit of the virtual root");
        break;
      }
      Vertex* v = Find(e.id);
      if (v == nullptr) {
        invalid("commit of unknown or retired action");
        break;
      }
      if (v->is_access || v->status != kActive) {
        invalid("commit precondition");
        break;
      }
      if (v->interior->open_children != 0) {
        invalid("commit precondition (active child)");
        break;
      }
      v->status = kCommitted;
      SetQuiet(*v, TxnQuiet(v->id, v->status, v->interior->unsettled));
      if (Vertex* p = v->parent_vertex; p != nullptr) {
        if (p->interior->open_children > 0) --p->interior->open_children;
        if (p->anchored && !v->dead) AnchorSubtree(v, idx);
      }
      break;
    }
    case TraceEvent::Kind::kAbort: {
      if (e.id == lock::kNoTxn) {
        invalid("abort of the virtual root");
        break;
      }
      Vertex* v = Find(e.id);
      if (v == nullptr) {
        invalid("abort of unknown or retired action");
        break;
      }
      if (v->status != kActive) {  // accesses are committed at perform
        invalid("abort precondition");
        break;
      }
      v->status = kAborted;
      SetQuiet(*v, TxnQuiet(v->id, v->status, v->interior->unsettled));
      if (Vertex* p = v->parent_vertex;
          p != nullptr && p->interior->open_children > 0) {
        --p->interior->open_children;
      }
      MarkDeadSubtree(v, idx);
      break;
    }
    case TraceEvent::Kind::kPerform: {
      if (e.id == lock::kNoTxn) {
        invalid("perform of the virtual root");
        break;
      }
      if (Find(e.id) != nullptr || IsTombstone(e.id)) {
        invalid("access create precondition (duplicate action)");
        break;
      }
      Vertex* p = nullptr;
      if (!ResolveParent(e.parent, &p)) {
        invalid("access create precondition (parent not an active or "
                "aborted transaction)");
        break;
      }
      Vertex& v = vertices_[e.id];
      v.id = e.id;
      v.is_access = true;
      v.object = e.object;
      v.update = e.update;
      v.label = e.seen;
      Attach(v, p);
      // The perform commits the access and appends it to data_T (d23):
      // one new window slot at the end of the object's order.
      v.status = kCommitted;
      // The only insert into windows_: `w` stays valid below, where
      // nothing inserts.
      Window& w = windows_[e.object];
      OpenSlots& o = open_slots_[e.object];
      v.pos = w.base + (o.slots.size() - o.head);
      o.slots.push_back(
          Slot{v.dead ? nullptr : &v, v.dead ? Slot::kDead : Slot::kPending});
      ++current_slots_;
      if (v.dead) {
        // Quiet at birth: it never counted against its parent.
        v.quiet = true;
        if (options_.gc_window != 0 && !v.detached) {
          retire_worklist_.push_back(v.id);
        }
        AdvanceFrontier(w, o, e.object, idx);
      } else {
        Settle(*p, 1);
        // Only the root is both active and anchored: an access performed
        // directly under U joins perm immediately.
        if (p->anchored) AnchorSubtree(&v, idx);
      }
      break;
    }
  }
  if (!latched_.has_value() && options_.gc_window != 0 &&
      stats_.events % options_.gc_window == 0) {
    DrainRetirements();
  }
  UpdatePeak();
}

void OnlineChecker::DrainRetirements() {
  ++stats_.gc_sweeps;
  // Every quiet vertex with in-degree zero retires; RetireChild cascades
  // to the siblings it held back. A candidate that is no longer quiet
  // re-enters the list when it turns quiet again, and one with incoming
  // edges is reached by the cascade of the sibling that retires last.
  for (std::size_t i = 0; i < retire_worklist_.size(); ++i) {
    Vertex* v = Find(retire_worklist_[i]);
    if (v == nullptr || !v->quiet || v->in_degree != 0) continue;
    RetireChild(v);
  }
  retire_worklist_.clear();
}

void OnlineChecker::RetireChild(Vertex* child) {
  // A quiet child with in-degree zero can never gain an incoming edge
  // (all its perm datasteps popped, so no undetermined earlier datastep
  // can ever lift an edge into it) and therefore never lies on a future
  // cycle: retiring it — records, spans, outgoing edges — preserves
  // every future verdict and witness.
  std::vector<Vertex*> ready{child};
  while (!ready.empty()) {
    Vertex* c = ready.back();
    ready.pop_back();
    Interior& group = *c->parent_vertex->interior;
    // Drop the child's group-level footprint: outgoing edges (a sibling
    // whose last incoming edge this was may retire next), spans, and its
    // place in the child list.
    for (Vertex* to : c->out) {
      if (--to->in_degree == 0 && to->quiet) ready.push_back(to);
    }
    auto drop_span = [&](ObjectId x) {
      auto it = group.spans.find(x);
      if (it == group.spans.end()) return;
      std::vector<SpanEntry>& list = it->second;
      auto at = std::lower_bound(
          list.begin(), list.end(), c->id,
          [](const SpanEntry& e, lock::TxnId id) { return e.child->id < id; });
      if (at != list.end() && at->child == c) list.erase(at);
      if (list.empty()) group.spans.erase(it);
    };
    if (c->is_access) {
      drop_span(c->object);
    } else {
      for (ObjectId x : c->interior->span_objects) drop_span(x);
    }
    if (c->prev_sibling != nullptr) {
      c->prev_sibling->next_sibling = c->next_sibling;
    } else {
      group.first_child = c->next_sibling;
    }
    if (c->next_sibling != nullptr) {
      c->next_sibling->prev_sibling = c->prev_sibling;
    } else {
      group.last_child = c->prev_sibling;
    }
    // Delete the whole subtree's records, with every edge inside it.
    // Interior dead vertices leave a tombstone with their fate: (a1) lets
    // future events legally begin children under an aborted action (and
    // those children must be recognized as dead), never under a
    // committed one.
    walk_.assign(1, c);
    while (!walk_.empty()) {
      Vertex* v = walk_.back();
      walk_.pop_back();
      if (!v->is_access) {
        for (Vertex* ch = v->interior->first_child; ch != nullptr;
             ch = ch->next_sibling) {
          walk_.push_back(ch);
        }
        if (v->dead) tombstones_[v->id] = v->status;
      }
      current_edges_ -= v->out.size();
      vertices_.erase(v->id);
      ++stats_.retired_vertices;
    }
  }
}

void OnlineChecker::UpdatePeak() {
  stats_.live_vertices = vertices_.size();
  stats_.window_slots = current_slots_;
  stats_.edges = current_edges_;
  stats_.tombstones = tombstones_.size();
  stats_.open_windows = open_slots_.size();
  const std::uint64_t frontier =
      stats_.live_vertices + stats_.window_slots + stats_.edges;
  stats_.peak_frontier = std::max(stats_.peak_frontier, frontier);
  stats_.peak_tracked =
      std::max(stats_.peak_tracked, frontier + stats_.tombstones);
}

OnlineChecker::CheckResult OnlineChecker::Verdict() const {
  // Draining applies only events already appended, so the prefix judged
  // is the one the caller appended: Verdict stays logically const.
  auto* self = const_cast<OnlineChecker*>(this);
  MutexLock l(self->checker_mu_);
  self->ApplyStamped();
  return self->VerdictLocked();
}

OnlineChecker::CheckResult OnlineChecker::VerdictLocked() const {
  if (latched_.has_value()) return *latched_;
  // The determined prefixes are all clean; fold the undetermined regions
  // transiently, skipping pending (not in perm) and dead slots — exactly
  // the post-hoc IsVersionCompatible over perm(prefix). Only windows
  // holding a deferred join can fail here, which happens only on traces
  // that breach Lemma 10(c); a later event can still heal these.
  for (ObjectId x : deferred_windows_) {
    const Window& w = *windows_.Find(x);
    const OpenSlots& o = open_slots_.find(x)->second;  // deferred => open
    Value v = w.fold;
    std::uint64_t pos = w.base;
    for (std::size_t i = o.head; i < o.slots.size(); ++i, ++pos) {
      const Slot& s = o.slots[i];
      if (s.state != Slot::kPerm) continue;
      const Vertex& a = *s.access;
      if (a.label != v) {
        CheckResult r;
        r.outcome = Outcome::kNotSerializable;
        r.event_index =
            stats_.events == 0 ? 0 : static_cast<std::size_t>(stats_.events - 1);
        r.transient = true;
        std::ostringstream os;
        os << "version incompatibility (undetermined region): datastep "
           << a.id << " on object " << x << " at position " << pos
           << " saw " << a.label << " but perm predecessors fold to " << v;
        r.detail = os.str();
        return r;
      }
      v = a.update.Apply(v);
    }
  }
  return CheckResult{};
}

OnlineChecker::Stats OnlineChecker::stats() const {
  auto* self = const_cast<OnlineChecker*>(this);
  MutexLock l(self->checker_mu_);
  self->ApplyStamped();
  Stats s = self->stats_;
  s.objects = self->windows_.size();
  s.window_bytes = self->windows_.MemoryBytes();
  return s;
}

std::optional<TraceEvent> TreeEventLowering::Lower(
    const algebra::TreeEvent& e) {
  const action::ActionRegistry& reg = *registry_;
  if (const auto* c = std::get_if<algebra::Create>(&e)) {
    if (reg.IsAccess(c->a)) return std::nullopt;  // collapsed into kPerform
    TraceEvent out;
    out.kind = TraceEvent::Kind::kBegin;
    out.id = c->a;
    out.parent = reg.Parent(c->a);
    return out;
  }
  if (const auto* p = std::get_if<algebra::Perform>(&e)) {
    performed_.insert(p->a);
    TraceEvent out;
    out.kind = TraceEvent::Kind::kPerform;
    out.id = p->a;
    out.parent = reg.Parent(p->a);
    out.object = reg.Object(p->a);
    out.update = reg.UpdateOf(p->a);
    out.seen = p->u;
    return out;
  }
  if (const auto* c = std::get_if<algebra::Commit>(&e)) {
    if (c->a == kRootAction) return std::nullopt;
    TraceEvent out;
    out.kind = TraceEvent::Kind::kCommit;
    out.id = c->a;
    out.parent = reg.Parent(c->a);
    return out;
  }
  const auto& a = std::get<algebra::Abort>(e);
  if (a.a == kRootAction) return std::nullopt;
  if (reg.IsAccess(a.a) && performed_.count(a.a) == 0) {
    // An unperformed access has no trace form; it is never a datastep
    // and never in perm, so dropping its abort is verdict-neutral.
    return std::nullopt;
  }
  TraceEvent out;
  out.kind = TraceEvent::Kind::kAbort;
  out.id = a.a;
  out.parent = reg.Parent(a.a);
  return out;
}

}  // namespace rnt::txn
