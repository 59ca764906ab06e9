#include "faults/faults.h"

#include <algorithm>
#include <sstream>

namespace rnt::faults {

std::vector<CrashSpec> FaultPlan::CrashesOf(NodeId node) const {
  std::vector<CrashSpec> out;
  for (const CrashSpec& c : crashes) {
    if (c.node == node) out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const CrashSpec& a, const CrashSpec& b) {
              return a.TriggerStamp() < b.TriggerStamp();
            });
  return out;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << seed << ", drop=" << drop_prob
     << ", dup=" << dup_prob << ", delay=" << delay_prob << "(max "
     << max_delay_rounds << ")";
  for (const CrashSpec& c : crashes) {
    if (c.at_stamp >= 0) {
      os << ", crash(n" << c.node << "@s" << c.at_stamp << " for "
         << (c.down_for_stamps >= 0 ? c.down_for_stamps
                                    : static_cast<std::int64_t>(c.down_for))
         << " stamps)";
    } else {
      os << ", crash(n" << c.node << "@r" << c.round << " for " << c.down_for
         << ")";
    }
  }
  for (const PartitionSpec& p : partitions) {
    if (p.from_stamp >= 0) {
      os << ", partition(n" << p.a << "|n" << p.b << " s[" << p.from_stamp
         << "," << p.until_stamp << "))";
    } else {
      os << ", partition(n" << p.a << "|n" << p.b << " r[" << p.from_round
         << "," << p.until_round << "))";
    }
  }
  os << "}";
  return os.str();
}

FaultInjector::Verdict FaultInjector::OnMessage(NodeId from, NodeId to,
                                                int round) {
  // Fixed draw count per call: fate decisions at different probabilities
  // consume the PRNG identically.
  const double drop_u = rng_.NextDouble();
  const double delay_u = rng_.NextDouble();
  const double dup_u = rng_.NextDouble();
  const int span = std::max(1, plan_.max_delay_rounds);
  const int delay_len = 1 + static_cast<int>(rng_.Below(span));
  const int dup_len = 1 + static_cast<int>(rng_.Below(span));

  Verdict v;
  if (Partitioned(from, to, round)) {
    v.drop = true;
    v.partitioned = true;
    return v;
  }
  if (drop_u < plan_.drop_prob) {
    v.drop = true;
    return v;
  }
  if (delay_u < plan_.delay_prob) v.delay = delay_len;
  if (dup_u < plan_.dup_prob) v.duplicate_delay = v.delay + dup_len;
  return v;
}

bool FaultInjector::Partitioned(NodeId a, NodeId b, int round) const {
  if (round < 0) return false;  // free-running caller: stamp check applies
  for (const PartitionSpec& p : plan_.partitions) {
    bool pair = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (pair && round >= p.from_round && round < p.until_round) return true;
  }
  return false;
}

bool FaultInjector::PartitionedAtStamp(NodeId a, NodeId b,
                                       std::int64_t stamp) const {
  for (const PartitionSpec& p : plan_.partitions) {
    bool pair = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (pair && stamp >= p.FromStamp() && stamp < p.UntilStamp()) return true;
  }
  return false;
}

Status ValidatePlan(const FaultPlan& plan, NodeId num_nodes) {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(plan.drop_prob) || !in_unit(plan.dup_prob) ||
      !in_unit(plan.delay_prob)) {
    return Status::InvalidArgument("fault probabilities must lie in [0, 1]");
  }
  if (plan.max_delay_rounds < 0) {
    return Status::InvalidArgument("max_delay_rounds must be non-negative");
  }
  for (const CrashSpec& c : plan.crashes) {
    if (c.node >= num_nodes) {
      return Status::InvalidArgument("crash names a node outside [k]");
    }
    if (c.round < 0 || c.down_for < 1) {
      return Status::InvalidArgument(
          "crash round must be >= 0 and down_for >= 1");
    }
    if (c.at_stamp < -1 || c.down_for_stamps < -1 || c.down_for_stamps == 0) {
      return Status::InvalidArgument(
          "crash stamp triggers must be -1 (unset) or at_stamp >= 0, "
          "down_for_stamps >= 1");
    }
  }
  // Overlapping crash intervals on one node are ambiguous (which rebirth
  // wins?) — reject them in whichever clock domain each pair shares.
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.crashes.size(); ++j) {
      const CrashSpec& c = plan.crashes[i];
      const CrashSpec& d = plan.crashes[j];
      if (c.node != d.node) continue;
      bool round_overlap = c.round < d.round + d.down_for &&
                           d.round < c.round + c.down_for;
      bool stamp_overlap = c.TriggerStamp() < d.RebirthStamp() &&
                           d.TriggerStamp() < c.RebirthStamp();
      bool same_domain = (c.at_stamp >= 0) == (d.at_stamp >= 0);
      if (same_domain && (c.at_stamp >= 0 ? stamp_overlap : round_overlap)) {
        return Status::InvalidArgument(
            "overlapping crash intervals for one node");
      }
    }
  }
  for (const PartitionSpec& p : plan.partitions) {
    if (p.a >= num_nodes || p.b >= num_nodes) {
      return Status::InvalidArgument("partition names a node outside [k]");
    }
    if (p.a == p.b) {
      return Status::InvalidArgument(
          "partition of a node from itself (a == b)");
    }
    if (p.from_round > p.until_round) {
      return Status::InvalidArgument("partition interval is inverted");
    }
    if (p.from_stamp < -1 || p.until_stamp < -1 ||
        (p.from_stamp >= 0) != (p.until_stamp >= 0) ||
        (p.from_stamp >= 0 && p.from_stamp > p.until_stamp)) {
      return Status::InvalidArgument(
          "partition stamp window must be unset (-1, -1) or an ordered "
          "pair of non-negative stamps");
    }
  }
  return Status::Ok();
}

}  // namespace rnt::faults
