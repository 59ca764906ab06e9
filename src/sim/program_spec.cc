#include "sim/program_spec.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <vector>

#include "action/update.h"
#include "common/random.h"

namespace rnt::sim {

action::ActionRegistry ProgramSpec::BuildRegistry() const {
  action::ActionRegistry reg;
  Rng rng(seed);
  const double access_prob = static_cast<double>(access_ppm) / 1e6;
  const double read_prob = static_cast<double>(read_ppm) / 1e6;
  const std::uint32_t objs = objects == 0 ? 1 : objects;
  auto random_update = [&]() {
    if (rng.Chance(read_prob)) return action::Update::Read();
    switch (rng.Below(4)) {
      case 0:
        return action::Update::Write(static_cast<Value>(rng.Range(-5, 5)));
      case 1:
        return action::Update::Add(static_cast<Value>(rng.Range(1, 4)));
      case 2:
        return action::Update::XorConst(static_cast<Value>(rng.Range(1, 7)));
      default:
        return action::Update::MulAdd(static_cast<Value>(rng.Range(2, 3)),
                                      static_cast<Value>(rng.Range(0, 3)));
    }
  };
  // Worklist DFS, exactly one expansion order: children are created in
  // id order under their parent, so the shape is a pure function of the
  // seed regardless of which process runs this.
  std::vector<std::pair<ActionId, std::uint32_t>> work;  // (action, depth)
  for (std::uint32_t t = 0; t < top_level; ++t) {
    work.emplace_back(reg.NewAction(kRootAction), 1u);
  }
  std::size_t head = 0;
  while (head < work.size()) {
    auto [parent, depth] = work[head++];
    const auto kids = static_cast<std::uint32_t>(
        1 + rng.Below(max_children == 0 ? 1 : max_children));
    for (std::uint32_t c = 0; c < kids; ++c) {
      const bool leaf =
          depth + 1 >= max_depth || rng.Chance(access_prob);
      if (leaf) {
        reg.NewAccess(parent, static_cast<ObjectId>(rng.Below(objs)),
                      random_update());
      } else {
        work.emplace_back(reg.NewAction(parent), depth + 1);
      }
    }
  }
  return reg;
}

std::string ProgramSpec::Serialize() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu,top=%u,kids=%u,depth=%u,objs=%u,access=%u,"
                "read=%u,k=%u",
                static_cast<unsigned long long>(seed), top_level,
                max_children, max_depth, objects, access_ppm, read_ppm, k);
  return buf;
}

StatusOr<ProgramSpec> ProgramSpec::Parse(const std::string& token) {
  if (token.empty()) {
    return Status::InvalidArgument("program spec: empty token");
  }
  ProgramSpec spec;
  std::size_t pos = 0;
  while (pos < token.size()) {
    std::size_t end = token.find(',', pos);
    if (end == std::string::npos) end = token.size();
    const std::string field = token.substr(pos, end - pos);
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("program spec: bad field '" + field +
                                     "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    const std::uint64_t max = key == "seed"
                                  ? std::numeric_limits<std::uint64_t>::max()
                                  : std::numeric_limits<std::uint32_t>::max();
    std::uint64_t v = 0;
    if (!ParseDecimal(value, max, &v)) {
      return Status::InvalidArgument("program spec: bad value in '" + field +
                                     "'");
    }
    const auto v32 = static_cast<std::uint32_t>(v);
    if (key == "seed") {
      spec.seed = v;
    } else if (key == "top") {
      spec.top_level = v32;
    } else if (key == "kids") {
      spec.max_children = v32;
    } else if (key == "depth") {
      spec.max_depth = v32;
    } else if (key == "objs") {
      spec.objects = v32;
    } else if (key == "access") {
      spec.access_ppm = v32;
    } else if (key == "read") {
      spec.read_ppm = v32;
    } else if (key == "k") {
      spec.k = v32;
    } else {
      return Status::InvalidArgument("program spec: unknown key '" + key +
                                     "'");
    }
    pos = end + 1;
  }
  if (spec.k == 0 || spec.top_level == 0 || spec.max_depth == 0) {
    return Status::InvalidArgument("program spec: k, top, depth must be > 0");
  }
  return spec;
}

bool ParseDecimal(const std::string& text, std::uint64_t max,
                  std::uint64_t* out) {
  const char* const last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc() || ptr != last || v > max) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace rnt::sim
