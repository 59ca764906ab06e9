#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's arithmetic, kept free of clocks and threads so the
// tests in perfbench/tests can pin it down: percentile selection and the
// samples behind it, open-loop timing from the due time, the coverage of
// the per-layer breakdown, and the failed-unit share.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One selected percentile and the evidence behind it.
struct Quantile {
  double value = 0;
  /// Samples the percentile was selected from.
  std::size_t n = 0;
  /// Samples strictly beyond the selected rank. A tail percentile is
  /// trustworthy only with at least ten of them.
  std::size_t beyond = 0;
};

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples:
/// the smallest rank r with r / n >= q.
inline std::size_t NearestRank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples` (copied and partially sorted).
/// An empty sample selects 0 with n = 0.
inline Quantile Select(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// A sample stamped with the instant it belongs to (ns).
struct Stamped {
  std::int64_t at = 0;
  double value = 0;
};

/// Host interference (other tenants' CPU and disk load) only ever adds
/// time and removes throughput. Figures over spans or repeats are
/// therefore taken from the quiet side: the lower quartile of times, the
/// upper quartile of rates. A change that slows every span still moves
/// them; a slow spell covering up to three quarters of them does not.
constexpr double kQuietLow = 0.25;
constexpr double kQuietHigh = 0.75;

/// Index of the span of [begin, begin + windows * width) holding `at`.
inline std::size_t SpanOf(std::int64_t at, std::int64_t begin, double width,
                          int windows) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(at - begin) / width),
      static_cast<std::size_t>(windows) - 1);
}

/// Splits [begin, end) into `windows` equal spans, takes each non-empty
/// span's q-quantile, and returns the `across`-quantile of those.
inline double WindowedQuantile(const std::vector<Stamped>& samples,
                               std::int64_t begin, std::int64_t end,
                               int windows, double q, double across) {
  if (windows < 1 || end <= begin) return 0;
  std::vector<std::vector<double>> spans(static_cast<std::size_t>(windows));
  const double width = static_cast<double>(end - begin) / windows;
  for (const Stamped& s : samples) {
    if (s.at < begin || s.at >= end) continue;
    spans[SpanOf(s.at, begin, width, windows)].push_back(s.value);
  }
  std::vector<double> per_span;
  for (auto& span : spans) {
    if (!span.empty()) per_span.push_back(Select(std::move(span), q).value);
  }
  return Select(std::move(per_span), across).value;
}

/// Events per second in each of `windows` equal spans of [begin, end);
/// returns the `across`-quantile of the span rates.
inline double WindowedRate(const std::vector<std::int64_t>& times,
                           std::int64_t begin, std::int64_t end, int windows,
                           double across) {
  if (windows < 1 || end <= begin) return 0;
  std::vector<double> counts(static_cast<std::size_t>(windows), 0);
  const double width = static_cast<double>(end - begin) / windows;
  for (std::int64_t t : times) {
    if (t < begin || t >= end) continue;
    counts[SpanOf(t, begin, width, windows)] += 1;
  }
  return Select(std::move(counts), across).value / (width / 1e9);
}

/// Open-loop schedule: request i is due `i / rate` seconds after the
/// phase starts, whether or not the system kept up.
inline std::int64_t DueOffsetNs(std::uint64_t i, double rate_per_s) {
  return static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
}

/// The three instants of one open-loop unit, in ns on one clock.
struct UnitTimes {
  std::int64_t due = 0;   // when the schedule wanted it sent
  std::int64_t sent = 0;  // when the generator began submitting it
  std::int64_t acked = 0; // when its final attempt was acknowledged
};

/// Latency is timed from the due time, so a stalled generator or a full
/// queue charges its delay to every request it held back (no coordinated
/// omission).
inline std::int64_t LatencyFromDueNs(const UnitTimes& u) {
  return u.acked - u.due;
}

/// How late the generator ran for this unit (never negative: an early
/// wakeup waits for the due time before sending).
inline std::int64_t LagNs(const UnitTimes& u) {
  return std::max<std::int64_t>(0, u.sent - u.due);
}

/// Share of the end-to-end mean that the layer means account for:
/// sum(layer_means) / e2e_mean. The layers must be disjoint intervals of
/// the end-to-end interval, so a value near 1 means nothing large is
/// untimed and a value above 1 means layers overlap.
inline double Coverage(const std::vector<double>& layer_means,
                       double e2e_mean) {
  if (e2e_mean <= 0) return 0;
  double sum = 0;
  for (double m : layer_means) sum += m;
  return sum / e2e_mean;
}

/// failed_share = failed units / attempted units. A unit is one
/// top-level transaction however many times it was retried, or one ℬ
/// program; retries are not units, so they never enter the denominator.
inline double FailedShare(std::uint64_t failed_units,
                          std::uint64_t attempted_units) {
  if (attempted_units == 0) return 0;
  return static_cast<double>(failed_units) /
         static_cast<double>(attempted_units);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
