// Shared vocabulary of the repository benchmark: run arguments, the
// report every workload fills in, latency summaries and process counters.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Command-line inputs of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Nanoseconds on the steady clock — the clock rtsj::SteadyClock, the
/// launcher and the node runtime read, so stamps from either side compare.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same bursts on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Heap allocations counted by the operator new hook (alloc_hook.cpp).
struct AllocCounters {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCounters alloc_counters();

/// Process CPU seconds (user + system) and peak resident set size.
double process_cpu_seconds();
double peak_rss_mb();

/// A latency (or any sample) distribution: median, p99, and the highest
/// standard percentile that still has at least ten samples beyond it.
struct Dist {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double tail_pct = 50.0;  ///< Highest percentile with >= 10 samples above.
  double tail = 0.0;       ///< Its value.
  double max = 0.0;
};

/// Summarizes `values` (sorted in place). Nearest-rank percentiles.
Dist summarize(std::vector<double>& values);

/// Log-linear histogram of non-negative nanosecond values: 128 linear
/// sub-buckets per power of two, so a percentile read from it is within
/// 0.8% of the exact one, in a fixed 15 KB whatever the sample count.
/// Values below 0 count as 0; values beyond about 34 s as the last bucket.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void record(std::int64_t ns);
  std::uint64_t count() const { return count_; }
  /// Percentiles in microseconds, each bucket read at its midpoint, all
  /// shifted by `shift_ns` (a constant added to every recorded value).
  Dist summary_us(std::int64_t shift_ns) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxExponent = 35;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kSubBits + 2) << kSubBits;
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  std::int64_t max_ = 0;
};

/// One metric a workload reports, printed by name with its unit and the
/// direction in which it improves. `also` is the BENCHMARK.json
/// end-to-end name it is reported under as well (for instance stream's
/// lat_lo_p50_us is its lat_p50_us).
struct Named {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower", "higher" or "info".
  std::string also;
};

/// A per-layer metric of a traced run.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness violations (a violation makes the run fail).
  std::vector<std::string> violations;
  /// End-to-end metrics, in the order printed. run.py keeps the ones
  /// BENCHMARK.json declares under end_to_end.
  std::vector<Named> named;
  /// Per-layer metrics of a traced run (BENCHMARK.json per_layer).
  std::map<std::string, Metric> layer;
  /// Free-form lines printed before the result (flags, distributions).
  std::vector<std::string> notes;

  void violate(const std::string& what) {
    correct = false;
    if (violations.size() < 20) violations.push_back(what);
  }
  void name(const std::string& n, double v, const std::string& unit,
            const std::string& better, const std::string& also = "") {
    named.push_back({n, v, unit, better, also});
  }
  /// The end-to-end metric reported as `n` (by name or `also`); 0 if none.
  double value(const std::string& n) const {
    for (const Named& m : named) {
      if (m.name == n || m.also == n) return m.value;
    }
    return 0.0;
  }
  void set_layer(const std::string& n, double v, const std::string& unit) {
    layer[n] = {v, unit};
  }
  /// Records `d` as `<prefix>` (median) and `<prefix>_p99` layer metrics.
  void set_layer_dist(const std::string& n, const Dist& d,
                      const std::string& unit) {
    layer[n] = {d.p50, unit};
    layer[n + "_p99"] = {d.p99, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Best-of-passes timing for the closed-loop single-thread workloads,
/// which repeat a fixed list of inputs: each input's fastest repetition.
/// These are best-case figures: a cost that hits only some repetitions is
/// filtered out of them, and shows in the every-sample figures printed
/// beside them instead.
class Passes {
 public:
  explicit Passes(std::size_t inputs) : best_us_(inputs, -1.0) {}
  void record(std::size_t input, double us) {
    double& b = best_us_[input];
    if (b < 0.0 || us < b) b = us;
    pass_us_ += us;
  }
  void end_pass() {
    pass_rates_.push_back(pass_us_ > 0.0 ? static_cast<double>(
                                               best_us_.size()) *
                                               1e6 / pass_us_
                                         : 0.0);
    pass_us_ = 0.0;
  }
  std::size_t passes() const { return pass_rates_.size(); }
  /// Inputs per second of a pass made of every input's fastest repetition.
  double best_rate() const {
    double total_us = 0.0;
    for (const double b : best_us_) total_us += b < 0.0 ? 0.0 : b;
    return total_us > 0.0 ? static_cast<double>(best_us_.size()) * 1e6 /
                                total_us
                          : 0.0;
  }
  /// The per-input fastest repetitions.
  std::vector<double> best_us() const { return best_us_; }
  /// Inputs per second of each whole pass.
  std::vector<double> pass_rates() const { return pass_rates_; }

 private:
  std::vector<double> best_us_;
  std::vector<double> pass_rates_;
  double pass_us_ = 0.0;
};

/// Host-speed probe for the CPU-bound workloads. The reference host's
/// speed drifts by 10-40% over tens of seconds (neighbouring load on a
/// shared VM), and a whole run can fall in a slow period. The probe is a
/// fixed allocation-heavy loop in the benchmark's own code — no library
/// code — run between set-ups and between passes and timed best-of like
/// them. Dividing a best-of timing by slowdown() scales it to the
/// reference host's speed; raw and scaled figures are both printed.
class HostProbe {
 public:
  /// The probe's best time on the reference host (4-vCPU Xeon VM).
  static constexpr double kReferenceUs = 4000.0;
  /// Runs the probe `times` times, keeping the fastest.
  void run(int times);
  /// Best time / reference time: > 1 on a host slower than the reference.
  double slowdown() const {
    return best_us_ > 0.0 ? best_us_ / kReferenceUs : 1.0;
  }

 private:
  double best_us_ = 0.0;
};

/// Renders "p50 X, p99 Y, p99.9 Z (n=N)" for notes.
std::string describe(const Dist& d, const std::string& unit);

/// The workloads. Each measures for about args.seconds after its set-up.
Report run_stream(const Args& args);
Report run_reconfig(const Args& args);
Report run_admit(const Args& args);
Report run_drill(const Args& args);

}  // namespace e2e
