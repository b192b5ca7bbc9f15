// The repository benchmark: one command, four workloads.
//
//   e2e_bench --workload stream|reconfig|admit|drill --seed N
//             --seconds S --trace 0|1
//
// Prints the workload's metrics by name (unit, direction), the output
// checks, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the workload's end-to-end metrics; with
// --trace 1 the run measures an untraced half and a traced half of the
// same inputs and reports its per-layer metrics plus the tracing overhead
// between them: span timings from the traced half, plain counters from the
// untraced one. run.py reduces the line to the names BENCHMARK.json
// declares.
// Exit code 0 only when every output check passed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <sys/resource.h>

#include "bench.hpp"

namespace e2e {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Dist summarize(std::vector<double>& values) {
  Dist d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  const auto at = [&](double pct) {
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(d.count));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(i, d.count - 1)];
  };
  d.p50 = at(50.0);
  d.p90 = at(90.0);
  d.p99 = at(99.0);
  d.max = values.back();
  d.tail = d.p50;
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(d.count) * (100.0 - pct) / 100.0 >= 10.0) {
      d.tail_pct = pct;
      d.tail = at(pct);
      break;
    }
  }
  return d;
}

void Histogram::record(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  std::size_t index = 0;
  if (v < (1u << kSubBits)) {
    index = static_cast<std::size_t>(v);
  } else {
    const int exponent = 63 - __builtin_clzll(v);
    const std::size_t sub =
        static_cast<std::size_t>(v >> (exponent - kSubBits)) &
        ((1u << kSubBits) - 1);
    index = std::min(
        (static_cast<std::size_t>(exponent - kSubBits + 1) << kSubBits) + sub,
        kBuckets - 1);
  }
  ++counts_[index];
  ++count_;
  max_ = std::max(max_, static_cast<std::int64_t>(v));
}

Dist Histogram::summary_us(std::int64_t shift_ns) const {
  Dist d;
  d.count = count_;
  if (count_ == 0) return d;
  const auto midpoint = [](std::size_t index) {
    if (index < (1u << kSubBits)) return static_cast<double>(index);
    const int exponent = static_cast<int>(index >> kSubBits) + kSubBits - 1;
    const std::uint64_t sub = index & ((1u << kSubBits) - 1);
    const std::uint64_t width = 1ull << (exponent - kSubBits);
    return static_cast<double>(((1ull << kSubBits) + sub) * width) +
           static_cast<double>(width) / 2.0;
  };
  const auto at = [&](double pct) {
    const double rank = std::max(
        1.0, std::ceil(pct / 100.0 * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= rank) {
        return (midpoint(i) + static_cast<double>(shift_ns)) / 1e3;
      }
    }
    return (static_cast<double>(max_ + shift_ns)) / 1e3;
  };
  d.p50 = at(50.0);
  d.p90 = at(90.0);
  d.p99 = at(99.0);
  d.max = static_cast<double>(max_ + shift_ns) / 1e3;
  d.tail = d.p50;
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(count_) * (100.0 - pct) / 100.0 >= 10.0) {
      d.tail_pct = pct;
      d.tail = at(pct);
      break;
    }
  }
  return d;
}

void HostProbe::run(int times) {
  static std::atomic<std::uint64_t> sink{0};
  for (int i = 0; i < times; ++i) {
    const std::int64_t start = now_ns();
    std::map<std::string, std::uint64_t> keys;
    std::uint64_t x = 1;
    for (int k = 0; k < 20000; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      keys[std::to_string((x >> 33) % 5000)] += x;
    }
    sink.fetch_add(keys.size(), std::memory_order_relaxed);
    const double us = static_cast<double>(now_ns() - start) / 1e3;
    if (best_us_ == 0.0 || us < best_us_) best_us_ = us;
  }
}

std::string describe(const Dist& d, const std::string& unit) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "p50 %.1f%s, p90 %.1f%s, p99 %.1f%s, "
                "p%g %.1f%s, max %.1f%s (n=%zu)",
                d.p50, unit.c_str(), d.p90, unit.c_str(), d.p99, unit.c_str(),
                d.tail_pct,
                d.tail, unit.c_str(), d.max, unit.c_str(), d.count);
  return buf;
}

}  // namespace e2e

namespace {

using e2e::Metric;
using e2e::Report;

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload stream|reconfig|admit|drill "
               "--seed N --seconds S --trace 0|1\n");
}

bool parse_args(int argc, char** argv, e2e::Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

Report run_workload(const e2e::Args& args) {
  try {
    if (args.workload == "stream") return e2e::run_stream(args);
    if (args.workload == "reconfig") return e2e::run_reconfig(args);
    if (args.workload == "admit") return e2e::run_admit(args);
    return e2e::run_drill(args);
  } catch (const std::exception& e) {
    // A set-up that cannot complete (no socket, no shm) fails the run.
    Report r;
    r.violate(std::string("workload aborted: ") + e.what());
    return r;
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_report(const Report& r, const char* label) {
  std::printf("-- %s --\n", label);
  for (const auto& line : r.notes) std::printf("  %s\n", line.c_str());
  for (const auto& n : r.named) {
    std::printf("  %-28s %14.4f %-6s [%s]%s%s\n", n.name.c_str(), n.value,
                n.unit.c_str(), n.better.c_str(),
                n.also.empty() ? "" : " = ", n.also.c_str());
  }
  std::printf("  attempted %llu, failed %llu, fail_ratio %.6f, checks %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              r.correct ? "PASS" : "FAIL");
  for (const auto& v : r.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!parse_args(argc, argv, args) ||
      (args.workload != "stream" && args.workload != "reconfig" &&
       args.workload != "admit" && args.workload != "drill")) {
    usage();
    return 2;
  }
  std::printf("== e2e_bench workload=%s seed=%llu seconds=%g trace=%d ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  // The result carries every metric the run recorded; run.py checks the
  // names against BENCHMARK.json and keeps the declared ones.
  Report out;
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    out = run_workload(args);
    print_report(out, "end to end");
    for (const auto& n : out.named) {
      metrics[n.name] = {n.value, n.unit};
      if (!n.also.empty()) metrics[n.also] = {n.value, n.unit};
    }
  } else {
    // Same inputs twice: an untraced half, then a traced half. The
    // per-layer numbers come from the traced half; the difference between
    // the halves is the tracing overhead.
    e2e::Args half = args;
    half.seconds = args.seconds / 2.0;
    half.trace = false;
    const Report plain = run_workload(half);
    print_report(plain, "untraced half");
    half.trace = true;
    out = run_workload(half);
    print_report(out, "traced half");
    // Counters that need no spans (allocations, data-plane stats, CPU,
    // release lateness) are taken from the untraced half, so the tracing
    // itself does not inflate them.
    for (const auto& [name, metric] : plain.layer) out.layer[name] = metric;
    const auto rel = [&](const char* name, bool higher_is_better) {
      const double base = plain.value(name);
      if (base == 0.0) return 0.0;
      const double change = (out.value(name) - base) / base * 100.0;
      return higher_is_better ? -change : change;
    };
    out.set_layer("trace.overhead_p50_pct", rel("lat_p50_us", false), "%");
    out.set_layer("trace.overhead_ops_pct", rel("ops_per_s", true), "%");
    std::printf("  tracing overhead: lat_p50 %+.1f%%, ops_per_s %+.1f%% "
                "(positive = slower when traced)\n",
                out.layer["trace.overhead_p50_pct"].value,
                out.layer["trace.overhead_ops_pct"].value);
    std::printf("-- per layer --\n");
    for (const auto& [name, m] : out.layer) {
      std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    metrics = out.layer;
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    for (const auto& v : plain.violations) out.violate(v);
    out.correct = out.correct && plain.correct;
  }

  std::ostringstream json;
  json << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return out.correct && out.attempted > 0 ? 0 : 1;
}
