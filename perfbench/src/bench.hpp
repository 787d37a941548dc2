// Shared pieces of the end-to-end benchmark program: seeded input
// generation, latency statistics, /proc sampling, the result line, and the
// traced-run self-time accounting. See perfbench/README.md for the design.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Deterministic generator (splitmix64). Inputs are a pure function of
/// the seed and a stream label, independent of the program under test.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0)
      : state_(mix(mix(seed ^ 0x5bd1e995ULL) + stream * 0x9E3779B97F4A7C15ULL +
                   index)) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi].
  int integer(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

/// Command-line options of one invocation.
struct Options {
  std::string mode = "run";  ///< run | setup | selftest
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string streamcalc;  ///< path of the built `streamcalc` binary
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one run; printed as the last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Exact counts the self-test compares across two runs of one seed.
  std::map<std::string, double> counts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why);
  std::string json() const;
};

// --- statistics and process probes --------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Host-speed probe (README.md, "Host phases"): a fixed red-black-tree
/// insert/erase churn with the program's allocator, timed on the calling
/// thread. The host slows allocation-heavy code on a vCPU by up to 2x for
/// phases of 0.1 s to minutes; this probe slows with it, a spin loop does
/// not. Returns ms.
double host_probe_ms();
/// The probe's time in a fast phase on the reference host (4-core KVM
/// guest, GCC 12, RelWithDebInfo). Latencies scaled by kProbeRefMs /
/// probe read as if measured at that host speed.
inline constexpr double kProbeRefMs = 0.85;

/// Latency summary of a timed phase that holds up under the host's slow
/// phases. The ops, in order, are cut into blocks of `block_ops`. With a
/// probe time per block (`probe_ms`, empty for none), each block's
/// latencies are scaled to the reference host speed. The tenth of the
/// blocks with the lowest p90 are pooled, and the quantiles and the
/// throughput come from them.
struct PhaseStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double ops_per_s = 0.0;    ///< pooled ops / pooled block wall time
  double phase_ratio = 0.0;  ///< raw whole-phase median / p50_ms
  double probe_ms = 0.0;     ///< median probe time (0 without probes)
};
PhaseStats phase_stats(const std::vector<double>& lat_ms,
                       const std::vector<double>& start_s,
                       const std::vector<double>& end_s, std::size_t block_ops,
                       const std::vector<double>& probe_ms);

/// Ops per block for a workload doing `ops_per_s` nominally: a tenth of a
/// second of ops, and at least 25 so a block's p90 is meaningful.
inline std::size_t block_ops(double ops_per_s) {
  return std::max<std::size_t>(25, static_cast<std::size_t>(ops_per_s / 10.0));
}

/// Timings of a closed loop.
struct ClosedLoop {
  std::vector<double> lat_ms, start_s, end_s;
  std::vector<double> probe_ms;  ///< host probe before each block
  std::vector<double> setup_s;   ///< set-ups run between blocks
};
/// Runs ops 0..n-1 back to back: `prepare(i)` untimed, then `run()` timed
/// (returns its failed output checks); the host probe runs before every
/// `block_ops` ops, outside the ops' timing. With `setups` > 0, that many
/// set-up children of the workload run at even points between ops, so
/// set-up samples different host phases without overlapping an op.
ClosedLoop closed_loop(long n, const std::function<void(long)>& prepare,
                       const std::function<int()>& run, Result& res,
                       const Options& opts, int setups, std::size_t block_ops);
double now_s();
/// A `key:` field of /proc/<pid>/status in kB (pid 0 = self); -1 if absent.
double proc_status_kb(int pid, const char* key);
/// Open file descriptors of `pid`.
int proc_fd_count(int pid);
/// Resolved path of this executable.
std::string self_exe();
/// Runs argv to completion and returns its stdout; throws on failure.
std::string run_child(const std::vector<std::string>& argv);

// --- traced runs ------------------------------------------------------------

/// Accumulates per-span self time over the traced ops of a run. After each
/// op, `take()` drains the tracer ring, so the ring never overflows and
/// every op is accounted. Self time is a span's duration minus its direct
/// children on the same thread.
class LayerTrace {
 public:
  /// Starts the global tracer (clearing the metrics registry).
  void begin();
  /// Drains the spans of the op just finished.
  void take();
  /// Accounts spans recorded elsewhere (the serve daemon's trace file).
  void add(std::vector<streamcalc::obs::SpanRecord> recs);
  /// Stops the tracer.
  void end();

  /// Summed self time (ms) of spans `category/name`.
  double self_ms(const std::string& key) const;
  /// Summed duration (ms) and count of spans `category/name`.
  double total_ms(const std::string& key) const;
  double calls(const std::string& key) const;
  /// Mean share (%) of each `bench/op` span covered by its direct children.
  double coverage_pct() const;
  /// Writes `trace.json` (chrome://tracing, first ops only) and
  /// `selftime.txt` (per-span self time per op) into the current directory.
  void write(std::uint64_t ops, const std::string& title) const;
  void write_chrome() const;
  void write_table(std::uint64_t ops, const std::string& title) const;

 private:
  struct Row {
    double self_ns = 0.0;
    double total_ns = 0.0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Row> rows_;
  std::vector<streamcalc::obs::SpanRecord> kept_;  ///< for the chrome trace
  double cover_sum_ = 0.0;
  std::uint64_t cover_n_ = 0;
};

/// Current value of a process-global obs counter (0 when never touched).
double counter(const std::string& name);

/// Adds the traced run's validity metrics: bench.trace_overhead_pct
/// (traced vs untraced p50, phase-robust), bench.span_coverage_pct and
/// bench.phase_ratio (of the untraced pass).
void add_trace_validity(Result& res, const LayerTrace& tr, const ClosedLoop& plain,
                        const ClosedLoop& traced, std::size_t block_ops);

// --- workloads ----------------------------------------------------------

/// Spec-file families of spec_reports (and the serve catalog).
enum class Family { kBitw, kForkJoin, kOnOff, kQuickstart };
inline constexpr Family kFamilies[] = {Family::kBitw, Family::kForkJoin,
                                       Family::kOnOff, Family::kQuickstart};
const char* family_name(Family f);
/// A seeded, lint-clean spec text of one family with perturbed rates,
/// bursts and sizes.
std::string spec_text(Family f, Rng& rng);

Result run_spec_reports(const Options& opts);
Result run_rate_sweep(const Options& opts);
Result run_serve_admit(const Options& opts);

/// Set-up of an in-process workload: install the Context, then one
/// warm-up op. Returns seconds, scaled to the reference host speed by a
/// probe taken just before.
double setup_in_process_specs(const Options& opts);
double setup_in_process_sweep(const Options& opts);

/// Input-determinism self-test; prints findings, returns failures.
int selftest(const Options& opts);
/// Serve request-stream fingerprint (selftest).
std::string serve_stream_fingerprint(std::uint64_t seed, int seconds);
/// Rate-sweep grid fingerprint (selftest).
std::string sweep_grid_fingerprint(std::uint64_t seed, int seconds);

/// Setup runs per result: the median is reported as setup_s.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
