// perfbench: runs one workload of the end-to-end benchmark and
// prints the result as one JSON line (the last line of stdout).
//
//   perfbench --workload spec_reports|rate_sweep|serve_admit
//             --seed N --seconds S --trace 0|1 --streamcalc PATH
//   perfbench --mode setup --workload W --seed N   (one set-up, s)
//   perfbench --mode selftest --streamcalc PATH    (input checks)
//
// Run it through perfbench/run.py, which builds it and sets the working
// directory where traces and the serve socket go.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"
#include "cli/spec.hpp"
#include "diagnostics/lint.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric, in BENCHMARK.json order; a workload that does
/// not exercise a layer reports 0 for it.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"cli.parse_ms", "ms"},
    {"cli.report_self_ms", "ms"},
    {"diagnostics.lint_ms", "ms"},
    {"netcalc.self_ms", "ms"},
    {"apps.nodes_ms", "ms"},
    {"minplus.convolve_ms", "ms"},
    {"minplus.deconvolve_ms", "ms"},
    {"minplus.convolve.calls", "count"},
    {"minplus.deconvolve.calls", "count"},
    {"minplus.deconvolve.general_frac", "1"},
    {"minplus.cache.hit_ratio", "1"},
    {"des.run_ms", "ms"},
    {"des.events", "count"},
    {"certify.check_ms", "ms"},
    {"certify.certificates", "count"},
    {"stochcalc.bound_ms", "ms"},
    {"serve.request_us", "us"},
    {"serve.admit_us", "us"},
    {"serve.release_us", "us"},
    {"serve.query_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.wire_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"util.pool.parallel_for_per_request", "count"},
    {"serve.threads_peak", "count"},
    {"serve.vmsize_peak_mb", "MB"},
    {"serve.fds_peak", "count"},
    {"serve.admit.accept_frac", "1"},
    {"serve.op_p99_ms", "ms"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.connect_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.span_coverage_pct", "%"},
    {"bench.phase_ratio", "1"},
    {"bench.host_probe_ms", "ms"},
};

void complete_per_layer(Result& res) {
  std::vector<Metric> all;
  for (const auto& [name, unit] : kPerLayer) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : res.metrics) {
      if (got.name == name) m.value = got.value;
    }
    all.push_back(m);
  }
  res.metrics = std::move(all);
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int selftest(const Options& opts) {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const std::uint64_t seed = opts.seed;
  // Spec texts: byte-identical per seed, distinct across ops and seeds,
  // every one lint-clean.
  std::set<std::string> texts;
  bool same = true, clean = true;
  for (long op = 0; op < 200; ++op) {
    for (const Family f : kFamilies) {
      Rng a(seed, 1 + static_cast<std::uint64_t>(f), static_cast<std::uint64_t>(op));
      Rng b(seed, 1 + static_cast<std::uint64_t>(f), static_cast<std::uint64_t>(op));
      const std::string ta = spec_text(f, a);
      same = same && ta == spec_text(f, b);
      texts.insert(ta);
      const auto spec = streamcalc::cli::parse_spec(ta);
      const auto lint = spec.is_dag()
          ? streamcalc::diagnostics::lint_dag(spec.dag(), spec.source, spec.policy)
          : streamcalc::diagnostics::lint_pipeline(spec.nodes, spec.source, spec.policy);
      if (!lint.clean()) {
        clean = false;
        std::fputs(lint.render(family_name(f)).c_str(), stdout);
      }
    }
  }
  check(same, "spec texts are byte-identical for one seed");
  check(texts.size() == 200 * std::size(kFamilies), "spec texts are distinct within a run");
  check(clean, "every generated spec lints clean");
  Rng other(seed + 1, 1, 0);
  Rng mine(seed, 1, 0);
  check(spec_text(Family::kBitw, other) != spec_text(Family::kBitw, mine),
        "another seed gives other spec texts");

  const std::string grid = sweep_grid_fingerprint(seed, opts.seconds);
  check(grid.rfind("repeated", 0) != 0, "no rate_sweep grid point repeats in a run");
  check(grid == sweep_grid_fingerprint(seed, opts.seconds),
        "rate_sweep grid is identical for one seed");
  check(grid != sweep_grid_fingerprint(seed + 1, opts.seconds),
        "another seed gives another rate_sweep grid");

  const std::string stream = serve_stream_fingerprint(seed, opts.seconds);
  check(stream == serve_stream_fingerprint(seed, opts.seconds),
        "serve request stream is byte-identical for one seed");
  check(stream != serve_stream_fingerprint(seed + 1, opts.seconds),
        "another seed gives another serve request stream");
  return failures;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--mode") opts.mode = v;
    else if (a == "--workload") opts.workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atoi(v.c_str());
    else if (a == "--trace") opts.trace = v == "1";
    else if (a == "--streamcalc") opts.streamcalc = v;
    else return usage(("unknown flag " + a).c_str());
  }
  if (opts.seconds < 1) return usage("--seconds must be at least 1");
  try {
    if (opts.mode == "selftest") return selftest(opts) == 0 ? 0 : 1;
    if (opts.mode == "setup") {
      const double s = opts.workload == "rate_sweep" ? setup_in_process_sweep(opts)
                                                     : setup_in_process_specs(opts);
      std::printf("%.9f\n", s);
      return 0;
    }
    Result res;
    if (opts.workload == "spec_reports") res = run_spec_reports(opts);
    else if (opts.workload == "rate_sweep") res = run_rate_sweep(opts);
    else if (opts.workload == "serve_admit") res = run_serve_admit(opts);
    else return usage("unknown workload");
    if (opts.trace) {
      complete_per_layer(res);
      std::fprintf(stderr, "counts:");
      for (const auto& [k, v] : res.counts) std::fprintf(stderr, " %s=%.17g", k.c_str(), v);
      std::fprintf(stderr, "\n");
    }
    if (res.failed != 0) res.correct = false;
    for (const Metric& m : res.metrics) {
      std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", res.json().c_str());
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
