// spec_reports: the CLI path from spec text to report. Each op is one
// batch holding one seeded spec of every family, so op cost has a single
// mode; each spec runs parse -> lint -> run_report -> certify_spec ->
// run_stoch_report (chains).
#include <cstdarg>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "cli/certify.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "diagnostics/lint.hpp"
#include "obs/obs.hpp"
#include "util/context.hpp"

namespace perfbench {

namespace {

std::string format(const char* fmt, ...) {
  char buf[4096];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// Scales a (min, avg, max) rate triple by one factor.
std::string rates(double lo, double avg, double hi, double f) {
  return format("rate_min = %.4f MiB/s\nrate_avg = %.4f MiB/s\n"
                "rate_max = %.4f MiB/s\n",
                lo * f, avg * f, hi * f);
}

/// Seed stream of spec_reports op `op`, family `f`.
constexpr std::uint64_t kSpecStream = 1;

}  // namespace

const char* family_name(Family f) {
  switch (f) {
    case Family::kBitw: return "bitw";
    case Family::kForkJoin: return "fork_join";
    case Family::kOnOff: return "onoff";
    case Family::kQuickstart: return "quickstart";
  }
  return "?";
}

// The ranges keep every family underloaded on its service basis, so every
// generated spec lints clean (the self-test asserts it).
std::string spec_text(Family f, Rng& rng) {
  switch (f) {
    case Family::kBitw:
      return format(
                 "[source]\nrate = %.4f MiB/s\nburst = %.0f B\npacket = 1 KiB\n"
                 "[node compress]\nblock_in = 1 KiB\n",
                 rng.uniform(50.0, 60.0), rng.uniform(0.0, 4096.0)) +
             rates(1181, 2662, 6386, rng.uniform(0.9, 1.1)) +
             "compression = 1.0 2.2 5.3\naggregates = false\nlatency = 1.5 us\n"
             "[node encrypt]\nblock_in = 1 KiB\n" +
             rates(56, 68, 75, rng.uniform(0.97, 1.1)) +
             "aggregates = false\nlatency = 9 us\n"
             "[node network]\nkind = network\n" +
             format("bandwidth = %.4f GiB/s\n", rng.uniform(8.0, 12.0)) +
             "packet = 1 KiB\nlatency = 1.5 us\n"
             "[node decrypt]\nblock_in = 1 KiB\n" +
             rates(77, 90, 113, rng.uniform(0.95, 1.1)) +
             "aggregates = false\nlatency = 9 us\n"
             "[node decompress]\nblock_in = 1 KiB\n" +
             rates(1426, 1495, 1543, rng.uniform(0.9, 1.1)) +
             "volume_min = 1.0\nvolume_avg = 2.2\nvolume_max = 5.3\n"
             "restores_volume = true\naggregates = false\nlatency = 1.5 us\n"
             "[node pcie]\nkind = pcie\nbandwidth = 11 GiB/s\npacket = 4 KiB\n"
             "latency = 1.5 us\n"
             "[policy]\nservice_basis = avg\nmax_service_basis = avg\n"
             "max_service_latency = true\npacketize = false\n" +
             format("[analysis]\nhorizon = 181 us\nsimulate = true\nseed = %d\n"
                    "queue_capacity = 2\n",
                    rng.integer(1, 1 << 30));
    case Family::kForkJoin: {
      const double video = rng.uniform(0.55, 0.65);
      return format("[source]\nrate = %.4f MiB/s\nburst = 0 B\npacket = 64 KiB\n",
                    rng.uniform(100.0, 125.0)) +
             "[node ingest]\nblock_in = 64 KiB\n" +
             rates(500, 550, 600, rng.uniform(0.95, 1.1)) +
             "[node video]\nblock_in = 64 KiB\n" +
             rates(90, 100, 115, rng.uniform(0.97, 1.1)) +
             "[node audio]\nblock_in = 64 KiB\n" +
             rates(150, 165, 180, rng.uniform(0.95, 1.1)) +
             "[node mux]\nblock_in = 64 KiB\n" +
             rates(250, 270, 290, rng.uniform(0.95, 1.1)) +
             "[topology]\nentry = ingest 1.0\n" +
             format("edge = ingest video %.4f\nedge = ingest audio %.4f\n", video,
                    1.0 - video) +
             "edge = video mux 1.0\nedge = audio mux 1.0\n" +
             format("[analysis]\nhorizon = 1 s\nsimulate = true\nseed = %d\n",
                    rng.integer(1, 1 << 30));
    }
    case Family::kOnOff:
      return format("[source]\nrate = %.4f MiB/s\nburst = %.0f KiB\n"
                    "packet = 16 KiB\nmodel = onoff\nusers = %d\n"
                    "peak = %.4f MiB/s\nmean_on = 200 ms\nmean_off = 800 ms\n",
                    rng.uniform(17.0, 21.0), rng.uniform(256.0, 768.0),
                    rng.integer(15, 22), rng.uniform(3.0, 4.0)) +
             "[node transform]\nkind = compute\nblock_in = 16 KiB\n" +
             rates(24, 26, 30, rng.uniform(0.97, 1.1)) +
             "[node uplink]\nkind = network\n" +
             format("bandwidth = %.4f MiB/s\n", rng.uniform(31.0, 35.0)) +
             "packet = 16 KiB\npropagation = 50 us\n";
    case Family::kQuickstart:
      return format("[source]\nrate = %.4f MiB/s\nburst = %.0f KiB\n"
                    "packet = 64 KiB\n",
                    rng.uniform(80.0, 105.0), rng.uniform(128.0, 512.0)) +
             "[node parse]\nblock_in = 64 KiB\n" +
             rates(220, 250, 280, rng.uniform(0.95, 1.1)) +
             "[node transform]\nblock_in = 64 KiB\n" +
             rates(120, 140, 165, rng.uniform(0.97, 1.1)) +
             "[node uplink]\nkind = network\n" +
             format("bandwidth = %.4f GiB/s\npacket = 64 KiB\n"
                    "propagation = %.1f us\n",
                    rng.uniform(0.9, 1.1), rng.uniform(20.0, 80.0)) +
             format("[analysis]\nhorizon = 1 s\nsimulate = true\nseed = %d\n",
                    rng.integer(1, 1 << 30));
  }
  return "";
}

namespace {

/// Nominal batches per second on the reference host; a run does
/// seconds x this many ops, the same sequence for a given seed.
constexpr double kNominalOpsPerSec = 130.0;
constexpr double kEpsilon = 1e-6;

/// The spec batch of op `op` (op < 0: the warm-up batch).
std::vector<std::string> batch(std::uint64_t seed, long op) {
  std::vector<std::string> texts;
  for (const Family f : kFamilies) {
    Rng rng(seed, kSpecStream + static_cast<std::uint64_t>(f),
            static_cast<std::uint64_t>(op + 1));
    texts.push_back(spec_text(f, rng));
  }
  return texts;
}

/// One op: every spec of the batch through the CLI path. Returns the
/// number of failed output checks.
int run_batch(const std::vector<std::string>& texts, const streamcalc::util::Context& ctx) {
  namespace cli = streamcalc::cli;
  SC_OBS_SPAN("bench", "op");
  int bad = 0;
  for (const std::string& text : texts) {
    try {
      cli::Spec spec;
      {
        SC_OBS_SPAN("bench", "parse");
        spec = cli::parse_spec(text);
      }
      {
        SC_OBS_SPAN("bench", "lint");
        const auto lint = spec.is_dag()
            ? streamcalc::diagnostics::lint_dag(spec.dag(), spec.source, spec.policy)
            : streamcalc::diagnostics::lint_pipeline(spec.nodes, spec.source,
                                                     spec.policy);
        if (!lint.clean()) ++bad;
      }
      std::string report;
      {
        SC_OBS_SPAN("bench", "report");
        report = cli::run_report(spec, ctx);
      }
      if (report.find("end-to-end") == std::string::npos) ++bad;
      {
        SC_OBS_SPAN("bench", "certify");
        if (!cli::certify_spec(spec).clean()) ++bad;
      }
      if (!spec.is_dag()) {
        SC_OBS_SPAN("bench", "stoch");
        if (cli::run_stoch_report(spec, kEpsilon, false).empty()) ++bad;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: spec_reports op threw: %s\n", e.what());
      ++bad;
    }
  }
  return bad;
}

/// The stochastic bound calls run_stoch_report makes, timed on their own
/// (traced run only): PipelineModel::delay_bound(eps)/backlog_bound(eps).
void stoch_probe(const std::vector<std::string>& texts) {
  for (const std::string& text : texts) {
    const auto spec = streamcalc::cli::parse_spec(text);
    if (spec.is_dag()) continue;
    const streamcalc::netcalc::PipelineModel model(spec.nodes, spec.source,
                                                   spec.policy);
    SC_OBS_SPAN("bench", "stochcalc");
    (void)model.delay_bound(kEpsilon);
    (void)model.backlog_bound(kEpsilon);
  }
}

}  // namespace

double setup_in_process_specs(const Options& opts) {
  const auto warm = batch(opts.seed, -1);
  (void)host_probe_ms();  // the first call also pays for heap growth
  const double probe = host_probe_ms();
  const double t0 = now_s();
  const auto ctx = streamcalc::util::Context::from_env();
  streamcalc::util::Context::install(ctx);
  if (run_batch(warm, ctx) != 0) throw std::runtime_error("warm-up batch failed");
  return (now_s() - t0) * kProbeRefMs / probe;
}

Result run_spec_reports(const Options& opts) {
  Result res;
  const double setup = setup_in_process_specs(opts);
  const auto ctx = streamcalc::util::Context::active();
  const long ops = static_cast<long>(opts.seconds * kNominalOpsPerSec);
  const std::size_t block = block_ops(kNominalOpsPerSec);
  std::vector<std::string> texts;
  const auto run = [&] { return run_batch(texts, ctx); };

  if (!opts.trace) {
    ClosedLoop loop = closed_loop(
        ops, [&](long op) { texts = batch(opts.seed, op); }, run, res, opts,
        kSetupReps - 1, block);
    const double rss = proc_status_kb(0, "VmHWM") / 1024.0;
    const PhaseStats st =
        phase_stats(loop.lat_ms, loop.start_s, loop.end_s, block, loop.probe_ms);
    loop.setup_s.push_back(setup);
    std::fprintf(stderr,
                 "spec_reports: threads=%u ops=%ld phase_ratio=%.3f probe_ms=%.3f "
                 "error_frac=%g\n",
                 ctx.resolved_threads(), ops, st.phase_ratio, st.probe_ms,
                 static_cast<double>(res.failed) / static_cast<double>(res.attempted));
    res.add("setup_s", median(loop.setup_s), "s");
    res.add("peak_rss_mb", rss, "MB");
    res.add("ops_per_s", st.ops_per_s, "1/s");
    res.add("op_p50_ms", st.p50_ms, "ms");
    res.add("op_p90_ms", st.p90_ms, "ms");
    return res;
  }

  // Traced run: an untraced reference pass over the second half of the op
  // sequence, then the traced pass over the first half.
  const long half = ops / 2;
  const ClosedLoop plain = closed_loop(
      half, [&](long op) { texts = batch(opts.seed, half + op); }, run, res, opts, 0, block);
  LayerTrace tr;
  tr.begin();
  const ClosedLoop traced = closed_loop(
      half,
      [&](long op) {
        tr.take();
        texts = batch(opts.seed, op);
      },
      run, res, opts, 0, block);
  tr.take();
  // Counters cover exactly the traced ops; read them before the probe.
  const double conv = counter("minplus.convolve.calls");
  const double deconv = counter("minplus.deconvolve.calls");
  const double general = counter("minplus.deconvolve.kernel.general");
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  const double events = counter("des.events");
  const double certs = counter("certify.certificates");
  for (long op = 0; op < half; ++op) {
    stoch_probe(batch(opts.seed, op));
    tr.take();
  }
  tr.end();
  tr.write(static_cast<std::uint64_t>(half), "spec_reports");
  const double n = static_cast<double>(half);
  res.add("cli.parse_ms", tr.self_ms("bench/parse") / n, "ms");
  res.add("cli.report_self_ms",
          (tr.self_ms("cli/analyze") + tr.self_ms("cli/stoch")) / n, "ms");
  res.add("diagnostics.lint_ms",
          (tr.self_ms("bench/lint") + tr.self_ms("lint/preflight")) / n, "ms");
  res.add("minplus.convolve_ms", tr.self_ms("minplus/convolve") / n, "ms");
  res.add("minplus.deconvolve_ms", tr.self_ms("minplus/deconvolve") / n, "ms");
  res.add("minplus.convolve.calls", conv / n, "count");
  res.add("minplus.deconvolve.calls", deconv / n, "count");
  res.add("minplus.deconvolve.general_frac", deconv > 0 ? general / deconv : 0.0, "1");
  res.add("minplus.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
  res.add("des.run_ms", (tr.self_ms("des/run_until") + tr.self_ms("des/run")) / n, "ms");
  res.add("des.events", events / n, "count");
  res.add("certify.check_ms", tr.self_ms("certify/postflight") / n, "ms");
  res.add("certify.certificates", certs / n, "count");
  res.add("stochcalc.bound_ms", tr.self_ms("bench/stochcalc") / n, "ms");
  add_trace_validity(res, tr, plain, traced, block);
  res.counts = {{"minplus.convolve.calls", conv}, {"minplus.deconvolve.calls", deconv},
                {"minplus.deconvolve.kernel.general", general}, {"cache.hits", hits},
                {"cache.misses", misses}, {"des.events", events},
                {"certify.certificates", certs}};
  return res;
}

}  // namespace perfbench
