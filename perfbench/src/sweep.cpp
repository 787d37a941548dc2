// rate_sweep: the paper's capacity-planning use. Each op evaluates one grid
// point of each base pipeline (BITW, BLAST, a fork/join DAG): lint, model
// build, delay/backlog/per-node/throughput bounds. No DES, certify or
// stoch in the timed op; every point's model is certified afterwards.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "apps/bitw.hpp"
#include "apps/blast.hpp"
#include "bench.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "obs/obs.hpp"
#include "util/context.hpp"

namespace perfbench {

namespace {

using streamcalc::netcalc::DagModel;
using streamcalc::netcalc::DagSpec;
using streamcalc::netcalc::ModelPolicy;
using streamcalc::netcalc::NodeKind;
using streamcalc::netcalc::NodeSpec;
using streamcalc::netcalc::PipelineModel;
using streamcalc::netcalc::Regime;
using streamcalc::netcalc::SourceSpec;
using streamcalc::util::DataRate;
using streamcalc::util::DataSize;
using streamcalc::util::Duration;

constexpr std::uint64_t kSweepStream = 100;
/// A run does seconds x this many ops. It is below the rate a fast phase
/// reaches (about 2700/s) because every point is also certified after the
/// timed phase, which costs about 1 ms per point per thread.
constexpr double kNominalOpsPerSec = 1500.0;

enum class Base { kBitw, kBlast, kDag };
constexpr Base kBases[] = {Base::kBitw, Base::kBlast, Base::kDag};

/// One grid point: source rate as a multiple of the base's nominal
/// bottleneck capacity (load), burst, and the swept stage's speed factor.
struct Point {
  Base base = Base::kBitw;
  double load = 0.0;
  double burst_bytes = 0.0;
  double stage_factor = 1.0;
};

/// Load bands in turn by op index: well below the nominal bottleneck
/// capacity, within 2% of it, and above it.
Point make_point(std::uint64_t seed, long op, Base base) {
  Rng rng(seed, kSweepStream + static_cast<std::uint64_t>(base),
          static_cast<std::uint64_t>(op + 1));
  Point p;
  p.base = base;
  switch (((op % 3) + 3) % 3) {
    case 0: p.load = rng.uniform(0.5, 0.95); break;
    case 1: p.load = rng.uniform(0.98, 1.02); break;
    default: p.load = rng.uniform(1.05, 1.4); break;
  }
  p.stage_factor = rng.uniform(0.9, 1.1);
  const double max_burst = base == Base::kBitw ? 8192.0 : 2.0 * 1048576.0;
  p.burst_bytes = std::floor(rng.uniform(0.0, max_burst));
  return p;
}

NodeSpec scaled(const NodeSpec& n, double f) {
  NodeSpec s = NodeSpec::from_rates(n.name, n.kind, n.block_in, n.rate_min() * f,
                                    n.rate_avg() * f, n.rate_max() * f);
  s.block_out = n.block_out;
  s.volume = n.volume;
  s.aggregates = n.aggregates;
  s.latency_override = n.latency_override;
  s.restores_volume = n.restores_volume;
  s.rate_isolated = n.rate_isolated;
  return s;
}

struct Chain {
  std::vector<NodeSpec> nodes;
  SourceSpec source;
  ModelPolicy policy;
};

Chain chain_of(const Point& p) {
  namespace app = streamcalc::apps;
  Chain c;
  if (p.base == Base::kBitw) {
    c.nodes = app::bitw::nodes();
    c.nodes[1] = scaled(c.nodes[1], p.stage_factor);  // encrypt: bottleneck
    c.source = app::bitw::throttled_source();
    c.source.rate = DataRate::mib_per_sec(68.0 * p.stage_factor * p.load);
    c.policy = app::bitw::policy();
  } else {
    c.nodes = app::blast::nodes();
    c.nodes[5] = scaled(c.nodes[5], p.stage_factor);  // seed_match
    c.source = app::blast::streaming_source();
    c.source.rate = DataRate::mib_per_sec(353.0 * p.stage_factor * p.load);
    c.policy = app::blast::policy();
  }
  c.source.burst = DataSize::bytes(p.burst_bytes);
  return c;
}

struct Dag {
  DagSpec dag;
  SourceSpec source;
};

Dag dag_of(const Point& p) {
  const auto node = [](const char* name, double lo, double avg, double hi, double f) {
    return NodeSpec::from_rates(name, NodeKind::kCompute, DataSize::kib(64),
                                DataRate::mib_per_sec(lo * f),
                                DataRate::mib_per_sec(avg * f),
                                DataRate::mib_per_sec(hi * f));
  };
  Dag d;
  d.dag.nodes = {node("ingest", 500, 550, 600, 1.0),
                 node("video", 90, 100, 115, p.stage_factor),
                 node("audio", 150, 165, 180, 1.0), node("mux", 250, 270, 290, 1.0)};
  d.dag.entries = {{0, 0, 1.0}};
  d.dag.edges = {{0, 1, 0.6}, {0, 2, 0.4}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.source.rate = DataRate::mib_per_sec(150.0 * p.stage_factor * p.load);
  d.source.burst = DataSize::bytes(p.burst_bytes);
  d.source.packet = DataSize::kib(64);
  return d;
}

const Duration kHorizon = Duration::seconds(1.0);

/// Evaluates one point; returns its delay bound (seconds) or throws.
double evaluate(const Point& p, bool& lint_ok) {
  namespace dx = streamcalc::diagnostics;
  if (p.base == Base::kDag) {
    Dag d;
    {
      SC_OBS_SPAN("bench", "apps");
      d = dag_of(p);
    }
    {
      SC_OBS_SPAN("bench", "lint");
      lint_ok = !dx::lint_dag(d.dag, d.source).has_errors();
    }
    SC_OBS_SPAN("bench", "netcalc");
    const DagModel model(d.dag, d.source);
    const double delay = model.delay_bound().value.in_seconds();
    (void)model.backlog_bound();
    (void)model.per_node_analysis();
    return delay;
  }
  Chain c;
  {
    SC_OBS_SPAN("bench", "apps");
    c = chain_of(p);
  }
  {
    SC_OBS_SPAN("bench", "lint");
    lint_ok = !dx::lint_pipeline(c.nodes, c.source, c.policy).has_errors();
  }
  SC_OBS_SPAN("bench", "netcalc");
  const PipelineModel model(c.nodes, c.source, c.policy);
  const double delay = model.delay_bound().value.in_seconds();
  (void)model.backlog_bound();
  (void)model.per_node_analysis();
  (void)model.throughput_bounds(kHorizon);
  return delay;
}

/// One op; records each point's delay bound into `delays`. Returns the
/// number of failed checks.
int run_op(std::uint64_t seed, long op, std::vector<double>* delays) {
  SC_OBS_SPAN("bench", "op");
  int bad = 0;
  for (const Base b : kBases) {
    try {
      bool lint_ok = false;
      const double d = evaluate(make_point(seed, op, b), lint_ok);
      if (!lint_ok) ++bad;
      if (delays != nullptr) delays->push_back(d);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: rate_sweep point threw: %s\n", e.what());
      ++bad;
      if (delays != nullptr) delays->push_back(-1.0);
    }
  }
  return bad;
}

/// Untimed output check: each point's model, rebuilt, must certify clean
/// with the exact checker and reproduce the bound of the timed op. Sets
/// `regime` to the model's load regime (a DAG's worst node).
bool certify_point(const Point& p, double delay, Regime& regime) {
  namespace cf = streamcalc::certify;
  if (p.base == Base::kDag) {
    const Dag d = dag_of(p);
    const DagModel model(d.dag, d.source);
    regime = Regime::kUnderloaded;
    for (const auto& n : model.per_node_analysis()) regime = std::max(regime, n.load_regime);
    return cf::certify_dag(model).clean() &&
           model.delay_bound().value.in_seconds() == delay;
  }
  const Chain c = chain_of(p);
  const PipelineModel model(c.nodes, c.source, c.policy);
  regime = model.load_regime();
  return cf::certify_pipeline(model).clean() &&
         model.delay_bound().value.in_seconds() == delay;
}

/// Certifies every point of ops [0, ops) on up to nproc threads. Returns
/// the ops with a failed point; counts points per observed regime.
std::vector<long> certify_all(std::uint64_t seed, long ops,
                              const std::vector<double>& delays,
                              std::array<long, 3>& regimes) {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<long> next{0};
  std::vector<std::vector<long>> bad(threads);
  std::vector<std::array<long, 3>> seen(threads, std::array<long, 3>{0, 0, 0});
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (long op = next++; op < ops; op = next++) {
        for (std::size_t b = 0; b < 3; ++b) {
          Regime regime = Regime::kUnderloaded;
          const bool ok = certify_point(make_point(seed, op, kBases[b]),
                                        delays[static_cast<std::size_t>(op) * 3 + b],
                                        regime);
          ++seen[t][static_cast<std::size_t>(regime)];
          if (!ok) bad[t].push_back(op);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<long> all;
  for (unsigned t = 0; t < threads; ++t) {
    all.insert(all.end(), bad[t].begin(), bad[t].end());
    for (std::size_t r = 0; r < 3; ++r) regimes[r] += seen[t][r];
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace

std::string sweep_grid_fingerprint(std::uint64_t seed, int seconds) {
  const long ops = static_cast<long>(seconds * kNominalOpsPerSec);
  std::ostringstream os;
  os.precision(17);
  std::set<std::string> seen;
  for (long op = 0; op < ops; ++op) {
    for (const Base b : kBases) {
      const Point p = make_point(seed, op, b);
      std::ostringstream one;
      one.precision(17);
      one << static_cast<int>(b) << ' ' << p.load << ' ' << p.burst_bytes << ' '
          << p.stage_factor;
      if (!seen.insert(one.str()).second) return "repeated grid point " + one.str();
      os << one.str() << '\n';
    }
  }
  return os.str();
}

double setup_in_process_sweep(const Options& opts) {
  (void)host_probe_ms();  // the first call also pays for heap growth
  const double probe = host_probe_ms();
  const double t0 = now_s();
  streamcalc::util::Context::install(streamcalc::util::Context::from_env());
  if (run_op(opts.seed, -1, nullptr) != 0) throw std::runtime_error("warm-up op failed");
  return (now_s() - t0) * kProbeRefMs / probe;
}

Result run_rate_sweep(const Options& opts) {
  Result res;
  const double setup = setup_in_process_sweep(opts);
  const long ops = static_cast<long>(opts.seconds * kNominalOpsPerSec);
  const std::size_t block = block_ops(kNominalOpsPerSec);
  long op_index = 0;
  std::vector<double> delays;
  std::vector<double>* record = nullptr;
  const auto run = [&] { return run_op(opts.seed, op_index, record); };

  if (!opts.trace) {
    delays.reserve(static_cast<std::size_t>(ops) * 3);
    record = &delays;
    ClosedLoop loop = closed_loop(
        ops, [&](long op) { op_index = op; }, run, res, opts, kSetupReps - 1, block);
    const double rss = proc_status_kb(0, "VmHWM") / 1024.0;
    const PhaseStats st =
        phase_stats(loop.lat_ms, loop.start_s, loop.end_s, block, loop.probe_ms);
    loop.setup_s.push_back(setup);

    std::array<long, 3> regimes{0, 0, 0};
    const std::vector<long> uncertified = certify_all(opts.seed, ops, delays, regimes);
    for (const long op : uncertified) {
      res.fail("rate_sweep op " + std::to_string(op) + ": a point failed certification");
    }
    // An op with an uncertified point is a failed op.
    res.failed = std::max<std::uint64_t>(res.failed, uncertified.size());
    std::fprintf(stderr,
                 "rate_sweep: threads=%u ops=%ld points underloaded/critical/overloaded="
                 "%ld/%ld/%ld uncertified_ops=%zu phase_ratio=%.3f probe_ms=%.3f "
                 "error_frac=%g\n",
                 streamcalc::util::Context::active().resolved_threads(), ops,
                 regimes[0], regimes[1], regimes[2], uncertified.size(), st.phase_ratio,
                 st.probe_ms,
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
      half, [&](long op) { op_index = half + op; }, run, res, opts, 0, block);
  LayerTrace tr;
  tr.begin();
  const ClosedLoop traced = closed_loop(
      half,
      [&](long op) {
        tr.take();
        op_index = op;
      },
      run, res, opts, 0, block);
  tr.take();
  tr.end();
  tr.write(static_cast<std::uint64_t>(half), "rate_sweep");
  const double n = static_cast<double>(half);
  const double conv = counter("minplus.convolve.calls");
  const double deconv = counter("minplus.deconvolve.calls");
  const double general = counter("minplus.deconvolve.kernel.general");
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  res.add("diagnostics.lint_ms",
          (tr.self_ms("bench/lint") + tr.self_ms("lint/preflight")) / n, "ms");
  res.add("netcalc.self_ms", tr.self_ms("bench/netcalc") / n, "ms");
  res.add("apps.nodes_ms", tr.self_ms("bench/apps") / n, "ms");
  res.add("minplus.convolve_ms", tr.self_ms("minplus/convolve") / n, "ms");
  res.add("minplus.deconvolve_ms", tr.self_ms("minplus/deconvolve") / n, "ms");
  res.add("minplus.convolve.calls", conv / n, "count");
  res.add("minplus.deconvolve.calls", deconv / n, "count");
  res.add("minplus.deconvolve.general_frac", deconv > 0 ? general / deconv : 0.0, "1");
  res.add("minplus.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
  add_trace_validity(res, tr, plain, traced, block);
  res.counts = {{"minplus.convolve.calls", conv}, {"minplus.deconvolve.calls", deconv},
                {"minplus.deconvolve.kernel.general", general}, {"cache.hits", hits},
                {"cache.misses", misses}};
  return res;
}

}  // namespace perfbench
