#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Result::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double host_probe_ms() {
  const double t0 = now_s();
  std::map<int, double> m;
  for (int k = 0; k < 4000; ++k) m[(k * 7919) % 100003] = k;
  for (int k = 0; k < 4000; ++k) m.erase((k * 7919) % 100003);
  return (now_s() - t0) * 1e3;
}

PhaseStats phase_stats(const std::vector<double>& lat_ms,
                       const std::vector<double>& start_s,
                       const std::vector<double>& end_s, std::size_t block_ops,
                       const std::vector<double>& probe_ms) {
  PhaseStats st;
  const std::size_t n = lat_ms.size();
  if (n == 0) return st;
  block_ops = std::max<std::size_t>(1, std::min(block_ops, n));
  struct Block {
    std::vector<double> lat_ms;  ///< scaled to the reference host speed
    double p90_ms, wall_s;
  };
  std::vector<Block> blocks;
  for (std::size_t b = 0; b + block_ops <= n; b += block_ops) {
    const std::size_t k = b / block_ops;
    const double scale = k < probe_ms.size() ? kProbeRefMs / probe_ms[k] : 1.0;
    Block blk{{}, 0.0, 0.0};
    double first = start_s[b], last = end_s[b];
    for (std::size_t i = b; i < b + block_ops; ++i) {
      blk.lat_ms.push_back(lat_ms[i] * scale);
      first = std::min(first, start_s[i]);
      last = std::max(last, end_s[i]);
    }
    blk.wall_s = (last - first) * scale;
    std::vector<double> v = blk.lat_ms;
    blk.p90_ms = quantile(v, 0.9);
    blocks.push_back(std::move(blk));
  }
  // The tenth of the blocks with the lowest p90 ran wholly in a fast
  // phase; every statistic comes from their ops pooled.
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.p90_ms < b.p90_ms; });
  const std::size_t keep = std::max<std::size_t>(1, blocks.size() / 10);
  std::vector<double> pooled;
  double wall = 0.0;
  for (std::size_t k = 0; k < keep; ++k) {
    pooled.insert(pooled.end(), blocks[k].lat_ms.begin(), blocks[k].lat_ms.end());
    wall += blocks[k].wall_s;
  }
  st.p50_ms = quantile(pooled, 0.5);
  st.p90_ms = quantile(pooled, 0.9);
  st.ops_per_s = static_cast<double>(pooled.size()) / wall;
  st.phase_ratio = median(lat_ms) / st.p50_ms;
  st.probe_ms = median(probe_ms);
  return st;
}

ClosedLoop closed_loop(long n, const std::function<void(long)>& prepare,
                       const std::function<int()>& run, Result& res,
                       const Options& opts, int setups, std::size_t block_ops) {
  ClosedLoop loop;
  loop.lat_ms.reserve(static_cast<std::size_t>(n));
  loop.start_s.reserve(static_cast<std::size_t>(n));
  loop.end_s.reserve(static_cast<std::size_t>(n));
  int next_setup = 1;
  for (long i = 0; i < n; ++i) {
    if (static_cast<std::size_t>(i) % block_ops == 0) loop.probe_ms.push_back(host_probe_ms());
    if (next_setup <= setups && i == n * next_setup / (setups + 1)) {
      loop.setup_s.push_back(std::stod(run_child(
          {self_exe(), "--mode", "setup", "--workload", opts.workload, "--seed",
           std::to_string(opts.seed)})));
      ++next_setup;
    }
    prepare(i);
    const double s = now_s();
    const int bad = run();
    const double e = now_s();
    loop.start_s.push_back(s);
    loop.end_s.push_back(e);
    loop.lat_ms.push_back((e - s) * 1e3);
    ++res.attempted;
    if (bad != 0) {
      ++res.failed;
      res.fail(opts.workload + " op " + std::to_string(i) + ": " +
               std::to_string(bad) + " output checks failed");
    }
  }
  return loop;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double proc_status_kb(int pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return -1.0;
}

int proc_fd_count(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string run_child(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child " + argv[0] + " failed");
  }
  return out;
}

double counter(const std::string& name) {
  for (const auto& nv : streamcalc::obs::Registry::global().counter_values()) {
    if (nv.name == name) return nv.value;
  }
  return 0.0;
}

void add_trace_validity(Result& res, const LayerTrace& tr, const ClosedLoop& plain,
                        const ClosedLoop& traced, std::size_t block_ops) {
  const PhaseStats p =
      phase_stats(plain.lat_ms, plain.start_s, plain.end_s, block_ops, plain.probe_ms);
  const PhaseStats t =
      phase_stats(traced.lat_ms, traced.start_s, traced.end_s, block_ops, traced.probe_ms);
  res.add("bench.trace_overhead_pct", 100.0 * (t.p50_ms / p.p50_ms - 1.0), "%");
  res.add("bench.span_coverage_pct", tr.coverage_pct(), "%");
  res.add("bench.phase_ratio", p.phase_ratio, "1");
  res.add("bench.host_probe_ms", p.probe_ms, "ms");
}

// --- LayerTrace -------------------------------------------------------------

namespace {
/// Ops whose spans go into the chrome trace (the rest only into the table).
constexpr std::size_t kChromeOps = 8;
std::string key_of(const streamcalc::obs::SpanRecord& r) {
  return std::string(r.category) + "/" + r.name;
}
}  // namespace

void LayerTrace::begin() {
  streamcalc::obs::Registry::global().reset();
  streamcalc::obs::Tracer::global().start(std::size_t{1} << 18);
}

void LayerTrace::end() { streamcalc::obs::Tracer::global().stop(); }

void LayerTrace::take() {
  auto& tracer = streamcalc::obs::Tracer::global();
  std::vector<streamcalc::obs::SpanRecord> recs = tracer.snapshot();
  if (tracer.dropped() != 0) {
    throw std::runtime_error("tracer ring overflowed within one op");
  }
  tracer.clear();
  add(std::move(recs));
}

void LayerTrace::add(std::vector<streamcalc::obs::SpanRecord> recs) {
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.depth < b.depth;
  });
  std::vector<double> child_ns(recs.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    while (!stack.empty() &&
           (recs[stack.back()].thread != recs[i].thread ||
            recs[stack.back()].depth >= recs[i].depth ||
            recs[stack.back()].end_ns <= recs[i].start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty() && recs[stack.back()].depth + 1 == recs[i].depth) {
      child_ns[stack.back()] += static_cast<double>(recs[i].duration_ns());
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Row& row = rows_[key_of(recs[i])];
    const auto d = static_cast<double>(recs[i].duration_ns());
    row.self_ns += d - child_ns[i];
    row.total_ns += d;
    ++row.calls;
    if (key_of(recs[i]) == "bench/op" && d > 0.0) {
      cover_sum_ += 100.0 * child_ns[i] / d;
      ++cover_n_;
    }
  }
  if (cover_n_ <= kChromeOps) kept_.insert(kept_.end(), recs.begin(), recs.end());
}

double LayerTrace::self_ms(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? 0.0 : it->second.self_ns * 1e-6;
}

double LayerTrace::total_ms(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? 0.0 : it->second.total_ns * 1e-6;
}

double LayerTrace::calls(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? 0.0 : static_cast<double>(it->second.calls);
}

double LayerTrace::coverage_pct() const {
  return cover_n_ == 0 ? 0.0 : cover_sum_ / static_cast<double>(cover_n_);
}

void LayerTrace::write(std::uint64_t ops, const std::string& title) const {
  write_chrome();
  write_table(ops, title);
}

void LayerTrace::write_chrome() const {
  {
    std::ofstream out("trace.json");
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const auto& r : kept_) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << r.name
          << "\", \"cat\": \"" << r.category
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.thread
          << ", \"ts\": " << static_cast<double>(r.start_ns) * 1e-3
          << ", \"dur\": " << static_cast<double>(r.duration_ns()) * 1e-3 << "}";
      first = false;
    }
    out << "\n]}\n";
  }
}

void LayerTrace::write_table(std::uint64_t ops, const std::string& title) const {
  std::vector<std::pair<std::string, Row>> sorted(rows_.begin(), rows_.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  double self_total = 0.0;
  for (const auto& [k, row] : sorted) self_total += row.self_ns;
  std::ofstream out("selftime.txt");
  const double n = static_cast<double>(ops == 0 ? 1 : ops);
  char line[256];
  out << title << ": self time per op over " << ops << " traced ops\n";
  std::snprintf(line, sizeof line, "%-28s %12s %12s %12s %8s\n", "span",
                "calls/op", "self ms/op", "total ms/op", "self %");
  out << line;
  for (const auto& [k, row] : sorted) {
    std::snprintf(line, sizeof line, "%-28s %12.3f %12.4f %12.4f %8.2f\n",
                  k.c_str(), static_cast<double>(row.calls) / n,
                  row.self_ns * 1e-6 / n, row.total_ns * 1e-6 / n,
                  self_total > 0.0 ? 100.0 * row.self_ns / self_total : 0.0);
    out << line;
  }
  if (cover_n_ > 0) out << "bench/op child-span coverage: " << coverage_pct() << " %\n";
}

}  // namespace perfbench
