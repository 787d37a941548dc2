// serve_admit: an open loop at one fixed offered rate against an
// out-of-process `streamcalc serve`, driven by one generator thread over a
// few unix-socket connections.
//
// Rules that keep the run valid (README.md, "serve_admit"):
//   * Tenants are served round-robin and each has at most one request in
//     flight, so no request is ever pipelined behind one it depends on (the
//     daemon runs a batch's frames in parallel, by design).
//   * Latency is taken from when a request was due, so a stall also counts
//     against the requests queued behind it.
//   * The request stream and every expected reply are computed before the
//     run, from the seed, with the from-scratch admission oracles.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "cli/spec.hpp"
#include "netcalc/incremental.hpp"
#include "serve/admission.hpp"
#include "serve/catalog.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

namespace sv = streamcalc::serve;
using sv::Json;

constexpr double kOfferedRate = 4000.0;  ///< requests per second
constexpr int kMaxConnections = 2;
constexpr int kTenants = 40;
constexpr int kReconnectsPerSec = 10;
constexpr std::uint64_t kServeStream = 200;
constexpr char kSocket[] = "sc.sock";        ///< the measured daemon
constexpr char kSetupSocket[] = "setup.sock";  ///< throwaway set-up daemons

/// Catalog scenarios; tenant t uses kScenarios[scenario_of(t)].
struct ScenarioDef {
  const char* name;
  Family family;
};
constexpr ScenarioDef kScenarios[] = {{"quickstart", Family::kQuickstart},
                                      {"bitw", Family::kBitw},
                                      {"onoff", Family::kOnOff},
                                      {"fork_join", Family::kForkJoin}};
/// One tenant in five uses the DAG scenario. Its requests are about twice
/// as slow as chain requests and make up 20% of the stream, so p90 falls
/// mid-way into the DAG class and p50 mid-way into the chain classes,
/// never on the boundary between two classes.
std::size_t scenario_of(int t) { return t % 5 == 4 ? 3 : static_cast<std::size_t>(t % 3); }

enum Kind { kAdmit, kRelease, kQuery };

struct Request {
  std::string frame;   ///< framed payload
  Kind kind = kAdmit;
  std::string expect;  ///< canonical expected reply (see canonical())
};

/// Canonical form of a reply, compared bit for bit (numbers via the
/// protocol's own dump()) against the oracle's expectation.
std::string canonical(Kind kind, const Json& reply) {
  std::string s = reply.bool_or("ok", false) ? "ok" : "error";
  const Json* bound = reply.find("delay_bound");
  s += " bound=" + (bound != nullptr ? bound->dump() : std::string("-"));
  if (kind == kAdmit) s += reply.bool_or("admitted", false) ? " admitted" : " rejected";
  if (kind == kQuery) {
    const Json* flows = reply.find("flows");
    s += " flows=" + std::to_string(flows != nullptr && flows->is_array()
                                        ? flows->as_array().size() : 0);
  }
  return s;
}

std::string expectation(Kind kind, bool admitted, double bound, std::size_t flows) {
  std::string s = "ok bound=" + Json(bound).dump();
  if (kind == kAdmit) s += admitted ? " admitted" : " rejected";
  if (kind == kQuery) s += " flows=" + std::to_string(flows);
  return s;
}

/// What the daemon's flow_from_request() makes of a payload.
sv::FlowSpec flow_from_payload(const std::string& payload) {
  const Json req = sv::json_parse(payload).value;
  sv::FlowSpec f;
  f.rate = streamcalc::util::DataRate::bytes_per_sec(req.number_or("rate", 0.0));
  f.burst = streamcalc::util::DataSize::bytes(req.number_or("burst", 0.0));
  f.delay_target = streamcalc::util::Duration::seconds(req.number_or("target", 0.0));
  f.entry = req.string_or("entry", "");
  return f;
}

/// The generated inputs of one run.
struct Plan {
  std::vector<std::pair<std::string, std::string>> specs;  ///< name, text
  std::vector<Request> warmup;                   ///< base-flow admits
  std::vector<std::vector<Request>> scripts;     ///< per tenant, cyclic
  std::size_t total = 0;                         ///< timed requests
};

/// Per tenant: two base flows admitted in the warm-up, then 15 cycles of
/// admit candidate c(k mod 5) -> release it (accepted) or query
/// (rejected), with an extra query every third cycle. One candidate has an
/// unreachable delay target, so a fixed share of admits is rejected.
Plan make_plan(std::uint64_t seed, int seconds) {
  Plan plan;
  std::vector<std::pair<std::string, streamcalc::cli::Spec>> parsed;
  for (const ScenarioDef& s : kScenarios) {
    Rng rng(seed, kServeStream, static_cast<std::uint64_t>(s.family));
    plan.specs.emplace_back(s.name, spec_text(s.family, rng));
    parsed.emplace_back(s.name, streamcalc::cli::parse_spec(plan.specs.back().second));
  }
  const auto snapshot = sv::make_snapshot(1, parsed);

  for (int t = 0; t < kTenants; ++t) {
    Rng rng(seed, kServeStream + 1, static_cast<std::uint64_t>(t));
    const ScenarioDef& def = kScenarios[scenario_of(t)];
    const sv::ScenarioModel& sm = *snapshot->find(def.name);
    const double rs = sm.spec.source.rate.in_bytes_per_sec();
    const std::string tenant = "t" + std::to_string(t);
    const auto payload = [&](const char* op, const std::string& id, double share,
                             double burst_kib, double target) {
      Json::Object o{{"op", op}, {"tenant", tenant}, {"id", id}};
      if (std::string(op) == "admit") {
        o.emplace("scenario", def.name);
        o.emplace("rate", std::floor(rs * share));
        o.emplace("burst", std::floor(burst_kib * 1024.0));
        o.emplace("target", target);
        if (sm.is_dag) o.emplace("entry", "ingest");
      }
      return Json(std::move(o)).dump();
    };
    // Oracle over a flow set given in the engine's order (ids sorted; the
    // candidate id sorts last).
    const auto oracle = [&](const std::vector<sv::FlowSpec>& flows) {
      if (!sm.is_dag) {
        const sv::Decision d = sv::AdmissionEngine::oracle_chain_decision(sm, flows);
        return std::make_pair(d.admitted, d.delay_bound.in_seconds());
      }
      streamcalc::netcalc::IncrementalDag dag(sm.spec.dag(), sm.spec.source,
                                               sm.spec.policy);
      dag.set_entry_envelope(0, sv::AdmissionEngine::aggregate_arrival(flows, sm.spec.source));
      const auto delay = dag.delay_bound_from(dag.entry_node(0));
      bool ok = true;
      for (const auto& f : flows) ok = ok && delay <= f.delay_target;
      return std::make_pair(ok, delay.in_seconds());
    };

    std::vector<sv::FlowSpec> base;
    for (int b = 0; b < 2; ++b) {
      const std::string p = payload("admit", "b" + std::to_string(b),
                                    rng.uniform(0.15, 0.2), rng.integer(8, 64), 10.0);
      base.push_back(flow_from_payload(p));
      const auto [ok, bound] = oracle(base);
      plan.warmup.push_back({sv::encode_frame(p), kAdmit, expectation(kAdmit, ok, bound, 0)});
    }
    const double base_bound = oracle(base).second;
    const int rejected = rng.integer(0, 4);
    std::vector<Request> script;
    std::vector<std::pair<std::string, std::pair<bool, double>>> cands;
    for (int c = 0; c < 5; ++c) {
      const std::string id = "c" + std::to_string(c);
      const std::string p = payload("admit", id, rng.uniform(0.05, 0.15),
                                    rng.integer(4, 32), c == rejected ? 1e-6 : 10.0);
      std::vector<sv::FlowSpec> with = base;
      with.push_back(flow_from_payload(p));
      cands.emplace_back(p, oracle(with));
    }
    for (int k = 0; k < 15; ++k) {
      const auto& [p, decision] = cands[static_cast<std::size_t>(k % 5)];
      script.push_back({sv::encode_frame(p), kAdmit,
                        expectation(kAdmit, decision.first, decision.second, 0)});
      const std::string id = "c" + std::to_string(k % 5);
      if (decision.first) {
        script.push_back({sv::encode_frame(payload("release", id, 0, 0, 0)), kRelease,
                          expectation(kRelease, false, base_bound, 0)});
      } else {
        script.push_back({sv::encode_frame(payload("query", id, 0, 0, 0)), kQuery,
                          expectation(kQuery, false, base_bound, base.size())});
      }
      if (k % 3 == 2) {
        script.push_back({sv::encode_frame(payload("query", id, 0, 0, 0)), kQuery,
                          expectation(kQuery, false, base_bound, base.size())});
      }
    }
    plan.scripts.push_back(std::move(script));
  }
  plan.total = static_cast<std::size_t>(kOfferedRate * seconds);
  return plan;
}

const Request& request_at(const Plan& plan, std::size_t i) {
  const auto& script = plan.scripts[i % kTenants];
  return script[(i / kTenants) % script.size()];
}

// --- transport ---------------------------------------------------------

int connect_socket(const char* path = kSocket) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path, sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send to daemon failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Blocking request/reply on a control connection.
std::string call(int fd, const std::string& payload) {
  send_all(fd, sv::encode_frame(payload));
  sv::FrameDecoder dec;
  std::string frame;
  char buf[65536];
  while (dec.next(frame) != sv::FrameDecoder::Status::kFrame) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) throw std::runtime_error("daemon closed the control connection");
    dec.feed(buf, static_cast<std::size_t>(n));
  }
  return frame;
}

/// The daemon process. Stops it (shutdown verb, then signals) and waits.
class Daemon {
 public:
  Daemon(const Options& opts, const Plan& plan, bool traced, const char* socket = kSocket)
      : socket_(socket) {
    std::vector<std::string> argv{opts.streamcalc, "serve", "--socket", socket_};
    if (traced) {
      argv.insert(argv.end(), {"--trace", "daemon_trace.json", "--stats"});
    }
    for (const auto& [name, text] : plan.specs) argv.push_back(name + ".scspec");
    ::unlink(socket_);
    start_ = now_s();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int out = ::open(traced ? "daemon_stats.json" : "/dev/null",
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      ::dup2(out, STDOUT_FILENO);
      ::dup2(err, STDERR_FILENO);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Connects and pings; returns seconds from spawn to the ping reply.
  double wait_ready() {
    const double deadline = now_s() + 30.0;
    while ((control_ = connect_socket(socket_)) < 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("streamcalc serve exited during start-up");
      }
      if (now_s() > deadline) throw std::runtime_error("streamcalc serve did not start");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const Json pong = sv::json_parse(call(control_, R"({"op":"ping"})")).value;
    if (!pong.bool_or("ok", false)) throw std::runtime_error("ping failed");
    return now_s() - start_;
  }

  Json stats() { return sv::json_parse(call(control_, R"({"op":"stats"})")).value; }

  /// Clean shutdown; throws when the daemon does not exit with status 0.
  void shutdown() {
    (void)call(control_, R"({"op":"shutdown"})");
    ::close(control_);
    control_ = -1;
    int status = 0;
    const double deadline = now_s() + 30.0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) throw std::runtime_error("streamcalc serve did not exit");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("streamcalc serve exited uncleanly");
    }
  }

  int pid() const { return pid_; }

 private:
  const char* socket_;
  int pid_ = -1;
  int control_ = -1;
  double start_ = 0.0;
};

struct Conn {
  int fd = -1;
  sv::FrameDecoder decoder;
  std::deque<std::size_t> inflight;  ///< request indices, in send order
};

/// What the load measured, indexed by request.
struct Phase {
  explicit Phase(std::size_t n)
      : due_s(n, 0.0), done_s(n, 0.0), latency_ms(n, 0.0), late_ms(n, 0.0), replies(n) {}
  std::vector<double> due_s;       ///< when the request was due
  std::vector<double> done_s;      ///< when its reply was decoded
  std::vector<double> latency_ms;  ///< done - due
  std::vector<double> late_ms;     ///< send time minus due time
  std::vector<std::string> replies;
  std::vector<double> connect_ms;
  double wall_s = 0.0;  ///< summed over segments, first due to last reply
  double threads_peak = 0.0, vmsize_peak_mb = 0.0, fds_peak = 0.0;
};

void read_replies(Conn& c, Phase& ph, std::vector<char>& busy) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) throw std::runtime_error("daemon closed a load connection");
    c.decoder.feed(buf, static_cast<std::size_t>(n));
    std::string frame;
    while (c.decoder.next(frame) == sv::FrameDecoder::Status::kFrame) {
      if (c.inflight.empty()) throw std::runtime_error("unexpected reply frame");
      const std::size_t i = c.inflight.front();
      c.inflight.pop_front();
      ph.done_s[i] = now_s();
      ph.latency_ms[i] = (ph.done_s[i] - ph.due_s[i]) * 1e3;
      ph.replies[i] = std::move(frame);
      busy[i % kTenants] = 0;
    }
  }
}

/// Runs requests [begin, end) of the stream as an open loop on fresh
/// connections and waits for every reply. `sample_pid` > 0 samples the
/// daemon's /proc entries every 50 ms.
void load(const Plan& plan, std::size_t begin, std::size_t end, int sample_pid,
          Phase& ph) {
  const int nconn =
      std::max(1, std::min<int>(kMaxConnections,
                                static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<Conn> conns(static_cast<std::size_t>(nconn));
  for (Conn& c : conns) {
    c.fd = connect_socket();
    if (c.fd < 0) throw std::runtime_error("cannot connect to streamcalc serve");
  }
  const auto reconnect_every = static_cast<std::size_t>(kOfferedRate / kReconnectsPerSec);
  std::vector<char> busy(kTenants, 0);
  std::vector<pollfd> pfds(conns.size());
  const double t0 = now_s() + 0.005;
  for (std::size_t i = begin; i < end; ++i) {
    ph.due_s[i] = t0 + static_cast<double>(i - begin) / kOfferedRate;
  }
  double next_sample = t0;
  std::size_t next = begin;
  std::size_t done = begin;
  while (done < end) {
    double now = now_s();
    while (next < end && ph.due_s[next] <= now && busy[next % kTenants] == 0) {
      Conn& c = conns[(next % kTenants) % conns.size()];
      if (next > 0 && next % reconnect_every == 0) {
        // Close and reopen a connection once its replies are in; dependent
        // requests are never pipelined, so draining only waits on others.
        Conn& r = conns[(next / reconnect_every) % conns.size()];
        while (!r.inflight.empty()) {
          pollfd p{r.fd, POLLIN, 0};
          ::poll(&p, 1, 100);
          read_replies(r, ph, busy);
        }
        ::close(r.fd);
        const double c0 = now_s();
        r.fd = connect_socket();
        if (r.fd < 0) throw std::runtime_error("reconnect failed");
        ph.connect_ms.push_back((now_s() - c0) * 1e3);
        r.decoder = sv::FrameDecoder();
        now = now_s();
      }
      send_all(c.fd, request_at(plan, next).frame);
      ph.late_ms[next] = (now_s() - ph.due_s[next]) * 1e3;
      c.inflight.push_back(next);
      busy[next % kTenants] = 1;
      ++next;
    }
    if (sample_pid > 0 && now >= next_sample) {
      next_sample = now + 0.05;
      ph.threads_peak = std::max(ph.threads_peak, proc_status_kb(sample_pid, "Threads"));
      ph.vmsize_peak_mb =
          std::max(ph.vmsize_peak_mb, proc_status_kb(sample_pid, "VmSize") / 1024.0);
      ph.fds_peak = std::max(ph.fds_peak, static_cast<double>(proc_fd_count(sample_pid)));
    }
    double wait_s = 0.005;
    if (next < end && busy[next % kTenants] == 0) {
      wait_s = std::max(0.0, ph.due_s[next] - now_s());
    }
    for (std::size_t k = 0; k < conns.size(); ++k) pfds[k] = {conns[k].fd, POLLIN, 0};
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) > 0) {
      for (std::size_t k = 0; k < conns.size(); ++k) {
        if (pfds[k].revents != 0) read_replies(conns[k], ph, busy);
      }
    }
    std::size_t pending = 0;
    for (const Conn& c : conns) pending += c.inflight.size();
    done = next - pending;
  }
  ph.wall_s += now_s() - t0;
  for (Conn& c : conns) ::close(c.fd);
}

/// Admits every tenant's base flows (blocking, untimed) and checks them.
int warm_up(const Plan& plan) {
  const int fd = connect_socket();
  if (fd < 0) throw std::runtime_error("cannot connect to streamcalc serve");
  int bad = 0;
  for (const Request& r : plan.warmup) {
    std::string payload;
    sv::FrameDecoder dec;
    dec.feed(r.frame);
    dec.next(payload);
    if (canonical(kAdmit, sv::json_parse(call(fd, payload)).value) != r.expect) ++bad;
  }
  ::close(fd);
  return bad;
}

/// Compares every reply with its expectation; counts accepted admits.
std::uint64_t verify(const Plan& plan, const Phase& ph, Result& res,
                     std::uint64_t& accepted, std::uint64_t& admits) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ph.replies.size(); ++i) {
    const Request& r = request_at(plan, i);
    const std::string got = canonical(r.kind, sv::json_parse(ph.replies[i]).value);
    if (got != r.expect) {
      if (bad < 5) res.fail("request " + std::to_string(i) + ": got '" + got +
                            "', oracle '" + r.expect + "'");
      ++bad;
    }
    if (r.kind == kAdmit) {
      ++admits;
      if (got.find(" admitted") != std::string::npos) ++accepted;
    }
  }
  if (bad != 0) res.fail(std::to_string(bad) + " serve replies differ from the oracle");
  return bad;
}

/// Share and median latency of each request class (chain/DAG x verb), to
/// check that no class boundary sits on p50 or p90.
std::string class_summary(const Plan& plan, const Phase& ph) {
  static const char* const kKinds[] = {"admit", "release", "query"};
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t i = 0; i < ph.latency_ms.size(); ++i) {
    const bool dag = scenario_of(static_cast<int>(i % kTenants)) == 3;
    by_class[std::string(dag ? "dag." : "chain.") + kKinds[request_at(plan, i).kind]]
        .push_back(ph.latency_ms[i]);
  }
  std::string out;
  char buf[160];
  for (auto& [name, v] : by_class) {
    const double share = 100.0 * static_cast<double>(v.size()) /
                         static_cast<double>(ph.latency_ms.size());
    std::snprintf(buf, sizeof buf, " %s=%.1f%%/p50 %.3fms", name.c_str(), share,
                  quantile(v, 0.5));
    out += buf;
  }
  return out;
}

void write_specs(const Plan& plan) {
  for (const auto& [name, text] : plan.specs) {
    std::ofstream(name + ".scspec") << text;
  }
}

/// Mean duration (us) of each span name in the daemon's chrome trace.
/// Feeds the daemon's chrome trace (the newest spans its ring kept) into
/// `tr`. Throws when the file is missing or malformed.
void load_daemon_trace(const std::string& path, LayerTrace& tr) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto parsed = sv::json_parse(ss.str());
  const Json* events = parsed.ok() ? parsed.value.find("traceEvents") : nullptr;
  if (events == nullptr) throw std::runtime_error("cannot read " + path);
  static std::set<std::string> names;  // SpanRecord holds name pointers
  std::vector<streamcalc::obs::SpanRecord> recs;
  for (const Json& e : events->as_array()) {
    streamcalc::obs::SpanRecord r;
    r.category = names.insert(e.string_or("cat", "")).first->c_str();
    r.name = names.insert(e.string_or("name", "")).first->c_str();
    r.start_ns = static_cast<std::uint64_t>(e.number_or("ts", 0.0) * 1e3);
    r.end_ns = r.start_ns + static_cast<std::uint64_t>(e.number_or("dur", 0.0) * 1e3);
    r.thread = static_cast<std::uint32_t>(e.number_or("tid", 0.0));
    const Json* args = e.find("args");
    r.depth = static_cast<std::uint32_t>(args != nullptr ? args->number_or("depth", 0.0) : 0.0);
    recs.push_back(r);
  }
  tr.add(std::move(recs));
}

}  // namespace

std::string serve_stream_fingerprint(std::uint64_t seed, int seconds) {
  const Plan plan = make_plan(seed, seconds);
  std::string out;
  for (const auto& [name, text] : plan.specs) out += name + "\n" + text;
  for (const Request& r : plan.warmup) out += r.frame + r.expect + "\n";
  for (std::size_t i = 0; i < plan.total; ++i) {
    const Request& r = request_at(plan, i);
    out += r.frame + r.expect + "\n";
  }
  return out;
}

Result run_serve_admit(const Options& opts) {
  Result res;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Plan plan = make_plan(opts.seed, opts.seconds);
  write_specs(plan);
  const std::size_t block = block_ops(kOfferedRate);

  if (!opts.trace) {
    // The stream runs in kSetupReps segments on one daemon; between two
    // segments a throwaway daemon is started (timed) and shut down, so
    // set-up samples different host phases.
    Daemon daemon(opts, plan, false);
    std::vector<double> setups{daemon.wait_ready()};
    if (warm_up(plan) != 0) res.fail("warm-up admits differ from the oracle");
    Phase ph(plan.total);
    for (int seg = 0; seg < kSetupReps; ++seg) {
      if (seg > 0) {
        Daemon extra(opts, plan, false, kSetupSocket);
        setups.push_back(extra.wait_ready());
        extra.shutdown();
      }
      load(plan, plan.total * static_cast<std::size_t>(seg) / kSetupReps,
           plan.total * static_cast<std::size_t>(seg + 1) / kSetupReps, 0, ph);
    }
    const double rss = proc_status_kb(daemon.pid(), "VmHWM") / 1024.0;
    daemon.shutdown();

    std::uint64_t accepted = 0, admits = 0;
    res.attempted = plan.total;
    res.failed = verify(plan, ph, res, accepted, admits);
    const PhaseStats st = phase_stats(ph.latency_ms, ph.due_s, ph.done_s, block, {});
    std::vector<double> late = ph.late_ms;
    std::fprintf(stderr,
                 "serve_admit: rate=%g/s connections=%d tenants=%d requests=%zu "
                 "admits accepted=%llu/%llu reconnects=%zu late_p99_ms=%.3f "
                 "phase_ratio=%.3f error_frac=%g\n",
                 kOfferedRate, kMaxConnections, kTenants, plan.total,
                 static_cast<unsigned long long>(accepted),
                 static_cast<unsigned long long>(admits), ph.connect_ms.size(),
                 quantile(late, 0.99), st.phase_ratio,
                 static_cast<double>(res.failed) / static_cast<double>(res.attempted));
    std::fprintf(stderr, "serve_admit classes:%s\n", class_summary(plan, ph).c_str());
    res.add("setup_s", median(setups), "s");
    res.add("peak_rss_mb", rss, "MB");
    res.add("ops_per_s", static_cast<double>(plan.total) / ph.wall_s, "1/s");
    res.add("op_p50_ms", st.p50_ms, "ms");
    res.add("op_p90_ms", st.p90_ms, "ms");
    res.counts = {{"admits.accepted", static_cast<double>(accepted)},
                  {"admits.rejected", static_cast<double>(admits - accepted)},
                  {"reconnects", static_cast<double>(ph.connect_ms.size())}};
    return res;
  }

  // Traced run: the first half of the stream against an untraced daemon
  // (reference p50), then against a fresh daemon with --trace --stats.
  const std::size_t half = plan.total / 2;
  PhaseStats plain;
  {
    Daemon d(opts, plan, false);
    d.wait_ready();
    if (warm_up(plan) != 0) res.fail("warm-up admits differ from the oracle");
    Phase first(half);
    load(plan, 0, half, 0, first);
    d.shutdown();
    plain = phase_stats(first.latency_ms, first.due_s, first.done_s, block, {});
  }
  Daemon daemon(opts, plan, true);
  daemon.wait_ready();
  if (warm_up(plan) != 0) res.fail("warm-up admits differ from the oracle");
  Phase ph(half);
  load(plan, 0, half, daemon.pid(), ph);
  const Json stats = daemon.stats();
  daemon.shutdown();

  std::uint64_t accepted = 0, admits = 0;
  res.attempted = half;
  res.failed = verify(plan, ph, res, accepted, admits);

  // Client-side codec work per request on the run's own payloads.
  const double c0 = now_s();
  for (std::size_t i = 0; i < half; ++i) {
    const Request& r = request_at(plan, i);
    sv::FrameDecoder dec;
    std::string payload;
    dec.feed(r.frame);
    dec.next(payload);
    const std::string again = sv::encode_frame(sv::json_parse(payload).value.dump());
    sv::FrameDecoder rdec;
    rdec.feed(sv::encode_frame(ph.replies[i]));
    std::string reply;
    rdec.next(reply);
    if (again.size() != r.frame.size() || sv::json_parse(reply).value.dump().empty()) {
      res.fail("codec round trip changed a payload");
    }
  }
  const double codec_us = (now_s() - c0) * 1e6 / static_cast<double>(half);

  LayerTrace tr;
  load_daemon_trace("daemon_trace.json", tr);
  const double traced_requests = tr.calls("serve/request");
  tr.write_table(static_cast<std::uint64_t>(traced_requests),
                 "serve_admit, daemon spans per request (chrome trace: daemon_trace.json)");
  const auto mean_us = [&](const std::string& k) {
    return tr.calls(k) > 0.0 ? tr.total_ms(k) * 1e3 / tr.calls(k) : 0.0;
  };
  std::ifstream sin("daemon_stats.json");
  std::stringstream ss;
  ss << sin.rdbuf();
  const Json registry = sv::json_parse(ss.str()).value;
  const auto ctr = [&](const char* name) {
    const Json* c = registry.find("counters");
    return c == nullptr ? 0.0 : c->number_or(name, 0.0);
  };
  std::vector<double> lat = ph.latency_ms;
  std::vector<double> late = ph.late_ms;
  double lat_mean_us = 0.0;
  for (const double v : lat) lat_mean_us += v * 1e3;
  lat_mean_us /= static_cast<double>(lat.size());
  const double requests = stats.number_or("requests", 0.0);
  const double hits = ctr("cache.hits"), misses = ctr("cache.misses");
  const double conv = ctr("minplus.convolve.calls"), deconv = ctr("minplus.deconvolve.calls");
  const double n = requests > 0 ? requests : 1.0;
  res.add("minplus.convolve.calls", conv / n, "count");
  res.add("minplus.deconvolve.calls", deconv / n, "count");
  res.add("minplus.deconvolve.general_frac",
          deconv > 0 ? ctr("minplus.deconvolve.kernel.general") / deconv : 0.0, "1");
  res.add("minplus.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
  res.add("serve.request_us", mean_us("serve/request"), "us");
  res.add("serve.admit_us", mean_us("serve/admit"), "us");
  res.add("serve.release_us", mean_us("serve/release"), "us");
  res.add("serve.query_us", mean_us("serve/query"), "us");
  res.add("serve.codec_us", codec_us, "us");
  res.add("serve.wire_us", lat_mean_us - mean_us("serve/request"), "us");
  res.add("serve.batch_size_mean",
          stats.number_or("batches", 0.0) > 0 ? requests / stats.number_or("batches", 1.0) : 0.0,
          "count");
  res.add("util.pool.parallel_for_per_request", ctr("pool.parallel_for.calls") / n, "count");
  res.add("serve.threads_peak", ph.threads_peak, "count");
  res.add("serve.vmsize_peak_mb", ph.vmsize_peak_mb, "MB");
  res.add("serve.fds_peak", ph.fds_peak, "count");
  res.add("serve.admit.accept_frac",
          admits > 0 ? static_cast<double>(accepted) / static_cast<double>(admits) : 0.0, "1");
  res.add("serve.op_p99_ms", quantile(lat, 0.99), "ms");
  res.add("bench.gen_late_p99_ms", quantile(late, 0.99), "ms");
  double connect = 0.0;
  for (const double c : ph.connect_ms) connect += c;
  res.add("bench.connect_ms",
          ph.connect_ms.empty() ? 0.0 : connect / static_cast<double>(ph.connect_ms.size()), "ms");
  const PhaseStats traced = phase_stats(ph.latency_ms, ph.due_s, ph.done_s, block, {});
  res.add("bench.trace_overhead_pct", 100.0 * (traced.p50_ms / plain.p50_ms - 1.0), "%");
  res.add("bench.phase_ratio", plain.phase_ratio, "1");
  // Share of the daemon's serve/request time its verb spans cover.
  const double request_ms = tr.total_ms("serve/request");
  const double covered =
      request_ms > 0.0 ? 100.0 *
                             (tr.total_ms("serve/admit") + tr.total_ms("serve/release") +
                              tr.total_ms("serve/query")) /
                             request_ms
                       : 0.0;
  res.add("bench.span_coverage_pct", covered, "%");
  res.counts = {{"admits.accepted", static_cast<double>(accepted)},
                {"admits.rejected", static_cast<double>(admits - accepted)},
                {"reconnects", static_cast<double>(ph.connect_ms.size())}};
  return res;
}

}  // namespace perfbench
