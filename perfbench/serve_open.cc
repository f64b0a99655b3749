// serve_open: comx_serve as a separate process (1 shard, 1 drainer thread,
// DemCOM, no WAL) fed by this process's single-threaded open-loop generator
// over one localhost connection. The schedule is the instance's own event
// timestamps, scaled so the mean rate equals each rung of a fixed ladder,
// and every request is timed from when it was due, so a stall in the
// server (or in the generator) is charged to every request it delays.
//
// The traced run replays the reporting rung in-process against
// MatchService::SubmitEvent to split the client latency into submit, queue
// wait and step, and to isolate the wire (TCP p50 minus in-process p50).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/match_service.h"
#include "sim/simulator.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using comx::Result;
using comx::Status;
using comx::StrFormat;

/// Offered mean event rates, events/s, lowest first. The day curve peaks at
/// about 2.3x its mean. The top rung overloads the server for most of the
/// day, so the server, not the schedule, sets the pace there; its achieved
/// rate is printed as the server's capacity.
const double kLadder[] = {10000.0, 20000.0, 40000.0, 160000.0};
/// The rung whose latencies are decision_p50_us / decision_p99_us: the
/// highest rate whose rush-hour peak stays clear of the server's capacity,
/// so its figures are not decided by whether a queue happened to form.
constexpr double kReportingRate = 10000.0;
/// The rung whose achieved decision rate is decisions_per_s: the top rate
/// the server kept pace with in every run. The capacity rung's own rate
/// varied by half from one rung to the next, too much to bound.
constexpr double kThroughputRate = 40000.0;
constexpr double kCapacityRate = 160000.0;
/// A rung is sustained when the decision p99 stays within this limit and
/// the backlog does not grow: the median latency of the last tenth of the
/// requests stays within it too. (The very last reply is no guide: with
/// nothing more to send, the server's final small write waits out the
/// client's delayed ACK.)
constexpr double kP99LimitNs = 5e6;
/// A reply this late is a stall (Nagle plus delayed ACK shows as ~40 ms).
constexpr double kStallNs = 10e6;

/// Tail latency robust to host hiccups: the schedule (in reply order, which
/// is due order on one shard) is cut into ten equal slices and the median of
/// the slices' p99 is returned. A scheduling stall of the shared host spoils
/// one slice, not the figure; a slow server spoils every slice.
double SlicedP99(const std::vector<double>& ns) {
  constexpr size_t kSlices = 10;
  if (ns.size() < kSlices * 100) return Quantile(ns, 0.99);
  std::vector<double> p99;
  const size_t len = ns.size() / kSlices;
  for (size_t k = 0; k < kSlices; ++k) {
    const auto first = ns.begin() + static_cast<ptrdiff_t>(k * len);
    p99.push_back(Quantile({first, first + static_cast<ptrdiff_t>(len)}, 0.99));
  }
  return Median(p99);
}

/// Due times of every event, ns from the start of the run: the instance's
/// timestamps scaled to a mean rate of `rate` events/s.
std::vector<int64_t> Schedule(const comx::Instance& instance, double rate) {
  const auto& events = instance.events();
  std::vector<int64_t> due(events.size(), 0);
  if (events.size() < 2) return due;
  const double span = events.back().time - events.front().time;
  const double target_ns = static_cast<double>(events.size()) / rate * 1e9;
  const double scale = span > 0 ? target_ns / span : 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    due[i] = static_cast<int64_t>((events[i].time - events.front().time) * scale);
  }
  return due;
}

/// Spins until `deadline` (see the TCP generator for why it never sleeps).
void WaitUntil(int64_t deadline) {
  while (NowNanos() < deadline) {
  }
}

/// A spawned comx_serve; killed and reaped on destruction if still running.
class ServeProcess {
 public:
  ServeProcess() = default;
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;
  ~ServeProcess() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Starts the server and waits for its "listening on port N" banner;
  /// `ready_s` is the time from fork to the banner.
  Status Start(const std::string& bin, const std::vector<std::string>& args,
               double* ready_s) {
    int out[2];
    if (::pipe(out) != 0) return Status::IoError("pipe failed");
    const int64_t t0 = NowNanos();
    pid_ = ::fork();
    if (pid_ < 0) return Status::IoError("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    std::string text;
    const char* marker = "listening on port ";
    size_t at = std::string::npos;
    while ((at = text.find(marker)) == std::string::npos ||
           text.find('\n', at) == std::string::npos) {
      pollfd p{out[0], POLLIN, 0};
      if (::poll(&p, 1, 60'000) <= 0) break;
      char buf[512];
      const ssize_t n = ::read(out[0], buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
    *ready_s = static_cast<double>(NowNanos() - t0) / 1e9;
    ::close(out[0]);
    if (at == std::string::npos) {
      return Status::Internal("comx_serve did not announce its port: " + text);
    }
    port_ = std::atoi(text.c_str() + at + std::strlen(marker));
    return Status::OK();
  }

  /// Connects one client socket (TCP_NODELAY on the client side only, so
  /// the generator's own sends are not delayed; the server is untouched).
  Status Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IoError(StrFormat("connect: %s", std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return Status::OK();
  }

  /// Sends `line` and returns the first reply line that starts with one of
  /// `prefixes`, or an error after `timeout_ms`.
  Result<std::string> Request(const std::string& line,
                              const std::vector<std::string>& prefixes,
                              int timeout_ms) {
    std::string out = line + "\n";
    const int64_t deadline = NowNanos() + int64_t{timeout_ms} * 1'000'000;
    while (NowNanos() < deadline) {
      if (!out.empty()) {
        const ssize_t n = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL);
        if (n > 0) out.erase(0, static_cast<size_t>(n));
      }
      for (size_t nl; (nl = in_.find('\n')) != std::string::npos;) {
        std::string reply = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        for (const std::string& p : prefixes) {
          if (reply.rfind(p, 0) == 0) return reply;
        }
      }
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 10);
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return Status::IoError("server closed the connection");
      if (n > 0) in_.append(buf, static_cast<size_t>(n));
    }
    return Status::IoError("no reply to " + line);
  }

  /// QUIT, then waits for a clean exit; true when the server exited 0.
  bool Quit() {
    auto bye = Request("QUIT", {"BYE"}, 10'000);
    const int64_t deadline = NowNanos() + 10'000'000'000;
    int status = 0;
    while (NowNanos() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return bye.ok() && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  int fd() const { return fd_; }
  int pid() const { return pid_; }
  std::string* inbuf() { return &in_; }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  int fd_ = -1;
  std::string in_;
};

/// What one rung of the ladder measured.
struct Rung {
  double rate = 0.0;
  int64_t events = 0;
  int64_t answered = 0;
  int64_t errors = 0;
  int64_t unparseable = 0;
  int64_t stall_replies = 0;
  std::vector<double> decision_ns;  // due -> reply, request events only
  std::vector<double> decision_at;  // reply read, ns, request events only
  std::vector<double> server_ns;    // the latency the server reports
  std::vector<double> late_ns;      // due -> sent, every event
  double client_revenue = 0.0;
  double drain_revenue = -1.0;
  double ready_s = 0.0;
  double hwm_mb = 0.0;
  bool clean_exit = false;

  int64_t failed() const { return errors + unparseable + (events - answered); }
  /// Decisions per second between the 5th and the 95th percentile decision
  /// reply, which leaves out the start-up and the final delayed-ACK stall.
  double DecisionRate() const {
    const size_t n = decision_at.size();
    if (n < 20) return 0.0;
    const size_t a = n / 20, b = n - 1 - n / 20;
    const double dt = decision_at[b] - decision_at[a];
    return dt > 0 ? static_cast<double>(b - a) / (dt / 1e9) : 0.0;
  }
  /// Median latency of the requests in the last tenth of the schedule.
  double TailMedianNs() const {
    const size_t from = decision_ns.size() - decision_ns.size() / 10;
    return Quantile({decision_ns.begin() + static_cast<ptrdiff_t>(from),
                     decision_ns.end()},
                    0.5);
  }
  bool Sustained() const {
    return failed() == 0 && SlicedP99(decision_ns) <= kP99LimitNs &&
           TailMedianNs() <= kP99LimitNs;
  }
};

/// Parses one reply line into the rung; returns false if unparseable.
bool ParseReply(const char* line, int64_t now, const std::vector<int64_t>& due,
                std::vector<char>* seen, Rung* rung) {
  char* end = nullptr;
  if (line[0] == 'E' && line[1] == ' ') {
    const long long i = std::strtoll(line + 2, &end, 10);
    ++rung->errors;
    if (i >= 0 && i < static_cast<long long>(due.size()) && !(*seen)[i]) {
      (*seen)[i] = 1;
      ++rung->answered;
    }
    return true;
  }
  if (line[0] != 'D' || line[1] != ' ') return false;
  const long long i = std::strtoll(line + 2, &end, 10);
  if (end == line + 2 || i < 0 || i >= static_cast<long long>(due.size()) ||
      (*seen)[i]) {
    return false;
  }
  std::strtol(end, &end, 10);  // shard
  while (*end == ' ') ++end;
  const char kind = *end;
  const double latency = static_cast<double>(now - due[i]);
  if (kind == 'D') {
    std::strtol(end + 1, &end, 10);  // outcome
    const double revenue = std::strtod(end, &end);
    rung->client_revenue += revenue;
    rung->decision_ns.push_back(latency);
    rung->decision_at.push_back(static_cast<double>(now));
    rung->server_ns.push_back(static_cast<double>(std::strtoll(end, &end, 10)));
  } else if (kind != 'A') {
    return false;
  }
  (*seen)[i] = 1;
  ++rung->answered;
  if (latency >= kStallNs) ++rung->stall_replies;
  return true;
}

std::vector<std::string> ServeArgs(const Options& options) {
  const Size size = WorkloadSize(options.workload, options.tiny);
  return {"--port", "0", "--shards", "1", "--threads", "1", "--algo", "demcom",
          "--requests", std::to_string(size.requests), "--workers",
          std::to_string(size.workers), "--gen-seed", std::to_string(options.seed),
          "--seed", std::to_string(kSimSeed)};
}

/// Spawns a server and drives one rung of the open loop against it.
Status RunRung(const Options& options, const comx::Instance& instance,
               double rate, bool stall, Rung* rung) {
  rung->rate = rate;
  ServeProcess server;
  COMX_RETURN_IF_ERROR(server.Start(options.serve_bin, ServeArgs(options), &rung->ready_s));
  COMX_RETURN_IF_ERROR(server.Connect());

  const std::vector<int64_t> offsets = Schedule(instance, rate);
  const size_t n = offsets.size();
  rung->events = static_cast<int64_t>(n);
  rung->late_ns.reserve(n);
  rung->decision_ns.reserve(n);
  const int64_t t0 = NowNanos() + 2'000'000;
  std::vector<int64_t> due(n);
  for (size_t i = 0; i < n; ++i) due[i] = t0 + offsets[i];
  const int64_t give_up = due.back() + 30'000'000'000;
  bool stall_pending = stall;

  std::vector<char> seen(n, 0);
  std::string out;
  std::string& in = *server.inbuf();
  size_t next = 0;
  char buf[1 << 16];
  while (rung->answered < rung->events) {
    int64_t now = NowNanos();
    if (now > give_up) break;
    if (stall_pending && next == n / 2) {
      stall_pending = false;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(options.gen_stall_ms * 1e3)));
      now = NowNanos();
    }
    while (next < n && due[next] <= now && !(stall_pending && next == n / 2)) {
      out += "S ";
      out += std::to_string(next);
      out += '\n';
      rung->late_ns.push_back(static_cast<double>(now - due[next]));
      ++next;
    }
    if (!out.empty()) {
      const ssize_t sent = ::send(server.fd(), out.data(), out.size(), MSG_NOSIGNAL);
      if (sent > 0) {
        out.erase(0, static_cast<size_t>(sent));
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::IoError(StrFormat("send: %s", std::strerror(errno)));
      }
    }
    const ssize_t got = ::recv(server.fd(), buf, sizeof(buf), 0);
    if (got == 0) break;  // server went away: the rest counts as unanswered
    if (got > 0) {
      const int64_t at = NowNanos();
      in.append(buf, static_cast<size_t>(got));
      size_t start = 0;
      for (size_t nl; (nl = in.find('\n', start)) != std::string::npos; start = nl + 1) {
        in[nl] = '\0';
        if (!ParseReply(in.c_str() + start, at, due, &seen, rung)) ++rung->unparseable;
      }
      in.erase(0, start);
      continue;
    }
    // The generator spins rather than sleeping between sends: a timer
    // wake-up on a shared host is late by up to milliseconds at p999.
  }

  auto totals = server.Request("DRAIN", {"T ", "E "}, 60'000);
  if (totals.ok() && totals->rfind("T revenue=", 0) == 0) {
    rung->drain_revenue = std::strtod(totals->c_str() + 10, nullptr);
  }
  rung->hwm_mb = PeakRssMb(server.pid());
  rung->clean_exit = server.Quit();
  return Status::OK();
}

/// Checks every rung must pass: all answered without errors, the DRAIN
/// total bit-equal to the in-process RunSimulation, the client-side sum
/// equal to it up to summation order, and a clean server exit.
void CheckRung(const Options& options, const Rung& rung, double reference,
               Report* report) {
  report->attempted += rung.events;
  report->failed += rung.failed();
  const double tol = 1e-9 * std::max(1.0, std::abs(rung.drain_revenue));
  report->Check(
      rung.failed() == 0 && rung.drain_revenue == reference &&
          std::abs(rung.client_revenue - rung.drain_revenue) <= tol &&
          rung.clean_exit,
      StrFormat("rung %.0f ev/s: %lld/%lld answered, %lld errors, %lld "
                "unparseable; DRAIN %.17g == RunSimulation %.17g, client sum "
                "%.17g; clean exit %d",
                rung.rate, static_cast<long long>(rung.answered),
                static_cast<long long>(rung.events),
                static_cast<long long>(rung.errors),
                static_cast<long long>(rung.unparseable), rung.drain_revenue,
                reference, rung.client_revenue, rung.clean_exit ? 1 : 0));
  const std::optional<Pin> pin =
      PinnedValue(options, static_cast<int64_t>(rung.decision_ns.size()));
  if (pin) {
    report->Check(rung.drain_revenue == pin->revenue &&
                      static_cast<int64_t>(rung.decision_ns.size()) == pin->count,
                  StrFormat("rung %.0f ev/s: revenue %.17g == pinned %.17g, "
                            "decisions %zu == pinned %lld",
                            rung.rate, rung.drain_revenue, pin->revenue,
                            rung.decision_ns.size(),
                            static_cast<long long>(pin->count)));
  }
}

void DescribeRung(const Rung& rung, Report* report) {
  report->Info(StrFormat(
      "rung %.0f ev/s: p50 %.1f us, p99 %.1f us (sliced %.1f us) over %zu "
      "decisions; "
      "%lld replies >= 10 ms; generator late p99 %.1f us; last-tenth median "
      "%.1f us; %s",
      rung.rate, Quantile(rung.decision_ns, 0.5) / 1e3,
      Quantile(rung.decision_ns, 0.99) / 1e3, SlicedP99(rung.decision_ns) / 1e3,
      rung.decision_ns.size(),
      static_cast<long long>(rung.stall_replies),
      Quantile(rung.late_ns, 0.99) / 1e3, rung.TailMedianNs() / 1e3,
      rung.Sustained() ? "sustained" : "not sustained"));
}

/// The reporting rung replayed in-process against MatchService.
struct InProcess {
  std::vector<double> e2e_ns;  // due -> callback, request events only
  std::vector<double> submit_ns;
  std::vector<double> queue_ns;
  std::vector<double> step_ns;
  int64_t backlog_max = 0;
  int64_t errors = 0;
  double revenue = 0.0;
};

Status RunInProcess(const comx::Instance& instance, double rate, InProcess* out) {
  // The callbacks write these from the drainer thread, so they are
  // declared before the service, which is destroyed (and quiesced) first.
  const std::vector<int64_t> offsets = Schedule(instance, rate);
  const size_t n = offsets.size();
  std::vector<int64_t> done_at(n, 0), step(n, 0), submitted_at(n, 0);
  std::vector<char> decision(n, 0);
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> errors{0};
  comx::serve::ServiceOptions so;
  so.shards = 1;
  so.threads = 1;
  so.seed = kSimSeed;
  auto service = comx::serve::MatchService::Create(
      instance, [] { return MakeMatcher("demcom"); }, so);
  if (!service.ok()) return service.status();
  const int64_t t0 = NowNanos() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    WaitUntil(t0 + offsets[i]);
    const int64_t a = NowNanos();
    const Status st = (*service)->SubmitEvent(
        static_cast<int64_t>(i),
        [&](const Status& s, const comx::serve::ShardDecision& d) {
          const size_t k = static_cast<size_t>(d.global_index);
          done_at[k] = NowNanos();
          step[k] = d.latency_nanos;
          decision[k] = d.record.kind == comx::StepRecord::Kind::kDecision;
          if (!s.ok()) errors.fetch_add(1);
          completed.fetch_add(1, std::memory_order_release);
        });
    const int64_t b = NowNanos();
    if (!st.ok()) return st;
    out->submit_ns.push_back(static_cast<double>(b - a));
    submitted_at[i] = b;
    out->backlog_max = std::max<int64_t>(
        out->backlog_max,
        static_cast<int64_t>(i + 1) - completed.load(std::memory_order_acquire));
  }
  auto totals = (*service)->Drain();
  if (!totals.ok()) return totals.status();
  out->revenue = totals->total_revenue;
  out->errors = errors.load();
  for (size_t i = 0; i < n; ++i) {
    out->step_ns.push_back(static_cast<double>(step[i]));
    out->queue_ns.push_back(static_cast<double>(
        std::max<int64_t>(done_at[i] - submitted_at[i] - step[i], 0)));
    if (decision[i]) out->e2e_ns.push_back(static_cast<double>(done_at[i] - (t0 + offsets[i])));
  }
  return Status::OK();
}

}  // namespace

Status RunServeOpen(const Options& options, Report* report) {
  if (options.serve_bin.empty()) {
    return Status::InvalidArgument("serve_open needs --serve-bin");
  }
  // The in-process copy of the served instance: the schedule's timestamps,
  // and the RunSimulation reference every DRAIN total must equal.
  Prepared prep;
  std::vector<SetupTimes> setup;
  COMX_RETURN_IF_ERROR(Prepare(
      GenConfig(WorkloadSize(options.workload, options.tiny), options.seed),
      "demcom", 1, &prep, &setup));
  std::vector<std::unique_ptr<comx::OnlineMatcher>> owned;
  std::vector<comx::OnlineMatcher*> matchers;
  for (int32_t p = 0; p < prep.instance.PlatformCount(); ++p) {
    owned.push_back(MakeMatcher("demcom"));
    matchers.push_back(owned.back().get());
  }
  comx::SimConfig sim;
  sim.measure_response_time = false;
  sim.acceptance = &*prep.model;
  auto reference = comx::RunSimulation(prep.instance, matchers, sim, kSimSeed);
  if (!reference.ok()) return reference.status();
  const double ref_revenue = reference->metrics.TotalRevenue();

  std::vector<Rung> rungs;
  if (!options.trace) {
    const int64_t start = NowNanos();
    for (double rate : kLadder) {
      rungs.emplace_back();
      COMX_RETURN_IF_ERROR(RunRung(options, prep.instance, rate,
                                   rate == kReportingRate && options.gen_stall_ms > 0,
                                   &rungs.back()));
    }
    // Spare time buys more repetitions of the reporting rung.
    while (static_cast<double>(NowNanos() - start) / 1e9 < options.seconds) {
      rungs.emplace_back();
      COMX_RETURN_IF_ERROR(RunRung(options, prep.instance, kReportingRate,
                                   options.gen_stall_ms > 0, &rungs.back()));
    }
  } else {
    rungs.emplace_back();
    COMX_RETURN_IF_ERROR(RunRung(options, prep.instance, kReportingRate,
                                 options.gen_stall_ms > 0, &rungs.back()));
  }

  // Each figure is the median over the reporting rungs of that rung's value.
  std::vector<double> p50s, server_p99s, client_p99s, ready_s;
  double throughput = 0.0, capacity = 0.0;
  std::vector<double> late_ns;
  size_t samples = 0;
  double sustained_rate = 0.0, hwm = 0.0;
  int64_t stalls = 0;
  for (const Rung& rung : rungs) {
    CheckRung(options, rung, ref_revenue, report);
    DescribeRung(rung, report);
    ready_s.push_back(rung.ready_s);
    hwm = std::max(hwm, rung.hwm_mb);
    if (rung.rate == kReportingRate) {
      p50s.push_back(Quantile(rung.decision_ns, 0.5));
      server_p99s.push_back(Quantile(rung.server_ns, 0.99));
      client_p99s.push_back(SlicedP99(rung.decision_ns));
      samples += rung.decision_ns.size();
      late_ns.insert(late_ns.end(), rung.late_ns.begin(), rung.late_ns.end());
      stalls += rung.stall_replies;
    }
    if (rung.rate == kThroughputRate) throughput = rung.DecisionRate();
    if (rung.rate == kCapacityRate) capacity = rung.DecisionRate();
    if (rung.Sustained()) sustained_rate = std::max(sustained_rate, rung.rate);
  }
  const double p50 = Median(p50s);
  const double server_p99 = Median(server_p99s);
  const double client_p99 = Median(client_p99s);
  report->Info(StrFormat("sustained_eps %.0f (highest rung with sliced p99 <= %.0f "
                         "ms and no backlog growth)",
                         sustained_rate, kP99LimitNs / 1e6));
  report->Info(StrFormat(
      "reporting rung %.0f ev/s x%zu (%zu decisions in all): client p50 %.3f us, "
      "client sliced p99 %.3f us, server-reported p99 %.3f us; failed_ratio %.6f",
      kReportingRate, p50s.size(), samples, p50 / 1e3, client_p99 / 1e3,
      server_p99 / 1e3,
      report->attempted > 0 ? static_cast<double>(report->failed) /
                                  static_cast<double>(report->attempted)
                            : 0.0));
  report->Set("decisions_per_s", throughput);
  report->Info(StrFormat("decisions_per_s: %.1f achieved at the %.0f ev/s rung; "
                         "capacity %.1f decisions/s at the %.0f ev/s rung",
                         throughput, kThroughputRate, capacity, kCapacityRate));
  report->Set("decision_p50_us", p50 / 1e3);
  report->Set("decision_p99_us", server_p99 / 1e3);
  report->Set("revenue", rungs.front().drain_revenue);
  report->Set("setup_s", Median(ready_s));
  report->Set("peak_rss_mb", hwm);
  report->Info(StrFormat("setup_s: median spawn-to-listening %.4f s over %zu spawns",
                         Median(ready_s), ready_s.size()));
  if (!options.trace) return Status::OK();

  report->Set("datagen.generate_s", setup.front().generate_s);
  report->Set("pricing.acceptance_build_s", setup.front().acceptance_s);
  report->Set("sim.engine_init_s", setup.front().engine_init_s);
  report->Set("serve.stall_replies", static_cast<double>(stalls));
  report->Set("serve.client_p99_us", client_p99 / 1e3);
  report->Set("serve.gen_late_p99_us", Quantile(late_ns, 0.99) / 1e3);

  InProcess inproc;
  COMX_RETURN_IF_ERROR(RunInProcess(prep.instance, kReportingRate, &inproc));
  report->Check(inproc.errors == 0 && inproc.revenue == ref_revenue,
                StrFormat("in-process MatchService: %lld errors, revenue %.17g "
                          "bit-equal to RunSimulation %.17g",
                          static_cast<long long>(inproc.errors), inproc.revenue,
                          ref_revenue));
  const double inproc_p50 = Quantile(inproc.e2e_ns, 0.5);
  report->Info(StrFormat(
      "in-process rung %.0f ev/s: p50 %.3f us, p99 %.3f us over %zu decisions "
      "(TCP: p50 %.3f us, sliced p99 %.3f us); the traced path skips the wire, so the "
      "delta is serve.wire_p50_us rather than a tracing overhead",
      kReportingRate, inproc_p50 / 1e3, Quantile(inproc.e2e_ns, 0.99) / 1e3,
      inproc.e2e_ns.size(), p50 / 1e3, client_p99 / 1e3));
  report->Set("serve.submit_p99_us", Quantile(inproc.submit_ns, 0.99) / 1e3);
  report->Set("serve.queue_wait_p50_us", Quantile(inproc.queue_ns, 0.5) / 1e3);
  report->Set("serve.queue_wait_p99_us", Quantile(inproc.queue_ns, 0.99) / 1e3);
  report->Set("serve.step_p50_us", Quantile(inproc.step_ns, 0.5) / 1e3);
  report->Set("serve.step_p99_us", Quantile(inproc.step_ns, 0.99) / 1e3);
  report->Set("serve.backlog_max", static_cast<double>(inproc.backlog_max));
  report->Set("serve.wire_p50_us", (p50 - inproc_p50) / 1e3);
  return Status::OK();
}

}  // namespace perfbench
