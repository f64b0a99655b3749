// Load generator for comx_serve: replays the instance's day-curve arrival
// schedule against a live service over the TCP line protocol and reports
// client-observed decision latency.
//
//   comx_loadgen --spawn-serve BIN [instance/serve flags] [--qps Q]
//   comx_loadgen --port N [--host 127.0.0.1] ...
//
// Modes:
//   --mode open    (default) paced submissions: the instance's event
//                  timestamps are compressed so the MEAN rate is --qps,
//                  preserving the day curve's shape (rush hours stay
//                  proportionally bursty); replies are consumed as they
//                  arrive, submissions never wait for them.
//   --mode closed  windowed: at most --outstanding submissions in flight;
//                  each reply releases the next. --qps is ignored.
//
// Every event is submitted in global order (the service's per-shard
// ordering contract), then DRAIN cross-checks the client-side revenue sum
// against the service's Eq. 1 total, QUIT asserts a clean server exit, and
// --spawn-serve additionally asserts exit status 0 (the clean-shutdown
// check check.sh stage 8 runs under ASan).
//
// --smoke: small built-in instance, 4 shards, capped duration — exits
// non-zero on any protocol error, latency anomaly (p50 == 0 with decisions
// present), revenue mismatch, or unclean server exit.
//
// --bench-out PATH writes one comx-bench-sweep-v1 record (deterministic:
// decisions, revenue; informational: latency_*, wall_, decisions_per_sec)
// for the BENCH_serve.json baseline gated by tools/bench_check.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exp/bench_record.h"
#include "obs/latency_histogram.h"
#include "util/flags.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace comx {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "comx_loadgen: %s\n", message.c_str());
  return 1;
}

struct SpawnedServe {
  pid_t pid = -1;
  int port = -1;
};

/// fork/execs the serve binary with --port 0, parses the actual port from
/// its "comx_serve listening on port N ..." stdout line (stdout is then
/// forwarded to our stderr so server logs stay visible).
Result<SpawnedServe> SpawnServe(const std::string& bin,
                                const std::vector<std::string>& extra) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::IoError("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork() failed");
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    std::vector<std::string> args = {bin, "--port", "0"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    std::fprintf(stderr, "comx_loadgen: execv %s: %s\n", bin.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::string line;
  char ch;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(pipe_fds[0], &ch, 1);
    if (n <= 0) {
      ::close(pipe_fds[0]);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      return Status::Internal("serve process exited before announcing port");
    }
    line.push_back(ch);
  }
  ::close(pipe_fds[0]);
  const char* marker = "listening on port ";
  const size_t at = line.find(marker);
  if (at == std::string::npos) {
    return Status::Internal(StrFormat("unexpected serve banner: %s",
                                      line.c_str()));
  }
  SpawnedServe spawned;
  spawned.pid = pid;
  spawned.port = std::atoi(line.c_str() + at + std::strlen(marker));
  return spawned;
}

Result<int> Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(StrFormat("bad host %s", host.c_str()));
  }
  // The spawned server prints its banner before listen() returns to us, so
  // a short retry loop covers the accept-loop startup race.
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::close(fd);
  return Status::IoError(StrFormat("cannot connect to %s:%d", host.c_str(),
                                   port));
}

/// Buffered line reader over a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks until a full line is available; false on EOF/error.
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Non-blocking variant: drains whatever is ready, false when no full
  /// line is buffered.
  bool TryReadLine(std::string* line) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    pollfd p{fd_, POLLIN, 0};
    while (::poll(&p, 1, 0) > 0 && (p.revents & POLLIN) != 0) {
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
      const size_t at = buf_.find('\n');
      if (at != std::string::npos) {
        *line = buf_.substr(0, at);
        buf_.erase(0, at + 1);
        return true;
      }
      p.revents = 0;
    }
    return false;
  }

 private:
  int fd_;
  std::string buf_;
};

bool SendLine(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

struct ReplayStats {
  int64_t sent = 0;
  int64_t replies = 0;
  int64_t decisions = 0;
  int64_t errors = 0;
  double revenue_sum = 0.0;
  obs::LatencyHistogram latency;
};

/// Parses one "D <i> <shard> ..." reply; updates latency from send stamps.
void HandleReply(const std::string& line, const std::vector<int64_t>& sent_ns,
                 const Stopwatch& clock, ReplayStats* stats) {
  ++stats->replies;
  if (line.size() < 2 || line[0] != 'D') {
    ++stats->errors;
    std::fprintf(stderr, "comx_loadgen: error reply: %s\n", line.c_str());
    return;
  }
  char kind = 0;
  long long index = -1;
  int shard = -1;
  int outcome = 0;
  double revenue = 0.0;
  // Two layouts: "D i shard A lat" and "D i shard D outcome revenue lat".
  if (std::sscanf(line.c_str(), "D %lld %d %c %d %lf", &index, &shard, &kind,
                  &outcome, &revenue) >= 3 &&
      index >= 0 && index < static_cast<long long>(sent_ns.size())) {
    if (kind == 'D') {
      ++stats->decisions;
      stats->revenue_sum += revenue;
    }
    stats->latency.ObserveNanos(clock.ElapsedNanos() -
                                sent_ns[static_cast<size_t>(index)]);
  } else {
    ++stats->errors;
    std::fprintf(stderr, "comx_loadgen: unparseable reply: %s\n", line.c_str());
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.Has("--smoke");
  const char* mode = flags.Get("--mode");
  const bool closed = mode != nullptr && std::strcmp(mode, "closed") == 0;
  const double qps = flags.Double("--qps", smoke ? 5000.0 : 1000.0);
  const int64_t outstanding = flags.Int("--outstanding", 64);
  const double cap_seconds =
      flags.Double("--duration-cap-s", smoke ? 10.0 : 0.0);
  const char* bench = flags.Get("--bench-out");
  const char* algo = flags.Get("--algo", "ramcom");

  SpawnedServe spawned;
  int port = flags.Int<int>("--port", -1);
  std::string host = "127.0.0.1";
  if (const char* h = flags.Get("--host"); h != nullptr) host = h;

  const char* bin = flags.Get("--spawn-serve");
  // Forward the instance/serve shape to the child, which validates it.
  std::vector<std::string> extra;
  for (const char* flag :
       {"--platforms", "--requests", "--workers", "--radius", "--imbalance",
        "--gen-seed", "--arrival", "--load", "--algo", "--seed", "--shards",
        "--threads", "--wal-dir", "--perf-out"}) {
    if (const char* v = flags.Get(flag); v != nullptr) {
      extra.push_back(flag);
      extra.push_back(v);
    }
  }
  if (!flags.ok()) return Fail(flags.status().ToString());

  if (bin != nullptr) {
    if (smoke && flags.Get("--requests") == nullptr) {
      extra.insert(extra.end(), {"--requests", "1000", "--workers", "200",
                                 "--platforms", "2"});
    }
    if (smoke && flags.Get("--shards") == nullptr) {
      extra.insert(extra.end(), {"--shards", "4"});
    }
    auto s = SpawnServe(bin, extra);
    if (!s.ok()) return Fail(s.status().ToString());
    spawned = *s;
    port = spawned.port;
  }
  if (port <= 0) {
    return Fail("need --port N or --spawn-serve BIN");
  }

  auto fd_result = Connect(host, port);
  if (!fd_result.ok()) return Fail(fd_result.status().ToString());
  const int fd = *fd_result;
  LineReader reader(fd);

  // Handshake: learn the event count.
  if (!SendLine(fd, "HELLO")) return Fail("handshake write failed");
  std::string line;
  if (!reader.ReadLine(&line)) return Fail("handshake read failed");
  long long events = -1;
  if (std::sscanf(line.c_str(), "COMX-SERVE v1 events=%lld", &events) != 1 ||
      events < 0) {
    return Fail(StrFormat("bad handshake: %s", line.c_str()));
  }

  // Open-loop pacing: compress the instance's event-time span so the mean
  // rate is --qps. We do not know individual event times client-side, so
  // the schedule is uniform at qps with the day curve realized server-side
  // by event order; closed-loop ignores pacing entirely.
  const double interval_ns = qps > 0.0 ? 1e9 / qps : 0.0;

  ReplayStats stats;
  std::vector<int64_t> sent_ns(static_cast<size_t>(events), 0);
  Stopwatch clock;
  const int64_t cap_ns =
      cap_seconds > 0.0 ? static_cast<int64_t>(cap_seconds * 1e9) : 0;
  bool capped = false;

  for (long long i = 0; i < events; ++i) {
    if (cap_ns > 0 && clock.ElapsedNanos() > cap_ns) {
      capped = true;
      std::fprintf(stderr,
                   "comx_loadgen: duration cap hit after %lld/%lld events; "
                   "remaining events drain server-side\n",
                   i, events);
      break;
    }
    if (closed) {
      while (stats.sent - stats.replies >= outstanding) {
        if (!reader.ReadLine(&line)) return Fail("connection lost");
        HandleReply(line, sent_ns, clock, &stats);
      }
    } else if (interval_ns > 0.0) {
      const int64_t due = static_cast<int64_t>(static_cast<double>(i) *
                                               interval_ns);
      while (clock.ElapsedNanos() < due) {
        if (reader.TryReadLine(&line)) {
          HandleReply(line, sent_ns, clock, &stats);
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    }
    sent_ns[static_cast<size_t>(i)] = clock.ElapsedNanos();
    if (!SendLine(fd, StrFormat("S %lld", i))) return Fail("send failed");
    ++stats.sent;
    while (reader.TryReadLine(&line)) HandleReply(line, sent_ns, clock, &stats);
  }

  // Collect the stragglers.
  while (stats.replies < stats.sent) {
    if (!reader.ReadLine(&line)) return Fail("connection lost during drain");
    HandleReply(line, sent_ns, clock, &stats);
  }
  const double replay_seconds = static_cast<double>(clock.ElapsedNanos()) / 1e9;

  // Graceful drain + Eq. 1 cross-check.
  if (!SendLine(fd, "DRAIN")) return Fail("DRAIN write failed");
  if (!reader.ReadLine(&line)) return Fail("DRAIN read failed");
  double serve_revenue = 0.0;
  long long assignments = -1;
  if (std::sscanf(line.c_str(), "T revenue=%lf assignments=%lld",
                  &serve_revenue, &assignments) != 2) {
    return Fail(StrFormat("bad DRAIN reply: %s", line.c_str()));
  }

  int failures = static_cast<int>(stats.errors);
  // Client-side revenue is a different summation order (reply order) and
  // excludes events past the duration cap, so the cross-check only binds
  // on a full replay.
  if (!capped) {
    const double tol =
        1e-9 * std::max({1.0, std::abs(serve_revenue), stats.revenue_sum});
    if (std::abs(serve_revenue - stats.revenue_sum) > tol) {
      std::fprintf(stderr,
                   "comx_loadgen: revenue mismatch: client sum %.17g vs "
                   "serve total %.17g\n",
                   stats.revenue_sum, serve_revenue);
      ++failures;
    }
  }
  const obs::LatencySnapshot lat = stats.latency.Snapshot();
  if (smoke && stats.decisions > 0 && lat.ValueAtQuantileNanos(0.5) <= 0) {
    std::fprintf(stderr, "comx_loadgen: implausible zero p50 latency\n");
    ++failures;
  }

  // Clean shutdown: QUIT, expect BYE, and a zero exit from a spawned serve.
  if (!SendLine(fd, "QUIT")) return Fail("QUIT write failed");
  if (!reader.ReadLine(&line) || line != "BYE") {
    std::fprintf(stderr, "comx_loadgen: expected BYE, got: %s\n",
                 line.c_str());
    ++failures;
  }
  ::close(fd);
  if (spawned.pid > 0) {
    int wstatus = 0;
    if (::waitpid(spawned.pid, &wstatus, 0) != spawned.pid ||
        !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      std::fprintf(stderr, "comx_loadgen: serve exited uncleanly (status %d)\n",
                   wstatus);
      ++failures;
    }
  }

  const double decisions_per_sec =
      replay_seconds > 0.0 ? static_cast<double>(stats.decisions) /
                                 replay_seconds
                           : 0.0;
  std::printf(
      "loadgen: events=%lld decisions=%lld revenue=%.17g wall_s=%.3f "
      "decisions_per_sec=%.0f p50_us=%.1f p99_us=%.1f p999_us=%.1f%s\n",
      static_cast<long long>(stats.sent),
      static_cast<long long>(stats.decisions), serve_revenue, replay_seconds,
      decisions_per_sec, lat.QuantileMicros(0.50), lat.QuantileMicros(0.99),
      lat.QuantileMicros(0.999), capped ? " (capped)" : "");

  if (bench != nullptr && !capped && failures == 0) {
    exp::BenchRecord record;
    record.name = StrFormat("serve_smoke.%s", algo);
    record.numbers["decisions"] = static_cast<double>(stats.decisions);
    record.numbers["revenue"] = serve_revenue;
    record.numbers["assignments"] = static_cast<double>(assignments);
    record.numbers["wall_seconds"] = replay_seconds;
    record.numbers["decisions_per_sec"] = decisions_per_sec;
    record.numbers["latency_p50_us"] = lat.QuantileMicros(0.50);
    record.numbers["latency_p99_us"] = lat.QuantileMicros(0.99);
    record.numbers["latency_p999_us"] = lat.QuantileMicros(0.999);
    if (Status st = exp::WriteBenchRecords(bench, {record}); !st.ok()) {
      std::fprintf(stderr, "comx_loadgen: bench-out: %s\n",
                   st.ToString().c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace comx

int main(int argc, char** argv) { return comx::Main(argc, argv); }
