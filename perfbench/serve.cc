// serve_mixed: open-loop traffic against a real advisor_server child
// process over TCP.
//
// The generator is one thread driving up to nproc (at most 4)
// non-blocking connections with poll(): every request is written when
// it is due on a seeded Poisson schedule, whether or not earlier
// replies have arrived, and its latency is timed from the due time.
// Requests on one connection are pipelined; the server answers them in
// order. The mix is 80 % WHATIF (one of the 64 subsets of the six
// paper candidate indexes), 10 % RECOMMEND (server defaults) and 10 %
// INGEST (100 statements from a stream that shifts phase across the
// paper's mixes A-D every 1000 statements).
//
// The timed run spends --seconds at one fixed reference rate; its op
// latency is the server's own time per request, read from the journal
// the server records. The traced run adds the client-side figures per
// opcode, then binary-searches a fixed geometric rate ladder for the
// highest rate at which every opcode's p99 stays within the SLO and
// the backlog does not grow, then replays the same requests through an
// in-process AdvisorService for the per-layer breakdown.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <pthread.h>
#include <sched.h>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/config_enumeration.h"
#include "advisor/dominance.h"
#include "common/tracing.h"
#include "cost/what_if.h"
#include "index/index_def.h"
#include "server/advisor_service.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/journal.h"
#include "server/recorder.h"
#include "server/replay.h"
#include "workload/generator.h"
#include "workload/query_mix.h"
#include "workload/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cdpd::ServerOp;

// Fixed traffic parameters (also stated in BENCHMARK.json). They are
// never derived from a run.
constexpr double kReferenceRps = 600.0;
/// Share of --seconds the traced run spends at the reference rate; the
/// rest walks the ladder.
constexpr double kTracedReferenceShare = 0.75;
constexpr double kLadderBaseRps = 250.0;
constexpr int kLadderRungs = 49;  // 250 * 2^(i/8), i = 0..48: 250..16000.
constexpr double kSloMs = 20.0;
/// The generator is behind when its p99 send lateness exceeds this.
constexpr double kLagLimitMs = 10.0;
constexpr size_t kBatchStatements = 100;
constexpr size_t kStreamBatches = 2048;
constexpr size_t kPrefillBatches = 100;  // 10k statements: a full window.
constexpr int64_t kDomain = 500'000;

double LadderRate(int rung) {
  return kLadderBaseRps * std::pow(2.0, rung / 8.0);
}

const char* OpName(uint8_t op) {
  switch (static_cast<ServerOp>(op)) {
    case ServerOp::kWhatIf: return "whatif";
    case ServerOp::kRecommend: return "recommend";
    case ServerOp::kIngest: return "ingest";
    default: return "other";
  }
}

/// First number after `"key":` in a JSON document (0 when absent).
double NumberAfter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  at = json.find(':', at + needle.size());
  if (at == std::string::npos) return 0.0;
  ++at;
  while (at < json.size() && json[at] == ' ') ++at;
  return std::strtod(json.c_str() + at, nullptr);
}

// ---------------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  bool Start(const std::string& bin, const std::string& dir,
             std::string* error) {
    ::mkdir(dir.c_str(), 0755);
    const std::string log = dir + "/server.log";
    const std::string journal = dir + "/journal";
    ::unlink(log.c_str());  // A stale log would name a stale port.
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(bin.c_str(), bin.c_str(), "--port", "0", "--record",
              journal.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const double deadline = NowS() + 20.0;
    while (NowS() < deadline) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find("listening on ");
        const size_t colon = line.rfind(':');
        if (at != std::string::npos && colon != std::string::npos) {
          port_ = std::atoi(line.c_str() + colon + 1);
          if (port_ > 0) return true;
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "advisor_server exited during start-up";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *error = "advisor_server did not report its port";
    return false;
  }

  int port() const { return port_; }

  /// utime + stime of the server process, in seconds.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command: state is field 3; utime 14, stime 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::atof(field.c_str());
      if (i == 15) stime = std::atof(field.c_str());
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// VmHWM of the server process in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    return 0.0;
  }

  /// SHUTDOWN over the wire, then wait; SIGKILL when it does not exit.
  void Stop() {
    if (pid_ <= 0) return;
    auto client = cdpd::AdvisorClient::Connect("127.0.0.1", port_);
    if (client.ok()) (void)client->Shutdown();
    const double deadline = NowS() + 10.0;
    while (NowS() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  pid_t pid_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::vector<std::string> whatif_specs;    // 64 subsets.
  std::vector<std::string> prefill;         // Sent as one INGEST.
  std::vector<std::string> stream;          // The INGEST stream.
};

std::string RenderBatch(const cdpd::Schema& schema,
                        cdpd::WorkloadGenerator* gen,
                        const cdpd::QueryMix& mix) {
  cdpd::Workload batch;
  batch.statements = gen->GenerateFromMix(mix, kBatchStatements);
  return cdpd::WriteTrace(schema, batch);
}

Inputs MakeInputs(const cdpd::Schema& schema, uint64_t seed) {
  Inputs inputs;
  const std::vector<cdpd::IndexDef> candidates =
      cdpd::MakePaperCandidateIndexes(schema);
  for (uint32_t mask = 0; mask < 64; ++mask) {
    std::string spec;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((mask & (1u << i)) == 0) continue;
      if (!spec.empty()) spec += ";";
      std::string cols;
      for (cdpd::ColumnId col : candidates[i].key_columns()) {
        if (!cols.empty()) cols += ",";
        cols += schema.column_name(col);
      }
      spec += cols;
    }
    inputs.whatif_specs.push_back(spec.empty() ? "{}" : spec);
  }
  const std::vector<cdpd::QueryMix> mixes = cdpd::MakePaperQueryMixes();
  cdpd::WorkloadGenerator prefill_gen(schema, kDomain, seed * 2 + 1);
  for (size_t b = 0; b < kPrefillBatches; ++b) {
    inputs.prefill.push_back(
        RenderBatch(schema, &prefill_gen, mixes[(b / 10) % mixes.size()]));
  }
  cdpd::WorkloadGenerator stream_gen(schema, kDomain, seed * 2 + 2);
  for (size_t b = 0; b < kStreamBatches; ++b) {
    inputs.stream.push_back(
        RenderBatch(schema, &stream_gen, mixes[(b / 10) % mixes.size()]));
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// The open-loop generator.

struct Request {
  double due = 0;  // Seconds after the phase start.
  uint8_t op = 0;
  uint32_t arg = 0;  // WHATIF subset or INGEST stream batch.
  double dispatched = -1;  // When the generator queued it for writing.
  double sent = -1;        // When its last byte was written.
  double done = -1;        // When its response was read.
  uint8_t status = 0xff;
  std::string body;  // Kept for INGEST and RECOMMEND responses.
};

struct Phase {
  std::vector<Request> requests;
  double start = 0;    // Absolute steady-clock seconds of due time 0.
  double length = 0;   // Scheduled seconds.
  double end = 0;      // When the last reply arrived (or the drain ended).
  size_t backlog_at_end = 0;  // Dispatched, unanswered at start+length.
  LagLedger lag;
};

/// Seeded Poisson arrivals with the 80/10/10 mix; INGEST batches are
/// taken from the stream in order, continuing across phases.
std::vector<Request> MakeSchedule(std::mt19937_64* rng, double rate,
                                  double seconds, size_t* next_batch) {
  auto uniform = [rng] {
    return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
  };
  std::vector<Request> out;
  double t = 0;
  while (true) {
    t += -std::log1p(-uniform()) / rate;
    if (t >= seconds) break;
    Request r;
    r.due = t;
    const double kind = uniform();
    if (kind < 0.8) {
      r.op = static_cast<uint8_t>(ServerOp::kWhatIf);
      r.arg = static_cast<uint32_t>((*rng)() % 64);
    } else if (kind < 0.9) {
      r.op = static_cast<uint8_t>(ServerOp::kRecommend);
    } else {
      r.op = static_cast<uint8_t>(ServerOp::kIngest);
      r.arg = static_cast<uint32_t>((*next_batch)++ % kStreamBatches);
    }
    out.push_back(std::move(r));
  }
  return out;
}

int ConnectNonBlocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Generator {
 public:
  Generator(int port, int connections, const Inputs* inputs)
      : port_(port), connections_(connections), inputs_(inputs) {
    Reconnect();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  bool ok() const { return !conns_.empty(); }
  int connections() const { return static_cast<int>(conns_.size()); }

  /// Runs one phase; returns after every request is answered or
  /// `drain_s` seconds past the schedule's end.
  void Run(Phase* phase, double drain_s) {
    std::vector<Request>& reqs = phase->requests;
    phase->start = NowS() + 0.02;
    if (conns_.empty()) {  // Every request stays unanswered: failed.
      phase->end = phase->start;
      return;
    }
    const double schedule_end = phase->start + phase->length;
    const double give_up = schedule_end + drain_s;
    size_t next = 0, answered = 0;
    bool backlog_taken = false;
    std::vector<pollfd> fds(conns_.size());
    while (answered < reqs.size()) {
      double now = NowS();
      if (now >= give_up) break;
      while (next < reqs.size() && phase->start + reqs[next].due <= now) {
        Dispatch(&reqs[next], next, now);
        phase->lag.Record(phase->start + reqs[next].due, now);
        ++next;
      }
      if (!backlog_taken && now >= schedule_end) {
        backlog_taken = true;
        phase->backlog_at_end = next - answered;
      }
      for (Conn& c : conns_) Flush(&c, reqs, now);
      double wait_s = 0.05;
      if (next < reqs.size()) {
        wait_s = phase->start + reqs[next].due - NowS();
      } else if (!backlog_taken) {
        wait_s = schedule_end - NowS();
      }
      wait_s = std::min(std::max(wait_s, 0.0), give_up - NowS());
      for (size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = POLLIN;
        if (conns_[i].out.size() > conns_[i].out_off) fds[i].events |= POLLOUT;
        fds[i].revents = 0;
      }
      // The kernel timer (1 ns slack, see RunServeMixed) wakes the loop
      // for the next send; it never spins.
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait_s);
      ts.tv_nsec = static_cast<long>((wait_s - ts.tv_sec) * 1e9);
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      now = NowS();
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & POLLOUT) Flush(&conns_[i], reqs, now);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          answered += Read(&conns_[i], &reqs, now);
        }
      }
    }
    if (!backlog_taken) phase->backlog_at_end = next - answered;
    phase->end = NowS();
    // Replies still owed would be matched to the next phase's requests:
    // start that phase on fresh connections instead.
    if (answered < reqs.size()) Reconnect();
  }

 private:
  void Reconnect() {
    for (Conn& c : conns_) ::close(c.fd);
    conns_.clear();
    for (int i = 0; i < connections_; ++i) {
      const int fd = ConnectNonBlocking(port_);
      if (fd < 0) continue;
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }

  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    uint64_t written = 0;   // Bytes written over the connection's life.
    uint64_t queued = 0;    // Bytes appended over the connection's life.
    std::deque<std::pair<size_t, uint64_t>> unsent;  // (req, end byte).
    std::deque<size_t> inflight;
    std::string in;
    size_t in_off = 0;
  };

  void Dispatch(Request* r, size_t index, double now) {
    // Least outstanding requests first, rotating among ties.
    size_t best = rr_++ % conns_.size();
    for (size_t k = 0; k < conns_.size(); ++k) {
      const size_t i = (best + k) % conns_.size();
      if (conns_[i].inflight.size() < conns_[best].inflight.size()) best = i;
    }
    Conn& c = conns_[best];
    std::string_view payload;
    switch (static_cast<ServerOp>(r->op)) {
      case ServerOp::kWhatIf: payload = inputs_->whatif_specs[r->arg]; break;
      case ServerOp::kIngest: payload = inputs_->stream[r->arg]; break;
      default: break;
    }
    const size_t before = c.out.size();
    (void)cdpd::EncodeFrame(r->op, payload, &c.out);
    c.queued += c.out.size() - before;
    c.unsent.emplace_back(index, c.queued);
    c.inflight.push_back(index);
    r->dispatched = now;
  }

  void Flush(Conn* c, std::vector<Request>& reqs, double now) {
    while (c->out.size() > c->out_off) {
      const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n <= 0) break;
      c->out_off += static_cast<size_t>(n);
      c->written += static_cast<uint64_t>(n);
    }
    while (!c->unsent.empty() && c->unsent.front().second <= c->written) {
      reqs[c->unsent.front().first].sent = now;
      c->unsent.pop_front();
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    } else if (c->out_off > (1u << 20)) {
      c->out.erase(0, c->out_off);
      c->out_off = 0;
    }
  }

  size_t Read(Conn* c, std::vector<Request>* reqs, double now) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      c->in.append(buf, static_cast<size_t>(n));
    }
    size_t completed = 0;
    while (c->in.size() - c->in_off >= 5) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(c->in.data() + c->in_off);
      const uint32_t len = p[0] | (p[1] << 8) | (p[2] << 16) |
                           (static_cast<uint32_t>(p[3]) << 24);
      if (c->in.size() - c->in_off < 5 + static_cast<size_t>(len)) break;
      if (c->inflight.empty()) break;  // A reply nobody waits for.
      Request& r = (*reqs)[c->inflight.front()];
      c->inflight.pop_front();
      r.status = p[4];
      r.done = now;
      if (r.sent < 0) r.sent = now;
      const std::string_view payload(c->in.data() + c->in_off + 5, len);
      if (r.op == static_cast<uint8_t>(ServerOp::kWhatIf) && r.status == 0) {
        if (payload.find("\"exec_cost\":") == std::string_view::npos) {
          r.status = 0xfe;  // Malformed answer.
        }
      } else {
        r.body.assign(payload);
      }
      c->in_off += 5 + len;
      ++completed;
    }
    if (c->in_off == c->in.size()) {
      c->in.clear();
      c->in_off = 0;
    }
    return completed;
  }

  const int port_;
  const int connections_;
  const Inputs* inputs_;
  std::vector<Conn> conns_;
  size_t rr_ = 0;
};

// ---------------------------------------------------------------------------
// The workload.

struct OpSamples {
  Samples latency_s;  // From the due time.
  Samples rtt_s;      // From the last byte written.
};

struct PhaseStats {
  std::map<std::string, OpSamples> by_op;
  Samples all_latency_s;
  int64_t failed = 0;
  int64_t attempted = 0;
  std::vector<std::string> reasons;
};

PhaseStats Summarize(const Phase& phase) {
  PhaseStats s;
  for (const Request& r : phase.requests) {
    ++s.attempted;
    if (r.done < 0 || r.status != 0) {
      ++s.failed;
      if (s.reasons.size() < 4) {
        s.reasons.push_back(std::string(OpName(r.op)) +
                            (r.done < 0 ? ": no response"
                                        : ": status " +
                                              std::to_string(r.status) + " " +
                                              r.body.substr(0, 120)));
      }
      continue;
    }
    const double latency = r.done - (phase.start + r.due);
    OpSamples& op = s.by_op[OpName(r.op)];
    op.latency_s.Add(latency);
    op.rtt_s.Add(r.done - r.sent);
    s.all_latency_s.Add(latency);
  }
  return s;
}

class ServeMixed {
 public:
  ServeMixed(const RunArgs& args, Report* report)
      : args_(args), report_(report), schema_(cdpd::MakePaperSchema()) {}

  /// `realtime` raises the calling thread's priority for the traffic
  /// phases; the checks and the in-process replay run at the normal
  /// priority afterwards.
  void Run(const std::function<void()>& realtime) {
    Samples setups;
    for (int rep = 0; rep < 3; ++rep) {
      if (server_ != nullptr) server_->Stop();
      server_ = std::make_unique<ServerProcess>();
      const double t0 = NowS();
      if (!Setup(rep)) return;
      setups.Add(NowS() - t0);
    }
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    const int connections = std::max(1, std::min(4, nproc));
    Generator gen(server_->port(), connections, &inputs_);
    if (!gen.ok()) {
      report_->outcomes().Fail("cannot connect to advisor_server");
      return;
    }
    report_->Note("generator: 1 thread, " +
                  std::to_string(gen.connections()) + " connections (nproc " +
                  std::to_string(nproc) + ")");
    std::mt19937_64 rng(args_.seed * 0x9e3779b97f4a7c15ULL + 17);
    // The traced run also walks the rate ladder; the timed run spends
    // all of its time at the reference rate.
    const double reference_s =
        args_.trace ? args_.seconds * kTracedReferenceShare : args_.seconds;

    realtime();
    const std::string before = Stats();
    const double cpu0 = server_->CpuSeconds();
    Phase reference;
    reference.length = reference_s;
    reference.requests =
        MakeSchedule(&rng, kReferenceRps, reference_s, &next_batch_);
    gen.Run(&reference, 10.0);
    const double cpu1 = server_->CpuSeconds();
    const double server_rss_mb = server_->PeakRssMb();
    const std::string after = Stats();
    const double max_rps =
        args_.trace ? Ladder(&gen, &rng, args_.seconds - reference_s) : 0.0;
    sched_param normal{};
    ::pthread_setschedparam(::pthread_self(), SCHED_OTHER, &normal);
    server_->Stop();  // Flushes the journal the service times come from.

    const PhaseStats ref = Summarize(reference);
    Account(ref);
    if (!reference.lag.Valid(kLagLimitMs)) {
      report_->MarkInvalid("generator fell behind: p99 send lateness " +
                           FormatDouble(reference.lag.P99Ms()) + " ms");
    }
    CheckIngestEpochs(reference);
    CheckRecommends(reference);
    const Samples service_s = ServiceTimes(reference);
    if (!args_.trace) {
      EmitEndToEnd(reference, service_s, setups.Median(),
                   (cpu1 - cpu0) * 1e3 / std::max<int64_t>(1, ref.attempted),
                   server_rss_mb);
    } else {
      EmitLayers(reference, ref, before, after, max_rps);
    }
  }

 private:
  /// The pre-fill batches as one INGEST payload: a full window.
  std::string Prefill() const {
    std::string sql;
    for (const std::string& batch : inputs_.prefill) sql += batch;
    return sql;
  }

  bool Setup(int rep) {
    inputs_ = MakeInputs(schema_, args_.seed);
    std::string error;
    const std::string dir = args_.tmp_dir + "/server" + std::to_string(rep);
    journal_ = dir + "/journal";
    if (!server_->Start(args_.server_bin, dir, &error)) {
      report_->outcomes().Fail(error);
      return false;
    }
    auto client = cdpd::AdvisorClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) {
      report_->outcomes().Fail("connect: " + client.status().ToString());
      return false;
    }
    client->set_request_ids_enabled(false);
    epoch_batch_.clear();
    // One INGEST fills the window (epoch 1); the stream's start at 2.
    auto ack = client->Ingest(Prefill());
    if (!ack.ok() || NumberAfter(*ack, "epoch") != 1) {
      report_->outcomes().Fail("prefill: " + (ack.ok() ? *ack
                                              : ack.status().ToString()));
      return false;
    }
    auto warm = client->Recommend("");
    if (!warm.ok()) {
      report_->outcomes().Fail("warm-up: " + warm.status().ToString());
      return false;
    }
    next_batch_ = 0;
    return true;
  }

  std::string Stats() {
    auto client = cdpd::AdvisorClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return "";
    client->set_request_ids_enabled(false);
    auto stats = client->Stats();
    return stats.ok() ? *stats : "";
  }

  void Account(const PhaseStats& s) {
    Outcomes& out = report_->outcomes();
    for (int64_t i = 0; i < s.attempted - s.failed; ++i) out.Ok();
    for (int64_t i = 0; i < s.failed; ++i) {
      out.Fail(i < static_cast<int64_t>(s.reasons.size()) ? s.reasons[i]
                                                           : "request failed");
    }
  }

  /// Every INGEST bumps the window epoch by one: the acks must carry
  /// distinct, contiguous epochs right after the prefill's.
  void CheckIngestEpochs(const Phase& phase) {
    std::vector<uint64_t> epochs;
    for (const Request& r : phase.requests) {
      if (r.op != static_cast<uint8_t>(ServerOp::kIngest) || r.status != 0) {
        continue;
      }
      const auto epoch = static_cast<uint64_t>(NumberAfter(r.body, "epoch"));
      if (NumberAfter(r.body, "accepted") != kBatchStatements) {
        report_->outcomes().Mismatch("INGEST accepted " +
                                     FormatDouble(NumberAfter(r.body,
                                                              "accepted")));
      }
      epochs.push_back(epoch);
      epoch_batch_[epoch] = &inputs_.stream[r.arg];
    }
    std::sort(epochs.begin(), epochs.end());
    for (size_t i = 0; i < epochs.size(); ++i) {
      if (epochs[i] != 2 + i) {
        report_->outcomes().Mismatch("INGEST epochs are not contiguous");
        break;
      }
    }
  }

  /// The schedule core of a RECOMMEND answer without the fields that
  /// name the service's state rather than the answer (epoch, reuse).
  static std::string AnswerCore(const std::string& json) {
    const std::string core = cdpd::DeterministicRecommendCore(json);
    const size_t at = core.find("\"segments\":");
    return at == std::string::npos ? core : core.substr(at);
  }

  /// Sampled RECOMMEND answers against a cold in-process solve: a fresh
  /// 1-thread AdvisorService fed exactly the window of that epoch.
  void CheckRecommends(const Phase& phase) {
    std::vector<const Request*> recommends;
    for (const Request& r : phase.requests) {
      if (r.op == static_cast<uint8_t>(ServerOp::kRecommend) &&
          r.status == 0) {
        recommends.push_back(&r);
      }
    }
    const size_t want = std::min<size_t>(24, recommends.size());
    size_t checked = 0;
    for (size_t i = 0; i < want; ++i) {
      const Request& r = *recommends[i * recommends.size() / want];
      const auto epoch = static_cast<uint64_t>(NumberAfter(r.body, "epoch"));
      if (epoch < 1) continue;
      // Every batch holds 100 statements, so the 10k-statement window
      // at `epoch` is the last kPrefillBatches batches of the prefill
      // followed by the stream batches of epochs 2..epoch.
      const uint64_t streamed = std::min<uint64_t>(epoch - 1, kPrefillBatches);
      std::string window;
      for (size_t b = streamed; b < kPrefillBatches; ++b) {
        window += inputs_.prefill[b];
      }
      bool complete = true;
      for (uint64_t e = epoch - streamed + 1; complete && e <= epoch; ++e) {
        auto it = epoch_batch_.find(e);
        complete = it != epoch_batch_.end();
        if (complete) window += *it->second;
      }
      if (!complete) continue;
      cdpd::ServiceOptions options;
      options.num_threads = 1;
      cdpd::AdvisorService cold(options);
      auto ingested = cold.IngestSql(window);
      auto answer = cold.RecommendNow(cdpd::RecommendRequest{});
      ++checked;
      if (!ingested.ok() || !answer.ok() ||
          AnswerCore(answer->ToJson(cold.schema())) != AnswerCore(r.body)) {
        report_->outcomes().Mismatch("RECOMMEND at epoch " +
                                     std::to_string(epoch) +
                                     " differs from a cold 1-thread solve");
      }
    }
    report_->Note("cold reference: " + std::to_string(checked) +
                  " RECOMMEND answers re-solved in-process, compared");
  }

  /// Binary search over the fixed ladder for the highest rung whose
  /// step meets the SLO: every opcode's p99 (from the due time) within
  /// kSloMs, nothing failed, the backlog at the schedule's end no more
  /// than the SLO's worth of arrivals, and the generator on time.
  double Ladder(Generator* gen, std::mt19937_64* rng, double seconds) {
    int lo = -1, hi = kLadderRungs;
    const int steps = static_cast<int>(std::ceil(std::log2(kLadderRungs + 1)));
    const double step_s = seconds / steps;
    std::string trail;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = LadderRate(mid);
      Phase step;
      step.length = step_s;
      step.requests = MakeSchedule(rng, rate, step_s, &next_batch_);
      gen->Run(&step, 10.0);
      const PhaseStats s = Summarize(step);
      bool pass = s.failed == 0 && step.lag.Valid(kLagLimitMs) &&
                  static_cast<double>(step.backlog_at_end) <=
                      rate * kSloMs / 1e3 + gen->connections();
      for (const auto& [name, op] : s.by_op) {
        if (op.latency_s.Percentile(0.99) * 1e3 > kSloMs) pass = false;
      }
      trail += " " + FormatDouble(std::round(rate)) + (pass ? "+" : "-");
      (pass ? lo : hi) = mid;
      // Let an overloaded server drain before the next step.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    report_->Note("ladder (req/s, + meets SLO):" + trail);
    return lo < 0 ? 0.0 : LadderRate(lo);
  }

  /// Per-request service times (seconds) of the reference phase from
  /// the server's journal: from reading the request frame to writing
  /// the reply, measured by the server itself.
  Samples ServiceTimes(const Phase& reference) {
    Samples out;
    cdpd::JournalReader reader;
    if (!reader.Open(journal_).ok()) {
      report_->outcomes().Mismatch("cannot read the server journal");
      return out;
    }
    const auto begin_us = static_cast<int64_t>(reference.start * 1e6);
    const auto end_us = static_cast<int64_t>(reference.end * 1e6);
    cdpd::JournalRecord record;
    while (reader.Next(&record)) {
      const auto op = static_cast<ServerOp>(record.opcode);
      if (record.mono_us < begin_us || record.mono_us > end_us ||
          (op != ServerOp::kWhatIf && op != ServerOp::kRecommend &&
           op != ServerOp::kIngest)) {
        continue;
      }
      out.Add(static_cast<double>(record.duration_us) / 1e6);
    }
    report_->Note("journal: " + std::to_string(out.count()) +
                  " reference-phase requests recorded of " +
                  std::to_string(reference.requests.size()) + " sent");
    return out;
  }

  /// The gated metrics. The op latency is the server's own time per
  /// request: the client-side latency from the due time (reported per
  /// opcode by the traced run) adds the host's thread wake-up delays,
  /// which on a shared virtual machine move from run to run by more
  /// than any bound the benchmark could hold.
  void EmitEndToEnd(const Phase& reference, const Samples& service_s,
                    double setup_s, double cpu_ms_per_op, double rss_mb) {
    report_->Set("setup_s", setup_s, "s");
    report_->Set("cpu_ms_per_op", cpu_ms_per_op, "ms");
    report_->Set("peak_rss_mb", rss_mb, "MiB");
    report_->SetPercentile("op_p50_ms", service_s, 0.50, 1e3, "ms");
    report_->SetPercentile("op_p90_ms", service_s, 0.90, 1e3, "ms");
    double statements = 0;
    for (const Request& r : reference.requests) {
      if (r.status == 0 && r.op == static_cast<uint8_t>(ServerOp::kIngest)) {
        statements += NumberAfter(r.body, "accepted");
      }
    }
    report_->Set("stmts_per_s",
                 statements / std::max(1e-9, reference.end - reference.start),
                 "stmt/s");
    report_->Note("reference rate " + FormatDouble(kReferenceRps) +
                  " req/s; p99 send lateness " +
                  FormatDouble(reference.lag.P99Ms()) + " ms");
  }

  /// The client-side figures per opcode, timed from each request's due
  /// time, and the ladder's result.
  void EmitRequestKinds(const Phase& reference, const PhaseStats& s,
                        double max_rps) {
    for (const char* op : {"whatif", "recommend", "ingest"}) {
      auto it = s.by_op.find(op);
      const Samples empty;
      const Samples& lat = it == s.by_op.end() ? empty : it->second.latency_s;
      report_->SetPercentile(std::string(op) + "_p50_us", lat, 0.50, 1e6, "us");
      report_->SetPercentile(std::string(op) + "_p99_us", lat, 0.99, 1e6, "us");
    }
    report_->Set("max_rps_at_slo", max_rps, "1/s");
    report_->Note("reference rate " + FormatDouble(kReferenceRps) +
                  " req/s; SLO p99 <= " + FormatDouble(kSloMs) +
                  " ms per opcode; p99 send lateness " +
                  FormatDouble(reference.lag.P99Ms()) + " ms");
  }

  // -------------------------------------------------------------------------
  // Traced run: per-layer metrics.

  struct ReplayResult {
    std::map<std::string, Samples> handle_s;
    Samples all_handle_s;
    Samples ingest_window_us;
    Samples parse_us;
    Samples whatif_build_s;
    Samples prune_us;
    Samples pruned;
    Samples precompute_us;
    double span_covered_s = 0;
    SpanTotals spans;
  };

  /// The reference phase's requests, in send order, through an
  /// in-process AdvisorService::Handle (same options as the server,
  /// window prefilled the same way).
  ReplayResult Replay(const Phase& phase, bool traced) {
    ReplayResult out;
    cdpd::AdvisorService service{cdpd::ServiceOptions{}};
    (void)service.Handle(static_cast<uint8_t>(ServerOp::kIngest), Prefill());
    (void)service.Handle(static_cast<uint8_t>(ServerOp::kRecommend), "");
    std::vector<const Request*> order;
    for (const Request& r : phase.requests) order.push_back(&r);
    std::stable_sort(order.begin(), order.end(),
                     [](const Request* a, const Request* b) {
                       return a->dispatched < b->dispatched;
                     });
    // At most 6000 requests: enough for every op's median, and the
    // replay stays a small share of the run.
    if (order.size() > 6000) order.resize(6000);
    const cdpd::CostModel model(schema_, service.options().rows,
                                service.options().domain_size);
    std::deque<cdpd::BoundStatement> window;
    {
      cdpd::Workload parsed = cdpd::ReadTrace(schema_, Prefill()).value();
      for (auto& st : parsed.statements) window.push_back(std::move(st));
    }
    for (const Request* r : order) {
      std::string_view payload;
      if (r->op == static_cast<uint8_t>(ServerOp::kWhatIf)) {
        payload = inputs_.whatif_specs[r->arg];
      } else if (r->op == static_cast<uint8_t>(ServerOp::kIngest)) {
        payload = inputs_.stream[r->arg];
      }
      std::unique_ptr<cdpd::Tracer> tracer;
      if (traced) tracer = std::make_unique<cdpd::Tracer>();
      cdpd::RequestContext ctx;
      ctx.tracer = tracer.get();
      const double t0 = NowS();
      auto answer = [&] {
        cdpd::TraceSpan span(tracer.get(), "bench.service.handle", "bench");
        return service.Handle(r->op, payload, ctx);
      }();
      const double handle = NowS() - t0;
      if (!answer.ok()) {
        report_->outcomes().Fail(std::string("in-process ") + OpName(r->op) +
                                 ": " + answer.status().ToString());
        continue;
      }
      out.handle_s[OpName(r->op)].Add(handle);
      out.all_handle_s.Add(handle);
      if (traced) {
        const SpanTotals spans =
            CollectSpans(*tracer, "bench.service.handle");
        out.span_covered_s +=
            (spans.Us("request.parse") + spans.Us("request.solve")) / 1e6;
        if (r->op == static_cast<uint8_t>(ServerOp::kRecommend) &&
            spans.Us("whatif.exec_matrix") > 0) {
          out.precompute_us.Add(spans.Us("whatif.exec_matrix") +
                                spans.Us("whatif.trans_matrix"));
        }
        out.spans.Add(spans);
        continue;
      }
      if (r->op != static_cast<uint8_t>(ServerOp::kIngest)) continue;
      // The sql and cost layers of an INGEST, each on its own: the
      // batch parse, and the engine build over the slid window.
      const double p0 = NowS();
      cdpd::Workload parsed = cdpd::ReadTrace(schema_, payload).value();
      const double parse = NowS() - p0;
      out.parse_us.Add(parse * 1e6);
      out.ingest_window_us.Add((handle - parse) * 1e6);
      for (auto& st : parsed.statements) window.push_back(std::move(st));
      while (window.size() > service.options().window_statements) {
        window.pop_front();
      }
      const std::vector<cdpd::BoundStatement> statements(window.begin(),
                                                         window.end());
      const double b0 = NowS();
      cdpd::WhatIfEngine engine(
          &model, statements,
          cdpd::SegmentFixed(statements.size(), service.options().block_size));
      out.whatif_build_s.Add(NowS() - b0);
      // Pruning is off on the serving path (RECOMMEND prune=0); it is
      // probed on the window's own problem.
      cdpd::DesignProblem problem;
      problem.what_if = &engine;
      problem.candidates = CandidateConfigs(service);
      const double q0 = NowS();
      const cdpd::DominanceResult pruned = cdpd::PruneDominatedConfigs(problem);
      out.prune_us.Add((NowS() - q0) * 1e6);
      out.pruned.Add(static_cast<double>(pruned.pruned));
    }
    return out;
  }

  /// RECOMMEND solves in-process at the hardware's thread count, for
  /// comparison with the serial default the server runs at: five
  /// slides of the prefilled window, each followed by a fresh solve.
  void HardwareThreadsRecommends() {
    cdpd::ServiceOptions options;
    options.num_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    cdpd::AdvisorService service(options);
    (void)service.IngestSql(Prefill());
    Samples ms;
    int threads = 0;
    for (size_t i = 0; i < 5; ++i) {
      (void)service.IngestSql(inputs_.stream[i]);
      auto answer = service.RecommendNow(cdpd::RecommendRequest{});
      if (!answer.ok()) continue;
      ms.Add(answer->stats.wall_seconds * 1e3);
      threads = answer->stats.threads_used;
    }
    report_->SetPercentile("core.hw_threads_solve_ms", ms, 0.5, 1.0, "ms");
    report_->Set("core.hw_threads", threads, "count");
  }

  std::vector<cdpd::Configuration> CandidateConfigs(
      const cdpd::AdvisorService& service) const {
    cdpd::ConfigEnumOptions options;
    options.max_indexes_per_config = service.options().max_indexes_per_config;
    options.num_rows = service.options().rows;
    return cdpd::EnumerateConfigurations(
               cdpd::MakePaperCandidateIndexes(schema_), options)
        .value();
  }

  void EmitLayers(const Phase& reference, const PhaseStats& s,
                  const std::string& before, const std::string& after,
                  double max_rps) {
    const ReplayResult plain = Replay(reference, false);
    const ReplayResult traced = Replay(reference, true);
    EmitRequestKinds(reference, s, max_rps);
    HardwareThreadsRecommends();

    report_->SetPercentile("sql.read_trace_ms", plain.parse_us, 0.5, 1e-3, "ms");
    report_->Set("sql.stmts_per_s",
                 plain.parse_us.Sum() > 0
                     ? plain.parse_us.count() * kBatchStatements /
                           (plain.parse_us.Sum() / 1e6)
                     : 0.0,
                 "stmt/s");
    report_->SetPercentile("sql.ingest_parse_us", plain.parse_us, 0.5, 1.0, "us");
    report_->SetPercentile("cost.whatif_build_ms", plain.whatif_build_s, 0.5,
                           1e3, "ms");
    report_->SetPercentile("cost.precompute_ms", traced.precompute_us, 0.5,
                           1e-3, "ms");

    // Solver figures from the RECOMMEND answers the server sent.
    Samples costings, solve_ms, relaxations, chunks, threads;
    double hits = 0, misses = 0, wall_us = 0, cpu_us = 0, relax = 0;
    int64_t recommends = 0, reused = 0;
    for (const Request& r : reference.requests) {
      if (r.op != static_cast<uint8_t>(ServerOp::kRecommend) || r.status != 0) {
        continue;
      }
      ++recommends;
      if (r.body.find("\"reused_resident\":true") != std::string::npos) {
        ++reused;
        continue;
      }
      const size_t at = r.body.find("\"stats\":");
      const std::string stats = at == std::string::npos ? "" : r.body.substr(at);
      costings.Add(NumberAfter(stats, "costings"));
      hits += NumberAfter(stats, "cost_cache_hits");
      misses += NumberAfter(stats, "cost_cache_misses");
      const double wall = NumberAfter(stats, "wall_us");
      solve_ms.Add(wall / 1e3);
      wall_us += wall;
      cpu_us += NumberAfter(stats, "cpu_us");
      relaxations.Add(NumberAfter(stats, "relaxations"));
      relax += NumberAfter(stats, "relaxations");
      chunks.Add(NumberAfter(stats, "segment_chunks"));
      threads.Add(NumberAfter(stats, "threads_used"));
    }
    report_->SetPercentile("cost.costings", costings, 0.5, 1.0, "count");
    report_->Set("cost.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    // Memo hits over the WHATIF probes (2 per segment per WHATIF: the
    // configuration and the initial design), from STATS deltas.
    const double whatifs =
        NumberAfter(after, "server.whatifs") - NumberAfter(before, "server.whatifs");
    const double memo_hits = NumberAfter(after, "whatif.cache_hits") -
                             NumberAfter(before, "whatif.cache_hits");
    const double segments = static_cast<double>(
        cdpd::ServiceOptions{}.window_statements /
        cdpd::ServiceOptions{}.block_size);
    report_->Set("cost.whatif_memo_hit_ratio",
                 whatifs > 0 ? memo_hits / (whatifs * 2 * segments) : 0.0,
                 "ratio");
    report_->Note("whatif memo: " + FormatDouble(memo_hits) +
                  " hits over " + FormatDouble(whatifs * 2 * segments) +
                  " probes (" + FormatDouble(whatifs) + " WHATIFs)");
    report_->SetPercentile("advisor.prune_ms", plain.prune_us, 0.5, 1e-3, "ms");
    report_->SetPercentile("advisor.pruned_configs", plain.pruned, 0.5, 1.0,
                           "count");
    report_->Set("advisor.candidate_configs",
                 static_cast<double>(
                     CandidateConfigs(cdpd::AdvisorService{
                                          cdpd::ServiceOptions{}})
                         .size()),
                 "count");
    report_->SetPercentile("core.solve_ms", solve_ms, 0.5, 1.0, "ms");
    report_->SetPercentile("core.relaxations", relaxations, 0.5, 1.0, "count");
    report_->Set("core.relax_per_s", wall_us > 0 ? relax / (wall_us / 1e6) : 0.0,
                 "1/s");
    report_->SetPercentile("core.segment_chunks", chunks, 0.5, 1.0, "count");
    report_->SetPercentile("core.threads_used", threads, 0.5, 1.0, "count");
    report_->Set("core.solve_cpu_per_wall", wall_us > 0 ? cpu_us / wall_us : 0.0,
                 "ratio");

    for (const char* op : {"whatif", "recommend", "ingest"}) {
      auto it = s.by_op.find(op);
      const double rtt = it == s.by_op.end() ? 0.0 : it->second.rtt_s.Median();
      auto h = plain.handle_s.find(op);
      const double handle = h == plain.handle_s.end() ? 0.0 : h->second.Median();
      report_->Set(std::string("server.rtt_us.") + op, rtt * 1e6, "us");
      report_->Set(std::string("service.handle_us.") + op, handle * 1e6, "us");
      report_->Set(std::string("server.transport_us.") + op,
                   (rtt - handle) * 1e6, "us");
    }
    report_->SetPercentile("service.ingest_window_us", plain.ingest_window_us,
                           0.5, 1.0, "us");
    report_->Set("service.recommend_reused_ratio",
                 recommends > 0 ? static_cast<double>(reused) / recommends : 0.0,
                 "ratio");
    report_->SetPercentile("service.recommend_solve_ms", solve_ms, 0.5, 1.0,
                           "ms");
    RecorderLayer(reference, before, after);
    report_->Set("gen.lag_ms", reference.lag.P99Ms(), "ms");

    const double handle_total = traced.all_handle_s.Sum();
    const double coverage =
        handle_total > 0 ? traced.span_covered_s / handle_total : 0.0;
    report_->Set("layers.coverage", coverage, "ratio");
    report_->Set("layers.remainder_ms",
                 traced.all_handle_s.count() > 0
                     ? (handle_total - traced.span_covered_s) * 1e3 /
                           traced.all_handle_s.count()
                     : 0.0,
                 "ms");
    if (coverage < 0.9) {
      report_->Note("FLAG: request.parse + request.solve cover " +
                    FormatDouble(coverage * 100) +
                    "% of in-process handle time (< 90%)");
    }
    const double untraced_p50 = plain.all_handle_s.Median() * 1e3;
    const double traced_p50 = traced.all_handle_s.Median() * 1e3;
    report_->Set("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    report_->Set("trace.untraced_op_p50_ms", untraced_p50, "ms");
    report_->Set("trace.traced_op_p50_ms", traced_p50, "ms");
    report_->Note("server-side: rtt = transport + handle; handle from the "
                  "same requests replayed through AdvisorService::Handle");
    for (const auto& [name, us] : traced.spans.total_us) {
      char line[160];
      std::snprintf(line, sizeof(line), "span %-28s %10.3f ms total (%lld spans)",
                    name.c_str(), us / 1e3,
                    static_cast<long long>(traced.spans.count.at(name)));
      report_->Note(line);
    }
  }

  /// recorder.append_us: Recorder::Append called directly on the
  /// reference phase's frames; frames_dropped: the server's own
  /// recorder over the same phase (STATS delta), with its base.
  void RecorderLayer(const Phase& reference, const std::string& before,
                     const std::string& after) {
    cdpd::Recorder::Options options;
    options.path = args_.tmp_dir + "/append/journal";
    ::mkdir((args_.tmp_dir + "/append").c_str(), 0755);
    Samples append_us;
    auto recorder = cdpd::Recorder::Open(options, nullptr);
    if (recorder.ok()) {
      for (const Request& r : reference.requests) {
        cdpd::JournalRecord record;
        record.opcode = r.op;
        record.wire_status = r.status;
        record.mono_us = static_cast<int64_t>(r.sent * 1e6);
        record.duration_us = static_cast<int64_t>((r.done - r.sent) * 1e6);
        if (r.op == static_cast<uint8_t>(ServerOp::kWhatIf)) {
          record.payload = inputs_.whatif_specs[r.arg];
        } else if (r.op == static_cast<uint8_t>(ServerOp::kIngest)) {
          record.payload = inputs_.stream[r.arg];
        }
        record.response = r.body;
        const double t0 = NowS();
        (*recorder)->Append(std::move(record));
        append_us.Add((NowS() - t0) * 1e6);
      }
      (*recorder)->Close();
    }
    report_->SetPercentile("recorder.append_us", append_us, 0.5, 1.0, "us");
    const double dropped = NumberAfter(after, "recorder.frames_dropped") -
                           NumberAfter(before, "recorder.frames_dropped");
    const double written = NumberAfter(after, "recorder.frames_written") -
                           NumberAfter(before, "recorder.frames_written");
    report_->Set("recorder.frames_dropped", dropped, "count");
    report_->Set("recorder.frames", dropped + written, "count");
  }

  const RunArgs& args_;
  Report* report_;
  cdpd::Schema schema_;
  Inputs inputs_;
  std::unique_ptr<ServerProcess> server_;
  size_t next_batch_ = 0;
  std::map<uint64_t, const std::string*> epoch_batch_;
  std::string journal_;  // The serving server's --record base path.
};

}  // namespace

void RunServeMixed(const RunArgs& args, Report* report) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  ::signal(SIGPIPE, SIG_IGN);
  // The generator thread must wake on time even while the server keeps
  // every core busy, or its lateness would be the server's CPU load.
  // Real-time priority (where the host allows it) gives it the next
  // free core at once; the server child is forked before this is set
  // and keeps the normal policy.
  ServeMixed(args, report).Run([report] {
    sched_param param{};
    param.sched_priority = 1;
    const bool realtime =
        ::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) == 0;
    report->Note(std::string("generator scheduling: ") +
                 (realtime ? "SCHED_FIFO" : "normal (no SCHED_FIFO)"));
  });
}

}  // namespace perfbench
