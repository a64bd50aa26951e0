// Tests for the TCP front end: many concurrent connections pipelining
// submits/mutations through one epoll loop with streamed completions, the
// wait barrier (results and `done` before any line behind the barrier),
// the auth handshake (bad token drops, good token binds the tenant), the
// overload contract (every job completes or is explicitly rejected — a
// connection never hangs), admission control, the line-length bound, and
// shutdown draining.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "slfe/graph/generators.h"
#include "slfe/net/net_server.h"
#include "slfe/service/job_service.h"

namespace slfe {
namespace {

Graph Rmat(VertexId n, EdgeId m, uint64_t seed) {
  RmatOptions opt;
  opt.num_vertices = n;
  opt.num_edges = m;
  opt.weighted = true;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Deduplicate();
  return Graph::FromEdges(e);
}

/// A blocking protocol client with a recv timeout, so a server bug shows
/// up as a failed read instead of a hung test.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }

  void Send(const std::string& text) {
    size_t off = 0;
    while (off < text.size()) {
      ssize_t n = ::send(fd_, text.data() + off, text.size() - off, 0);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  /// One line without its '\n'; "" once the peer closed (or timed out).
  std::string ReadLine() {
    while (!eof_) {
      size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return line;
      }
      char tmp[4096];
      ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) {
        eof_ = true;
        break;
      }
      buf_.append(tmp, static_cast<size_t>(n));
    }
    return "";
  }

  /// Reads until the peer closes; true when it actually did (not timeout).
  bool ReadToEof() {
    while (!eof_) {
      char tmp[4096];
      ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n == 0) eof_ = true;
      if (n < 0) return false;  // timeout: the server failed to close us
      if (n > 0) buf_.append(tmp, static_cast<size_t>(n));
    }
    return true;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buf_;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(net::NetServerOptions nopt,
                   service::JobServiceOptions sopt) {
    svc_ = std::make_unique<service::JobService>(sopt);
    ASSERT_TRUE(svc_->RegisterGraph("g", Rmat(400, 1600, 7)).ok());
    server_ = std::make_unique<net::NetServer>(*svc_, nopt);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
    serve_thread_ = std::thread([this] { serve_rc_ = server_->Serve(); });
  }

  void StopServer() {
    if (server_ != nullptr) server_->Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  void TearDown() override {
    StopServer();
    if (svc_ != nullptr) svc_->Shutdown();
  }

  service::JobServiceOptions DefaultServiceOptions() {
    service::JobServiceOptions sopt;
    sopt.workers = 4;
    sopt.queue_capacity = 256;
    sopt.job_nodes = 2;
    return sopt;
  }

  std::unique_ptr<service::JobService> svc_;
  std::unique_ptr<net::NetServer> server_;
  std::thread serve_thread_;
  int serve_rc_ = -1;
};

/// What one scripted client observed, collected off-thread and asserted
/// on the main thread (gtest assertions are not thread-safe).
struct ClientRun {
  bool connected = false;
  int queued = 0;
  int jobs = 0;
  int rejects = 0;
  std::set<uint64_t> reqs;     // req= tags on streamed job lines
  int done_at = -1;            // line index of `done req=N`
  int last_job_at = -1;
  int first_stats_at = -1;
  bool clean_eof = false;
};

uint64_t TrailingReq(const std::string& line) {
  size_t pos = line.rfind(" req=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + 5, nullptr, 10);
}

TEST_F(NetServerTest, EightConnectionsPipelineWithInterleavedCompletions) {
  net::NetServerOptions nopt;
  StartServer(nopt, DefaultServiceOptions());
  const uint16_t port = server_->port();

  // Each client pipelines 4 submits + 1 mutation, then wait/stats/quit in
  // one write — nothing blocks on results until the barrier.
  constexpr int kClients = 8;
  constexpr uint64_t kReqs = 5;
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([port, i, &runs] {
      ClientRun& run = runs[i];
      TestClient client(port);
      run.connected = client.connected();
      if (!run.connected) return;
      std::string tenant = "t";
      tenant += std::to_string(i);
      std::string script;
      for (int j = 0; j < 4; ++j) {
        script += "submit " + tenant + " sssp g " + std::to_string(j) + "\n";
      }
      script += "mutate " + tenant + " g ins " + std::to_string(i) + " " +
                std::to_string(i + 1) + " 0.5\n";
      script += "wait\nstats\nquit\n";
      client.Send(script);
      for (int at = 0;; ++at) {
        std::string line = client.ReadLine();
        if (line.empty()) break;
        if (StartsWith(line, "queued req=")) ++run.queued;
        if (StartsWith(line, "job ")) {
          ++run.jobs;
          run.last_job_at = at;
          run.reqs.insert(TrailingReq(line));
        }
        if (StartsWith(line, "reject:")) ++run.rejects;
        if (StartsWith(line, "done req=")) run.done_at = at;
        if (run.first_stats_at < 0 && StartsWith(line, "service:")) {
          run.first_stats_at = at;
        }
      }
      run.clean_eof = client.ReadToEof();
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    const ClientRun& run = runs[i];
    ASSERT_TRUE(run.connected) << "client " << i;
    EXPECT_EQ(run.queued, static_cast<int>(kReqs)) << "client " << i;
    EXPECT_EQ(run.jobs, static_cast<int>(kReqs)) << "client " << i;
    EXPECT_EQ(run.rejects, 0) << "client " << i;
    // Streamed results arrive in completion order but cover exactly this
    // connection's request numbers — nothing lost, nothing duplicated,
    // nothing leaked across connections.
    std::set<uint64_t> want;
    for (uint64_t r = 1; r <= kReqs; ++r) want.insert(r);
    EXPECT_EQ(run.reqs, want) << "client " << i;
    // The wait barrier: every result precedes `done`, and `stats` output
    // (queued behind the barrier) follows it.
    ASSERT_GE(run.done_at, 0) << "client " << i;
    EXPECT_LT(run.last_job_at, run.done_at) << "client " << i;
    EXPECT_GT(run.first_stats_at, run.done_at) << "client " << i;
    EXPECT_TRUE(run.clean_eof) << "client " << i;
  }

  StopServer();
  EXPECT_EQ(serve_rc_, 0);
  service::JobServiceStats stats = svc_->Stats();
  EXPECT_EQ(stats.net.accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.net.closed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.net.dropped, 0u);
  EXPECT_EQ(stats.net.results_streamed, kClients * kReqs);
  EXPECT_EQ(stats.completed, kClients * kReqs);  // mutations ride the queue
  EXPECT_EQ(stats.failed, 0u);
  // Inserting an edge the seeded graph already has is a completed no-op
  // (updates=0), which the mutations counter deliberately excludes — so
  // only a lower bound is stable here.
  EXPECT_GT(stats.mutations, 0u);
}

TEST_F(NetServerTest, CompletionsStreamWithoutWait) {
  net::NetServerOptions nopt;
  StartServer(nopt, DefaultServiceOptions());
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // No `wait` anywhere: results must arrive anyway, pushed as they finish.
  client.Send("submit acme sssp g 0\nsubmit acme bfs g 0\n");
  int queued = 0, jobs = 0;
  while (jobs < 2) {
    std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty()) << "stream stalled";
    if (StartsWith(line, "queued req=")) ++queued;
    if (StartsWith(line, "job ")) ++jobs;
  }
  EXPECT_EQ(queued, 2);
  client.Send("quit\n");
  EXPECT_TRUE(client.ReadToEof());
}

TEST_F(NetServerTest, AuthHandshakeBindsTenantAndDropsBadTokens) {
  net::NetServerOptions nopt;
  nopt.auth_tokens = {{"acme", "sek"}, {"globex", "gsek"}};
  StartServer(nopt, DefaultServiceOptions());
  const uint16_t port = server_->port();

  {  // Good token: bound to acme; other tenants are off limits.
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    client.Send("auth acme sek\n");
    EXPECT_EQ(client.ReadLine(), "ok tenant=acme");
    client.Send("submit globex sssp g 0\n");
    EXPECT_EQ(client.ReadLine(),
              "reject: tenant 'globex' not authorized on this connection");
    client.Send("submit acme sssp g 0\nwait\nquit\n");
    EXPECT_TRUE(StartsWith(client.ReadLine(), "queued req=1 tenant=acme"));
    EXPECT_TRUE(StartsWith(client.ReadLine(), "job "));
    EXPECT_TRUE(client.ReadToEof());
  }
  {  // Wrong token: generic failure (no tenant-existence oracle), dropped.
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    client.Send("auth acme wrong\n");
    EXPECT_EQ(client.ReadLine(), "reject: auth failed");
    EXPECT_TRUE(client.ReadToEof());
  }
  {  // Unknown tenant: byte-identical rejection.
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    client.Send("auth nobody sek\n");
    EXPECT_EQ(client.ReadLine(), "reject: auth failed");
    EXPECT_TRUE(client.ReadToEof());
  }
  {  // No auth at all: first command is refused.
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    client.Send("stats\n");
    EXPECT_EQ(client.ReadLine(), "reject: auth required");
    EXPECT_TRUE(client.ReadToEof());
  }

  StopServer();
  service::JobServiceStats stats = svc_->Stats();
  EXPECT_EQ(stats.net.auth_failures, 3u);
  EXPECT_EQ(stats.net.dropped, 3u);
}

TEST_F(NetServerTest, OverloadEveryJobCompletesOrIsExplicitlyRejected) {
  net::NetServerOptions nopt;
  service::JobServiceOptions sopt = DefaultServiceOptions();
  sopt.workers = 1;
  sopt.queue_capacity = 4;
  StartServer(nopt, sopt);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Far past 2x queue capacity, written in one burst so the dispatch
  // outruns the single worker. The contract under overload: every submit
  // is either served (job line) or explicitly rejected — never dropped,
  // never hung.
  constexpr int kSubmits = 48;
  std::string script;
  for (int i = 0; i < kSubmits; ++i) {
    script += "submit acme sssp g " + std::to_string(i % 64) + "\n";
  }
  script += "wait\nquit\n";
  client.Send(script);

  int queued = 0, jobs = 0, rejects = 0;
  for (;;) {
    std::string line = client.ReadLine();
    if (line.empty()) break;
    if (StartsWith(line, "queued req=")) ++queued;
    if (StartsWith(line, "job ")) ++jobs;
    if (StartsWith(line, "reject:")) ++rejects;
  }
  EXPECT_TRUE(client.ReadToEof());
  EXPECT_EQ(queued + rejects, kSubmits);
  EXPECT_EQ(jobs, queued);  // every accepted job streamed a result
  EXPECT_GT(rejects, 0);    // the burst genuinely overloaded the queue

  StopServer();
  service::JobServiceStats stats = svc_->Stats();
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejects));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(jobs));
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(NetServerTest, AdmissionControlTurnsAwayExcessConnections) {
  net::NetServerOptions nopt;
  nopt.max_connections = 2;
  StartServer(nopt, DefaultServiceOptions());
  const uint16_t port = server_->port();

  TestClient c1(port), c2(port);
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(c2.connected());
  // Prove both are admitted (a round trip each) before the third knocks.
  // The stats block leads with the daemon identity line.
  c1.Send("stats\n");
  EXPECT_TRUE(StartsWith(c1.ReadLine(), "daemon:"));
  c2.Send("stats\n");
  EXPECT_TRUE(StartsWith(c2.ReadLine(), "daemon:"));

  TestClient c3(port);
  ASSERT_TRUE(c3.connected());
  EXPECT_EQ(c3.ReadLine(), "reject: server full");
  EXPECT_TRUE(c3.ReadToEof());

  StopServer();
  EXPECT_EQ(svc_->Stats().net.dropped, 1u);
}

TEST_F(NetServerTest, ParserRejectsTravelTheWire) {
  net::NetServerOptions nopt;
  StartServer(nopt, DefaultServiceOptions());
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // The hardened grammar, exercised through the full transport: the
  // fractional id must reject (never truncate into a valid delete).
  client.Send("mutate acme g del 1.5 2\n");
  EXPECT_EQ(client.ReadLine(), "reject: bad mutate vertex id '1.5'");
  client.Send("submit acme sssp g 4294967296\n");
  EXPECT_EQ(client.ReadLine(), "reject: submit root '4294967296' out of range");
  client.Send("frobnicate\n");
  EXPECT_EQ(client.ReadLine(), "reject: unrecognized line: frobnicate");
  client.Send("quit\n");
  EXPECT_TRUE(client.ReadToEof());

  StopServer();
  EXPECT_EQ(serve_rc_, 1);  // rejected lines are the batch health signal
  EXPECT_EQ(svc_->Stats().mutations, 0u);  // nothing was truncated through
}

TEST_F(NetServerTest, OverlongLineIsRejectedAndDropsTheConnection) {
  net::NetServerOptions nopt;
  StartServer(nopt, DefaultServiceOptions());
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // One byte past the 1 MiB line bound, with no newline anywhere: the
  // server must answer with a terminated reject and close, not buffer
  // without bound. Exactly one byte over, so the server has read all of
  // it when it closes and the close cannot turn into a reset that eats
  // the reject line.
  client.Send(std::string((1 << 20) + 1, 'x'));
  EXPECT_EQ(client.ReadLine(), "reject: line too long");
  EXPECT_TRUE(client.ReadToEof());

  StopServer();
  service::JobServiceStats stats = svc_->Stats();
  EXPECT_EQ(stats.net.accepted, 1u);
  EXPECT_EQ(stats.net.dropped, 1u);
}

TEST_F(NetServerTest, ShutdownCommandDrainsOutstandingJobsFirst) {
  net::NetServerOptions nopt;
  nopt.allow_shutdown = true;
  StartServer(nopt, DefaultServiceOptions());
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  client.Send("submit acme sssp g 0\nsubmit acme bfs g 1\nshutdown\n");
  int jobs = 0;
  bool draining = false;
  for (;;) {
    std::string line = client.ReadLine();
    if (line.empty()) break;
    if (StartsWith(line, "job ")) ++jobs;
    if (line == "shutdown: draining") draining = true;
  }
  EXPECT_TRUE(client.ReadToEof());
  EXPECT_TRUE(draining);
  EXPECT_EQ(jobs, 2);  // both results delivered before the close

  // `shutdown` alone stops Serve() — no Stop() from this side needed.
  serve_thread_.join();
  EXPECT_EQ(serve_rc_, 0);
  EXPECT_EQ(svc_->Stats().failed, 0u);
}

TEST_F(NetServerTest, ShutdownIsRejectedWithoutTheFlag) {
  net::NetServerOptions nopt;
  StartServer(nopt, DefaultServiceOptions());
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("shutdown\n");
  EXPECT_EQ(client.ReadLine(), "reject: shutdown not permitted");
  client.Send("quit\n");
  EXPECT_TRUE(client.ReadToEof());
}

}  // namespace
}  // namespace slfe
