// Tests for the multi-tenant guidance job service: the tenant-fair
// bounded queue (per-tenant lanes, round-robin pop, starvation freedom),
// registry-derived validation (app/engine pairs and graph requirements
// reject at Submit), the shared-provider amortization (N tenants x M jobs
// on K graphs must pay exactly K generations), per-tenant accounting that
// sums to the totals, per-tenant store budgets enforced by the
// maintenance loop, in-flight pinning, and the graceful-shutdown drain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "slfe/api/app_registry.h"
#include "slfe/core/guidance_cache.h"
#include "slfe/graph/generators.h"
#include "slfe/service/job_queue.h"
#include "slfe/service/job_service.h"

namespace slfe::service {
namespace {

// The graph every test registers. Assigning it as a std::string (not a
// literal) also keeps gcc 12 clear of a -Wrestrict false positive.
const std::string kGraph = "g";

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

std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  GuidanceStore wipe(dir);  // create + drop leftovers from previous runs
  wipe.RemoveAll();
  return dir;
}

// ------------------------------------------------------------- JobQueue

TEST(JobQueueTest, BoundedFifoRejectsWhenFull) {
  JobQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush("t", 1));
  EXPECT_TRUE(queue.TryPush("t", 2));
  EXPECT_FALSE(queue.TryPush("t", 3));   // full: reject, never block
  EXPECT_FALSE(queue.TryPush("u", 3));   // capacity bounds the TOTAL
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);  // FIFO within a tenant lane
  EXPECT_TRUE(queue.TryPush("t", 3));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(JobQueueTest, RoundRobinAcrossTenantLanes) {
  // Tenant a floods before b and c enqueue one job each: pops must
  // alternate lanes (a b c a a ...), not drain a's burst first.
  JobQueue<int> queue(16);
  ASSERT_TRUE(queue.TryPush("a", 1));
  ASSERT_TRUE(queue.TryPush("a", 2));
  ASSERT_TRUE(queue.TryPush("a", 3));
  ASSERT_TRUE(queue.TryPush("b", 100));
  ASSERT_TRUE(queue.TryPush("c", 200));
  EXPECT_EQ(queue.active_lanes(), 3u);
  std::vector<int> order;
  int out = 0;
  while (queue.size() > 0) {
    ASSERT_TRUE(queue.Pop(&out));
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 100, 200, 2, 3}));
  EXPECT_EQ(queue.active_lanes(), 0u);  // drained lanes are erased
}

TEST(JobQueueTest, LateTenantIsServedNextNotAfterTheBurst) {
  // b arrives AFTER a's burst is queued; the very next pops still
  // alternate a/b — the head-of-line-blocking regression this queue
  // exists to prevent.
  JobQueue<int> queue(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush("a", i));
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(queue.TryPush("b", 100));
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);  // a's lane was already at the rotation head
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 100);  // b served before a's remaining backlog
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(JobQueueTest, CloseDrainsThenSignalsExit) {
  JobQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush("t", 7));
  ASSERT_TRUE(queue.TryPush("t", 8));
  queue.Close();
  EXPECT_FALSE(queue.TryPush("t", 9));  // no admissions after close
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));  // ...but queued items drain
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));  // closed + empty = consumer exit
}

TEST(JobQueueTest, CloseWakesBlockedConsumer) {
  JobQueue<int> queue(4);
  std::atomic<bool> exited{false};
  std::thread consumer([&] {
    int out;
    while (queue.Pop(&out)) {
    }
    exited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  consumer.join();
  EXPECT_TRUE(exited.load());
}

// ----------------------------------------------------------- JobService

TEST(JobServiceTest, ValidatesRequestsAndCountsRejections) {
  JobService service;
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 5)).ok());
  EXPECT_TRUE(service.HasGraph(kGraph));
  EXPECT_FALSE(service.HasGraph("nope"));
  // Re-registering would swap data under queued jobs.
  EXPECT_EQ(service.RegisterGraph(kGraph, Rmat(100, 700, 6)).code(),
            StatusCode::kFailedPrecondition);

  JobRequest request;
  request.graph = "nope";
  EXPECT_EQ(service.Submit(request).status().code(), StatusCode::kNotFound);
  request.graph = kGraph;
  request.engine = "quantum";
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);
  request.engine = "gas";
  request.app = "mst";  // the registry declares mst on dist only
  Status undeclared = service.Submit(request).status();
  EXPECT_EQ(undeclared.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(undeclared.message().find("dist"), std::string::npos)
      << "rejection should cite the registry's declared engines: "
      << undeclared.ToString();
  request.engine = "dist";
  request.app = "nosuchapp";
  Status unknown = service.Submit(request).status();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("sssp"), std::string::npos)
      << "rejection should list the registered apps: " << unknown.ToString();
  request.app = "sssp";
  request.root = 100000;  // out of range
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.tenants.at("default").jobs_rejected, 5u);
}

// Every (app, engine) pair the registry declares must be submittable and
// run clean through the service — including the pairs no surface exposed
// before the Session facade (gas:wp, ooc:pr, shm:cc, ...).
TEST(JobServiceTest, RunsEveryRegistryDeclaredPair) {
  JobServiceOptions options;
  options.queue_capacity = 128;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2400, 7)).ok());
  std::vector<JobTicket> tickets;
  size_t pairs = 0;
  for (const api::AppDescriptor* app : api::AppRegistry::Global().Apps()) {
    for (api::Engine engine : app->engines()) {
      JobRequest request;
      request.app = app->name;
      request.engine = api::EngineName(engine);
      request.graph = kGraph;
      request.max_iters = 10;
      auto ticket = service.Submit(request);
      ASSERT_TRUE(ticket.ok())
          << request.engine << "/" << request.app << ": "
          << ticket.status().ToString();
      tickets.push_back(std::move(ticket).value());
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 20u);  // 13 apps, several multi-engine
  for (const JobTicket& ticket : tickets) {
    JobResult result = ticket->Wait();
    EXPECT_TRUE(result.status.ok())
        << result.engine << "/" << result.app << ": "
        << result.status.ToString();
    EXPECT_GT(result.supersteps, 0u)
        << result.engine << "/" << result.app;
  }
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, tickets.size());
  EXPECT_EQ(stats.failed, 0u);
}

// The acceptance pairs called out in the ISSUE: ooc:pr and gas:sssp were
// unreachable through any surface before the registry; both must now run
// through the service with sane results.
TEST(JobServiceTest, PreviouslyUnreachablePairsRunViaService) {
  JobService service;
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2400, 7)).ok());

  JobRequest ooc_pr;
  ooc_pr.app = "pr";
  ooc_pr.engine = "ooc";
  ooc_pr.graph = kGraph;
  ooc_pr.max_iters = 15;
  auto ooc_ticket = service.Submit(ooc_pr);
  ASSERT_TRUE(ooc_ticket.ok()) << ooc_ticket.status().ToString();

  JobRequest gas_sssp;
  gas_sssp.app = "sssp";
  gas_sssp.engine = "gas";
  gas_sssp.graph = kGraph;
  auto gas_ticket = service.Submit(gas_sssp);
  ASSERT_TRUE(gas_ticket.ok()) << gas_ticket.status().ToString();

  // Reference runs on the dist engine: cross-engine fixpoints must agree
  // on the summary scalar (reached vertices for sssp).
  JobRequest dist_sssp = gas_sssp;
  dist_sssp.engine = "dist";
  auto dist_ticket = service.Submit(dist_sssp);
  ASSERT_TRUE(dist_ticket.ok());

  JobResult ooc_result = ooc_ticket.value()->Wait();
  EXPECT_TRUE(ooc_result.status.ok()) << ooc_result.status.ToString();
  EXPECT_TRUE(ooc_result.guidance_acquired);
  EXPECT_GT(ooc_result.supersteps, 0u);

  JobResult gas_result = gas_ticket.value()->Wait();
  JobResult dist_result = dist_ticket.value()->Wait();
  EXPECT_TRUE(gas_result.status.ok()) << gas_result.status.ToString();
  EXPECT_TRUE(dist_result.status.ok());
  EXPECT_EQ(gas_result.summary, dist_result.summary)
      << "gas and dist sssp disagree on reached-vertex count";
}

// Graph-requirement checks live in the AppDescriptor and reject at
// Submit: a needs_weights app on a unit-weight graph bounces with a
// registry-derived message instead of burning a worker.
TEST(JobServiceTest, RejectsRequirementViolatingJobsUpFront) {
  JobService service;
  RmatOptions opt;
  opt.num_vertices = 200;
  opt.num_edges = 1500;
  opt.weighted = false;  // unit weights
  opt.seed = 11;
  EdgeList edges = GenerateRmat(opt);
  edges.Deduplicate();
  ASSERT_TRUE(service.RegisterGraph("unweighted",
                                    Graph::FromEdges(edges)).ok());

  JobRequest request;
  request.app = "sssp";
  request.graph = "unweighted";
  Status rejected = service.Submit(request).status();
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("weight"), std::string::npos)
      << rejected.ToString();

  // bfs has no weight requirement: same graph, accepted and clean.
  request.app = "bfs";
  auto ticket = service.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_TRUE(ticket.value()->Wait().status.ok());

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// With auto-symmetrize off, a needs_symmetric app (cc) on a directed
// graph is a Submit-time rejection; with it on (the default), the session
// derives the undirected closure and the job runs.
TEST(JobServiceTest, SymmetryRequirementHonorsAutoSymmetrizeOption) {
  JobRequest request;
  request.app = "cc";
  request.graph = kGraph;

  JobServiceOptions strict;
  strict.auto_symmetrize = false;
  {
    JobService service(strict);
    ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 12)).ok());
    Status rejected = service.Submit(request).status();
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.message().find("symmetric"), std::string::npos)
        << rejected.ToString();
  }
  {
    JobService service;  // default: auto_symmetrize
    ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 12)).ok());
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_TRUE(ticket.value()->Wait().status.ok());
  }
}

// The starvation bar from the ROADMAP's fair-scheduling item: tenant A
// floods the (single-worker) service, tenant B submits a handful of jobs
// afterwards — round-robin popping must interleave B's jobs into A's
// burst instead of making B wait for the whole flood.
TEST(JobServiceTest, FloodingTenantCannotStarveAnotherTenant) {
  constexpr int kFlood = 60;
  constexpr int kVictim = 3;
  JobServiceOptions options;
  options.workers = 1;  // completion order == pop order
  options.queue_capacity = 256;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2400, 13)).ok());

  std::vector<JobTicket> flood_tickets, victim_tickets;
  for (int i = 0; i < kFlood; ++i) {
    JobRequest request;
    request.tenant = "flooder";
    request.app = "pr";
    request.graph = kGraph;
    request.max_iters = 10;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    flood_tickets.push_back(std::move(ticket).value());
  }
  for (int i = 0; i < kVictim; ++i) {
    JobRequest request;
    request.tenant = "victim";
    request.app = "sssp";
    request.graph = kGraph;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    victim_tickets.push_back(std::move(ticket).value());
  }

  uint64_t victim_last = 0;
  for (const JobTicket& ticket : victim_tickets) {
    JobResult result = ticket->Wait();
    ASSERT_TRUE(result.status.ok());
    victim_last = std::max(victim_last, result.sequence);
  }
  size_t flood_after_victim = 0;
  for (const JobTicket& ticket : flood_tickets) {
    JobResult result = ticket->Wait();
    ASSERT_TRUE(result.status.ok());
    if (result.sequence > victim_last) ++flood_after_victim;
  }
  // Round-robin guarantees the victim's 3 jobs complete within ~6 pops
  // of entering the queue; with a 60-job flood, a large share of the
  // flood MUST still be pending when the victim finishes. (A FIFO queue
  // would leave flood_after_victim == 0.)
  EXPECT_GE(flood_after_victim, 10u)
      << "victim tenant waited out the flood (victim_last=" << victim_last
      << ")";
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kFlood + kVictim));
}

TEST(JobServiceTest, BaselineJobsSkipGuidanceEntirely) {
  JobService service;
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 8)).ok());
  JobRequest request;
  request.graph = kGraph;
  request.enable_rr = false;
  auto ticket = service.Submit(request);
  ASSERT_TRUE(ticket.ok());
  JobResult result = ticket.value()->Wait();
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.guidance_acquired);
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.provider.generations, 0u);
  EXPECT_EQ(stats.tenants.at("default").guidance_hits, 0u);
  EXPECT_EQ(stats.tenants.at("default").guidance_misses, 0u);
}

// The tentpole acceptance test: N tenants x M jobs on K graphs, submitted
// from concurrent threads, must coalesce to exactly K generations
// (singleflight + cache inside ONE shared provider), and the per-tenant
// counters must sum to the service totals. It runs with and without a
// persistent store; the store run adds a maintenance timer firing
// mid-batch, so store write-through and concurrent sweeps must not cost
// an extra generation either.
class JobServiceAmortizationTest : public ::testing::TestWithParam<bool> {};

TEST_P(JobServiceAmortizationTest,
       MultiTenantConcurrentJobsAmortizeToOneGenerationPerGraph) {
  constexpr int kTenants = 4;
  constexpr int kJobsPerTenantPerGraph = 3;
  constexpr int kGraphs = 3;

  JobServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  if (GetParam()) {
    options.provider.store_dir = StoreDir("slfe_service_amortize");
    options.maintenance_interval_seconds = 0.02;
  }
  JobService service(options);
  std::vector<std::string> names;
  for (int g = 0; g < kGraphs; ++g) {
    names.push_back("g" + std::to_string(g));
    ASSERT_TRUE(
        service
            .RegisterGraph(names.back(),
                           Rmat(200 + 50 * g, 1500 + 300 * g, 20 + g))
            .ok());
  }

  std::vector<std::vector<JobTicket>> tickets(kTenants);
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerTenantPerGraph; ++j) {
        for (const std::string& name : names) {
          JobRequest request;
          request.tenant = "tenant" + std::to_string(t);
          request.app = "sssp";
          request.graph = name;
          request.root = 0;
          auto ticket = service.Submit(request);
          if (!ticket.ok()) {
            ++failures;
            continue;
          }
          tickets[t].push_back(std::move(ticket).value());
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  ASSERT_EQ(failures.load(), 0);

  size_t total_jobs = 0;
  for (const auto& per_tenant : tickets) {
    for (const JobTicket& ticket : per_tenant) {
      JobResult result = ticket->Wait();
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(result.guidance_acquired);
      ++total_jobs;
    }
  }
  EXPECT_EQ(total_jobs,
            static_cast<size_t>(kTenants * kJobsPerTenantPerGraph * kGraphs));

  JobServiceStats stats = service.Stats();
  // THE amortization claim: one O(|E|) sweep per distinct graph, no
  // matter how many tenants and jobs piled on concurrently.
  EXPECT_EQ(stats.provider.generations, static_cast<uint64_t>(kGraphs));
  EXPECT_EQ(stats.completed, total_jobs);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.submitted, total_jobs);

  uint64_t tenant_jobs = 0, tenant_hits = 0, tenant_misses = 0;
  uint64_t tenant_bytes = 0;
  for (const auto& [name, tenant] : stats.tenants) {
    EXPECT_EQ(tenant.jobs_submitted, tenant.jobs_completed) << name;
    EXPECT_EQ(tenant.jobs_failed, 0u) << name;
    tenant_jobs += tenant.jobs_completed;
    tenant_hits += tenant.guidance_hits;
    tenant_misses += tenant.guidance_misses;
    tenant_bytes += tenant.guidance_bytes;
  }
  EXPECT_EQ(tenant_jobs, stats.completed);
  // Every job acquired guidance; the misses are exactly the generation
  // leaders, everything else rode the cache or a flight.
  EXPECT_EQ(tenant_hits + tenant_misses, total_jobs);
  EXPECT_EQ(tenant_misses, stats.provider.generations);
  EXPECT_GT(tenant_bytes, 0u);

  // A clean drain: Shutdown joins the workers and the maintenance timer
  // with nothing failed or left behind.
  service.Shutdown();
  stats = service.Stats();
  EXPECT_EQ(stats.completed, total_jobs);
  EXPECT_EQ(stats.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(StoreModes, JobServiceAmortizationTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithStore" : "InMemory";
                         });

TEST(JobServiceTest, MaintenanceLoopEnforcesPerTenantBudgets) {
  // Two tenants over their store budgets, one unbudgeted: after the jobs
  // drain, the maintenance loop's sweep must trim alpha to 1 entry and
  // beta to 2 while gamma keeps everything (the ISSUE acceptance bar).
  JobServiceOptions options;
  options.workers = 2;
  options.provider.store_dir = StoreDir("slfe_service_budgets");
  options.tenant_budgets["alpha"] = GuidanceTenantBudget{0, 1};
  options.tenant_budgets["beta"] = GuidanceTenantBudget{0, 2};
  options.maintenance_interval_seconds = 0.005;
  JobService service(options);

  // Distinct graphs -> distinct store entries, attributed per tenant.
  struct TenantGraphs {
    std::string tenant;
    std::vector<std::string> graphs;
  };
  std::vector<TenantGraphs> plan = {
      {"alpha", {"a0", "a1", "a2"}},
      {"beta", {"b0", "b1", "b2"}},
      {"gamma", {"c0", "c1", "c2"}},
  };
  uint64_t seed = 40;
  std::vector<JobTicket> tickets;
  for (const TenantGraphs& tg : plan) {
    for (const std::string& name : tg.graphs) {
      ASSERT_TRUE(service.RegisterGraph(name, Rmat(150, 1000, ++seed)).ok());
      JobRequest request;
      request.tenant = tg.tenant;
      request.app = "sssp";
      request.graph = name;
      auto ticket = service.Submit(request);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(std::move(ticket).value());
    }
  }
  for (const JobTicket& ticket : tickets) {
    ASSERT_TRUE(ticket->Wait().status.ok());
  }

  // All jobs finished -> their graphs are unpinned; the maintenance timer
  // (5ms cadence) must bring both over-budget tenants within budget.
  GuidanceStore* store = service.provider().store();
  ASSERT_NE(store, nullptr);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  GuidanceStoreSweepStats last{};
  while (std::chrono::steady_clock::now() < deadline) {
    last = service.SweepNow();
    if (last.remaining_entries == 1 + 2 + 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(last.remaining_entries, 6u);  // alpha 1 + beta 2 + gamma 3
  JobServiceStats stats = service.Stats();
  EXPECT_GT(stats.maintenance_sweeps, 0u);
  EXPECT_GE(stats.sweep_removed, 3u);  // 2 alpha + 1 beta

  service.Shutdown();
}

TEST(JobServiceTest, MidRunSweepNeverEvictsInFlightGuidance) {
  // Aggressive budgets that would evict EVERYTHING (1 byte global, zero
  // entries for the tenant) plus a fast maintenance timer, while jobs on
  // the pinned graphs are continuously in flight: no job may fail, and
  // after shutdown every pin must be released. The deterministic
  // mechanism (pinned entries spared by every sweep phase) is covered in
  // guidance_store_gc_test; this exercises it end-to-end under load.
  JobServiceOptions options;
  options.workers = 3;
  options.queue_capacity = 256;
  options.provider.store_dir = StoreDir("slfe_service_pins");
  options.provider.store_gc.max_bytes = 1;
  options.tenant_budgets["hammer"] = GuidanceTenantBudget{1, 0};
  options.maintenance_interval_seconds = 0.001;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph("g0", Rmat(200, 1500, 60)).ok());
  ASSERT_TRUE(service.RegisterGraph("g1", Rmat(250, 1800, 61)).ok());

  std::vector<JobTicket> tickets;
  for (int round = 0; round < 10; ++round) {
    for (const char* name : {"g0", "g1"}) {
      JobRequest request;
      request.tenant = "hammer";
      request.app = round % 2 == 0 ? "sssp" : "cc";
      request.graph = name;
      auto ticket = service.Submit(request);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(std::move(ticket).value());
      // A manual sweep racing the in-flight jobs, on top of the timer's.
      service.SweepNow();
    }
  }
  for (const JobTicket& ticket : tickets) {
    JobResult result = ticket->Wait();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  service.Shutdown();

  GuidanceStore* store = service.provider().store();
  ASSERT_NE(store, nullptr);
  // Every submit-time pin was matched by a completion-time unpin.
  EXPECT_EQ(store->pinned_graphs(), 0u);
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, tickets.size());
  // With the budgets this hostile, the final (unpinned) sweep clears the
  // store entirely.
  EXPECT_EQ(store->Sweep().remaining_entries, 0u);
}

TEST(JobServiceTest, GracefulShutdownDrainsAcceptedJobs) {
  JobServiceOptions options;
  options.workers = 1;  // force a backlog
  options.queue_capacity = 64;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2400, 70)).ok());

  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.graph = kGraph;
    request.app = i % 2 == 0 ? "sssp" : "pr";
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  service.Shutdown();  // must drain all 6, not drop them

  for (const JobTicket& ticket : tickets) {
    ASSERT_TRUE(ticket->done());  // Shutdown returned => all complete
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  EXPECT_FALSE(service.accepting());
  JobRequest late;
  late.graph = kGraph;
  EXPECT_EQ(service.Submit(late).status().code(),
            StatusCode::kFailedPrecondition);
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.rejected, 1u);
  service.Shutdown();  // idempotent
}

TEST(JobServiceTest, QueueFullRejectsInsteadOfBlocking) {
  // One worker + capacity 1: burst-submit from the test thread; at least
  // one job must be accepted, and any rejection must be the retryable
  // queue-full status with the submitted/rejected counters consistent.
  JobServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(400, 3200, 80)).ok());

  size_t accepted = 0, rejected = 0;
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 32; ++i) {
    JobRequest request;
    request.graph = kGraph;
    request.app = "pr";
    auto ticket = service.Submit(request);
    if (ticket.ok()) {
      ++accepted;
      tickets.push_back(std::move(ticket).value());
    } else {
      EXPECT_EQ(ticket.status().code(), StatusCode::kFailedPrecondition);
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  for (const JobTicket& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, accepted);
}

// ------------------------------------------------------- graph mutations

TEST(JobServiceMutationTest, MutationJobsRunThroughTheQueueAndCount) {
  JobService service;
  ASSERT_TRUE(
      service.RegisterGraph("c", Graph::FromEdges(GenerateChain(40))).ok());

  // An effective mutation: sever the chain at (19,20).
  MutationRequest mutation;
  mutation.tenant = "t";
  mutation.graph = "c";
  mutation.delta.erase.emplace_back(19, 20);
  auto ticket = service.SubmitMutation(mutation);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  JobResult result = ticket.value()->Wait();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.app, "mutate");
  EXPECT_EQ(result.summary, 2u);  // version now served
  EXPECT_EQ(result.updates, 1u);  // one edge deleted

  // Queries submitted after the mutation see the new topology: bfs from 0
  // on the severed chain tops out at level 19 instead of 39.
  JobRequest query;
  query.tenant = "t";
  query.app = "bfs";
  query.graph = "c";
  auto query_ticket = service.Submit(query);
  ASSERT_TRUE(query_ticket.ok());
  EXPECT_EQ(query_ticket.value()->Wait().summary, 19u);

  // A no-op mutation (the pair is already gone) completes ok but is not
  // an effective mutation: no version bump, no mutations count.
  auto noop_ticket = service.SubmitMutation(mutation);
  ASSERT_TRUE(noop_ticket.ok());
  JobResult noop = noop_ticket.value()->Wait();
  EXPECT_TRUE(noop.status.ok());
  EXPECT_EQ(noop.summary, 2u);  // version unchanged
  EXPECT_EQ(noop.updates, 0u);

  // An invalid delta is accepted at submit and fails at execution.
  MutationRequest bad;
  bad.tenant = "t";
  bad.graph = "c";
  bad.delta.erase.emplace_back(0, 4000);
  auto bad_ticket = service.SubmitMutation(bad);
  ASSERT_TRUE(bad_ticket.ok());
  EXPECT_EQ(bad_ticket.value()->Wait().status.code(),
            StatusCode::kInvalidArgument);

  MutationRequest unknown;
  unknown.graph = "nope";
  EXPECT_EQ(service.SubmitMutation(unknown).status().code(),
            StatusCode::kNotFound);

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.mutations, 1u);  // only the effective one
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.tenants.at("t").mutations, 1u);
  EXPECT_EQ(stats.tenants.at("t").jobs_failed, 1u);
  // Mutations are jobs: 2 ok mutations + 1 query (the failed one counts
  // in jobs_failed only).
  EXPECT_EQ(stats.tenants.at("t").jobs_completed, 3u);
  EXPECT_EQ(service.session().GraphVersions("c").back().version, 2u);
}

TEST(JobServiceMutationTest, QueriesExecuteOnTheirSubmitTimeVersion) {
  // One worker; a slow job occupies it while a mutation AND a query are
  // queued behind it. The query resolved its graph at submit time —
  // before the mutation executed — so it MUST run on version 1 even
  // though version 2 is published by the time the worker reaches it.
  JobServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph("busy", Rmat(1000, 8000, 91)).ok());
  ASSERT_TRUE(
      service.RegisterGraph("c", Graph::FromEdges(GenerateChain(40))).ok());

  JobRequest blocker;
  blocker.tenant = "z";
  blocker.app = "pr";
  blocker.graph = "busy";
  blocker.max_iters = 50;
  auto blocker_ticket = service.Submit(blocker);
  ASSERT_TRUE(blocker_ticket.ok());

  MutationRequest mutation;
  mutation.tenant = "m";
  mutation.graph = "c";
  mutation.delta.erase.emplace_back(19, 20);
  auto mutation_ticket = service.SubmitMutation(mutation);
  ASSERT_TRUE(mutation_ticket.ok());

  JobRequest pinned;
  pinned.tenant = "q";
  pinned.app = "bfs";
  pinned.graph = "c";
  auto pinned_ticket = service.Submit(pinned);  // resolves version 1 NOW
  ASSERT_TRUE(pinned_ticket.ok());

  // Lane rotation pops z, m, q: the mutation completes before the pinned
  // query runs.
  ASSERT_TRUE(blocker_ticket.value()->Wait().status.ok());
  JobResult mutated = mutation_ticket.value()->Wait();
  ASSERT_TRUE(mutated.status.ok());
  EXPECT_EQ(mutated.summary, 2u);
  JobResult pinned_result = pinned_ticket.value()->Wait();
  ASSERT_TRUE(pinned_result.status.ok());
  EXPECT_EQ(pinned_result.summary, 39u)
      << "job submitted against version 1 must run on version 1";

  // A query submitted after the mutation drained sees version 2.
  auto fresh_ticket = service.Submit(pinned);
  ASSERT_TRUE(fresh_ticket.ok());
  EXPECT_EQ(fresh_ticket.value()->Wait().summary, 19u);
}

TEST(JobServiceMutationTest, PostMutationMissesAreServedByRepair) {
  JobServiceOptions options;
  options.workers = 1;
  JobService service(options);
  ASSERT_TRUE(
      service.RegisterGraph("c", Graph::FromEdges(GenerateChain(40))).ok());

  JobRequest query;
  query.tenant = "r";
  query.app = "bfs";
  query.graph = "c";
  auto first = service.Submit(query);
  ASSERT_TRUE(first.ok());
  JobResult generated = first.value()->Wait();
  ASSERT_TRUE(generated.status.ok());
  EXPECT_TRUE(generated.guidance_acquired);
  EXPECT_FALSE(generated.guidance_repaired);

  MutationRequest mutation;
  mutation.tenant = "r";
  mutation.graph = "c";
  mutation.delta.erase.emplace_back(38, 39);
  auto mutated = service.SubmitMutation(mutation);
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(mutated.value()->Wait().status.ok());

  auto second = service.Submit(query);
  ASSERT_TRUE(second.ok());
  JobResult repaired = second.value()->Wait();
  ASSERT_TRUE(repaired.status.ok());
  EXPECT_TRUE(repaired.guidance_acquired);
  EXPECT_TRUE(repaired.guidance_repaired)
      << "the version-2 miss should patch version 1's guidance";
  EXPECT_EQ(repaired.summary, 38u);

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.provider.repairs, 1u);
  EXPECT_EQ(stats.provider.repair_fallbacks, 0u);
  EXPECT_EQ(stats.provider.generations, 1u);
  const TenantStats& tenant = stats.tenants.at("r");
  EXPECT_EQ(tenant.mutations, 1u);
  EXPECT_EQ(tenant.guidance_repaired, 1u);
  EXPECT_EQ(tenant.guidance_misses, 2u);  // both queries missed the cache
  EXPECT_EQ(tenant.guidance_hits, 0u);
}

TEST(JobServiceMutationTest, MutationNeverEvictsTheOldVersionsStoreEntry) {
  // The satellite-4 guarantee: repairing version N+1 must not clobber or
  // invalidate version N's persisted guidance — both fingerprints' store
  // entries coexist (in-flight jobs and the repair lineage still read the
  // old one; GC ages it out later).
  JobServiceOptions options;
  options.workers = 1;
  options.provider.store_dir = StoreDir("slfe_service_versions");
  JobService service(options);
  ASSERT_TRUE(
      service.RegisterGraph("c", Graph::FromEdges(GenerateChain(40))).ok());

  JobRequest query;
  query.tenant = "t";
  query.app = "bfs";
  query.graph = "c";
  ASSERT_TRUE(service.Submit(query).value()->Wait().status.ok());

  MutationRequest mutation;
  mutation.graph = "c";
  mutation.delta.insert.push_back(Edge{0, 20, 1.0f});
  ASSERT_TRUE(service.SubmitMutation(mutation).value()->Wait().status.ok());

  JobResult after = service.Submit(query).value()->Wait();
  ASSERT_TRUE(after.status.ok());
  EXPECT_TRUE(after.guidance_repaired);

  // Both versions' guidance entries are on disk: nothing was invalidated
  // by the mutation, and the default GC policy keeps both.
  GuidanceStoreSweepStats sweep = service.SweepNow();
  EXPECT_EQ(sweep.remaining_entries, 2u)
      << "version 1's entry must survive the mutation and the repair";
}

TEST(JobServiceMutationTest, ConcurrentMutateAndQueryTrafficStaysConsistent) {
  // Query tenants hammer a graph while a mutation tenant rewires it: no
  // job may fail (version pinning shields in-flight queries), and the
  // per-tenant counters must sum to the service totals.
  JobServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2400, 95)).ok());

  constexpr int kQueriesPerTenant = 25;
  constexpr int kMutations = 12;
  std::vector<JobTicket> tickets;
  std::mutex tickets_mu;
  std::atomic<int> failures{0};
  std::vector<std::thread> traffic;
  for (const char* tenant : {"qa", "qb"}) {
    traffic.emplace_back([&, tenant] {
      for (int i = 0; i < kQueriesPerTenant; ++i) {
        JobRequest request;
        request.tenant = tenant;
        request.app = i % 2 == 0 ? "bfs" : "cc";
        request.graph = kGraph;
        request.root = static_cast<VertexId>(i % 200);
        auto ticket = service.Submit(request);
        if (!ticket.ok()) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(tickets_mu);
        tickets.push_back(std::move(ticket).value());
      }
    });
  }
  traffic.emplace_back([&] {
    for (int i = 0; i < kMutations; ++i) {
      MutationRequest request;
      request.tenant = "mut";
      request.graph = kGraph;
      // Alternate inserting an edge and deleting it one step later so
      // versions keep changing.
      if (i % 2 == 0) {
        request.delta.insert.push_back(
            Edge{static_cast<VertexId>(i), static_cast<VertexId>(250 + i),
                 1.0f});
      } else {
        request.delta.erase.emplace_back(static_cast<VertexId>(i - 1),
                                         static_cast<VertexId>(249 + i));
      }
      auto ticket = service.SubmitMutation(request);
      if (!ticket.ok()) {
        ++failures;
        continue;
      }
      std::lock_guard<std::mutex> lock(tickets_mu);
      tickets.push_back(std::move(ticket).value());
    }
  });
  for (std::thread& thread : traffic) thread.join();
  ASSERT_EQ(failures.load(), 0);

  uint64_t effective_mutations = 0;
  for (const JobTicket& ticket : tickets) {
    JobResult result = ticket->Wait();
    EXPECT_TRUE(result.status.ok())
        << result.app << " on " << result.graph << ": "
        << result.status.ToString();
    if (result.app == "mutate" && result.updates > 0) ++effective_mutations;
  }

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, tickets.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.mutations, effective_mutations);
  EXPECT_GT(stats.mutations, 0u);
  uint64_t tenant_jobs = 0, tenant_mutations = 0, tenant_repaired = 0;
  for (const auto& [name, tenant] : stats.tenants) {
    EXPECT_EQ(tenant.jobs_submitted, tenant.jobs_completed) << name;
    tenant_jobs += tenant.jobs_completed;
    tenant_mutations += tenant.mutations;
    tenant_repaired += tenant.guidance_repaired;
  }
  EXPECT_EQ(tenant_jobs, stats.completed);
  EXPECT_EQ(tenant_mutations, stats.mutations);
  EXPECT_EQ(tenant_repaired, stats.provider.repairs);
  // The version chain all those mutations built is fully recorded.
  EXPECT_EQ(service.session().GraphVersions(kGraph).back().version,
            1 + service.session().graphs_mutated());
}

// -------------------------------------------------------- Observability

TEST(JobServiceObservabilityTest, TraceSpansTileTheEndToEndLatency) {
  JobServiceOptions options;
  options.workers = 2;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(300, 2500, 11)).ok());

  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.tenant = "acme";
    request.app = "sssp";
    request.graph = kGraph;
    request.root = 0;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  for (const auto& ticket : tickets) {
    JobResult result = ticket->Wait();
    ASSERT_TRUE(result.status.ok());
    ASSERT_NE(result.trace, nullptr);
    const obs::JobTrace& trace = *result.trace;
    EXPECT_TRUE(trace.completed());
    EXPECT_TRUE(trace.ok());
    double e2e = trace.completed_at();
    ASSERT_GT(e2e, 0.0);
    double queue = trace.SpanSecondsWithPrefix("queue_wait");
    double guidance = trace.SpanSecondsWithPrefix("guidance_acquire");
    double engine = trace.SpanSecondsWithPrefix("engine_execute");
    EXPECT_GT(queue, 0.0);
    EXPECT_GT(engine, 0.0);
    // The instrumented phases tile submit -> completion: their sum must
    // account for (almost) all of the end-to-end latency. The slack
    // covers the un-instrumented glue between pop, run, and completion.
    double sum = queue + guidance + engine;
    EXPECT_LE(sum, e2e * 1.01 + 0.002);
    EXPECT_GE(sum, e2e - 0.050);
  }

  // Every completed job landed in the flight recorder, and the latency
  // histogram's count agrees with the service's completed counter.
  EXPECT_EQ(service.flight_recorder().Recent().size(), tickets.size());
  std::string metrics = service.RenderMetricsText();
  EXPECT_NE(metrics.find("slfe_job_latency_seconds_count 6"),
            std::string::npos);
  EXPECT_NE(metrics.find("slfe_tenant_job_latency_seconds_count"
                         "{tenant=\"acme\"} 6"),
            std::string::npos);
  std::string traces = service.RenderTraceJson("recent");
  EXPECT_NE(traces.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(traces.find("\"engine_execute\""), std::string::npos);
  // Lookup by id returns the single trace; bogus selectors error cleanly.
  std::string by_id = service.RenderTraceJson(
      std::to_string(tickets.front()->Wait().trace->job_id));
  EXPECT_NE(by_id.find("\"spans\""), std::string::npos);
  EXPECT_NE(service.RenderTraceJson("bogus").find("\"error\""),
            std::string::npos);
}

TEST(JobServiceObservabilityTest, TracingDisabledStillFeedsHistograms) {
  JobServiceOptions options;
  options.tracing = false;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 12)).ok());
  JobRequest request;
  request.app = "sssp";
  request.graph = kGraph;
  request.root = 0;
  auto ticket = service.Submit(request);
  ASSERT_TRUE(ticket.ok());
  JobResult result = ticket.value()->Wait();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.trace, nullptr);
  EXPECT_TRUE(service.flight_recorder().Recent().empty());
  // Histograms key off submit timestamps, not traces: still recording.
  std::string metrics = service.RenderMetricsText();
  EXPECT_NE(metrics.find("slfe_job_latency_seconds_count 1"),
            std::string::npos);
}

// --------------------------------------------------------- Demand sketch

TEST(JobServiceSketchTest, StreamsEveryRequestAndRanksHotGraphs) {
  JobService service;
  ASSERT_TRUE(service.RegisterGraph("hotg", Rmat(200, 1500, 31)).ok());
  ASSERT_TRUE(service.RegisterGraph("coldg", Rmat(150, 900, 32)).ok());

  auto run = [&](const std::string& tenant, const std::string& graph) {
    JobRequest request;
    request.tenant = tenant;
    request.app = "sssp";
    request.graph = graph;
    request.root = 0;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(ticket.value()->Wait().status.ok());
  };
  for (int i = 0; i < 5; ++i) run("acme", "hotg");
  for (int i = 0; i < 2; ++i) run("globex", "coldg");

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sketch_observations, 7u);
  EXPECT_EQ(stats.tenants_tracked, 2u);
  EXPECT_EQ(stats.tenants_sketched, 0u);
  EXPECT_GE(service.hotness().EstimateTenant("acme"), 5u);

  // The `hot` surface: ranked, named, counted.
  std::string hot = service.RenderHot(3);
  EXPECT_EQ(hot.find("hot: k=3 observations=7\n"), 0u) << hot;
  size_t first = hot.find("hot 1 graph=hotg");
  size_t second = hot.find("hot 2 graph=coldg");
  ASSERT_NE(first, std::string::npos) << hot;
  ASSERT_NE(second, std::string::npos) << hot;
  EXPECT_LT(first, second);
  EXPECT_NE(hot.find("est=5"), std::string::npos) << hot;

  // A rejected submit still feeds the tenant marginal (fingerprint 0:
  // no graph marginal, so the ranking above is untouched).
  JobRequest bad;
  bad.tenant = "initech";
  bad.graph = "nope";
  EXPECT_FALSE(service.Submit(bad).ok());
  EXPECT_EQ(service.Stats().sketch_observations, 8u);
  EXPECT_GE(service.hotness().EstimateTenant("initech"), 1u);

  // And the registry mirrors it all as metrics.
  std::string metrics = service.RenderMetricsText();
  EXPECT_NE(metrics.find("slfe_sketch_observations_total 8"),
            std::string::npos);
  EXPECT_NE(metrics.find("slfe_hot_graph_estimate{graph=\"hotg\"}"),
            std::string::npos)
      << metrics;
}

TEST(JobServiceSketchTest, TenantCapSplitsExactRowsFromSketchedTail) {
  JobServiceOptions options;
  options.max_tracked_tenants = 2;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph(kGraph, Rmat(200, 1500, 33)).ok());

  const char* kTenants[] = {"t1", "t2", "t3", "t4"};
  for (const char* tenant : kTenants) {
    JobRequest request;
    request.tenant = tenant;
    request.app = "sssp";
    request.graph = kGraph;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(ticket.value()->Wait().status.ok());
  }

  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 4u);
  // First two tenants got exact rows; t3/t4 folded into the tail.
  EXPECT_EQ(stats.tenants_tracked, 2u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants_sketched, 2u);
  EXPECT_EQ(stats.sketched_tail.jobs_submitted, 2u);
  EXPECT_EQ(stats.sketched_tail.jobs_completed, 2u);
  uint64_t row_sum = stats.sketched_tail.jobs_completed;
  for (const auto& [name, t] : stats.tenants) {
    EXPECT_NE(std::string(name), "t3");
    EXPECT_NE(std::string(name), "t4");
    row_sum += t.jobs_completed;
  }
  EXPECT_EQ(row_sum, stats.completed);  // rows + tail still sum to totals
  // The spilled tenants stay readable through the sketch.
  EXPECT_GE(service.hotness().EstimateTenant("t3"), 1u);
  EXPECT_GE(service.hotness().EstimateTenant("t4"), 1u);

  // A tenant that spilled once never flips back to an exact row.
  JobRequest again;
  again.tenant = "t3";
  again.app = "sssp";
  again.graph = kGraph;
  auto ticket = service.Submit(again);
  ASSERT_TRUE(ticket.ok());
  ticket.value()->Wait();
  stats = service.Stats();
  EXPECT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants_sketched, 2u);  // t3 was already counted
  EXPECT_EQ(stats.sketched_tail.jobs_submitted, 3u);
}

TEST(JobServiceSketchTest, HotAdmitThresholdGatesAndPromotesStoreWrites) {
  JobServiceOptions options;
  options.provider.store_dir = StoreDir("slfe_sketch_admit");
  options.hot_admit_threshold = 2;
  JobService service(options);
  ASSERT_TRUE(service.RegisterGraph("hotg", Rmat(200, 1500, 34)).ok());
  ASSERT_TRUE(service.RegisterGraph("oneshot", Rmat(150, 900, 35)).ok());

  auto run = [&](const std::string& graph) {
    JobRequest request;
    request.app = "sssp";
    request.graph = graph;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(ticket.value()->Wait().status.ok());
  };

  // First sight of each graph: estimated demand 1 < threshold 2, so the
  // freshly generated guidance stays memory-only.
  run("hotg");
  run("oneshot");
  JobServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.admission_skips, 2u);
  EXPECT_EQ(stats.cache.admission_promotions, 0u);

  // hotg comes back: demand hits the threshold, and although the job is
  // a pure memory hit (no insert runs), the hit path persists it.
  run("hotg");
  stats = service.Stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.admission_promotions, 1u);
  EXPECT_EQ(stats.cache.admission_skips, 2u);  // oneshot stays cold

  // Promotion happens once; further hits don't re-save.
  run("hotg");
  stats = service.Stats();
  EXPECT_EQ(stats.cache.admission_promotions, 1u);
  EXPECT_EQ(stats.provider.generations, 2u);  // gate never forced a resweep
}

}  // namespace
}  // namespace slfe::service
