// perfbench_layers — the in-process half of perfbench (run.py drives it).
//
//   perfbench_layers reference --graph LJ --scale 4 --nodes 2 < pairs
//     Builds the dataset exactly as the daemon's lazy registration does and
//     prints one JSON line: the graph's fingerprint and size plus, for each
//     input line `<app> <root>` (root -1 = none), the expected summary.
//     Min/max apps run with RR off, so the daemon's guided answer is
//     checked against an unguided one. pr/tr summaries count early-
//     converged vertices, which only exist with RR, so they come from a
//     guided run of the same cluster shape.
//
//   perfbench_layers replay < spec
//     Replays a workload's seeded request sequence (written by run.py)
//     in-process and prints one JSON line of per-layer metrics. It times the
//     public entry point of each layer from outside: MakeDataset +
//     Graph::FromEdges (graph), JobService::Submit and the returned
//     JobResult and trace (service, guidance), Session::RunOn and
//     Session::MutateGraph with the AppOutcome's EngineStats (api, engine),
//     and HotnessTracker::Record (sketch). Guided and unguided runs of
//     every session request are compared; each mismatch is a failure.
//
// Spec lines: `shape <workers> <nodes> <scale>`, `seconds <n>`,
// `graph <name> <fingerprint-hex>`, then protocol lines prefixed by
// `warmup`, `client <k>`, `probe` or `session`.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "slfe/api/session.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/graph.h"
#include "slfe/service/job_service.h"
#include "slfe/service/line_protocol.h"
#include "slfe/sketch/hotness.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_layers: %s\n", msg.c_str());
  std::exit(2);
}

slfe::Graph BuildGraph(const std::string& name, uint32_t scale) {
  slfe::Result<slfe::DatasetSpec> spec = slfe::FindDataset(name);
  if (!spec.ok()) Die(spec.status().ToString());
  return slfe::Graph::FromEdges(slfe::MakeDataset(spec.value(), scale));
}

bool ArithmeticApp(const std::string& app) { return app == "pr" || app == "tr"; }

// Failure accounting mirrored from benchlib.FailureTally.
struct Tally {
  uint64_t attempted = 0;
  std::map<std::string, uint64_t> failures{
      {"job_error", 0}, {"reject", 0}, {"timeout", 0}, {"mismatch", 0}};
  std::vector<std::string> examples;

  void Fail(const std::string& kind, const std::string& detail) {
    ++failures[kind];
    if (examples.size() < 8) examples.push_back(kind + ": " + detail);
  }
};

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    out_ += (out_.empty() ? "{" : ",") + ("\"" + key + "\":") + json;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// ------------------------------------------------------------ reference

int Reference(int argc, char** argv) {
  std::string graph_name;
  uint32_t scale = 4;
  int nodes = 2;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--graph") graph_name = argv[i + 1];
    else if (flag == "--scale") scale = std::atoi(argv[i + 1]);
    else if (flag == "--nodes") nodes = std::atoi(argv[i + 1]);
    else Die("unknown flag " + flag);
  }
  slfe::Graph graph = BuildGraph(graph_name, scale);
  uint64_t fingerprint = graph.fingerprint();
  slfe::VertexId vertices = graph.num_vertices();
  slfe::EdgeId edges = graph.num_edges();

  std::vector<std::pair<std::string, long long>> pairs;
  std::string app;
  long long root = 0;
  while (std::cin >> app >> root) pairs.emplace_back(app, root);

  slfe::api::SessionOptions sopt;
  sopt.num_nodes = nodes;
  slfe::api::Session session(sopt);
  slfe::Status added = session.AddGraph(graph_name, std::move(graph));
  if (!added.ok()) Die(added.ToString());

  // Two runners share the session (Session is thread-safe), each on
  // `nodes` rank threads.
  std::vector<uint64_t> summaries(pairs.size());
  std::vector<std::string> errors(pairs.size());
  auto run_range = [&](size_t begin, size_t step) {
    for (size_t i = begin; i < pairs.size(); i += step) {
      slfe::api::AppRequest req;
      req.app = pairs[i].first;
      req.graph = graph_name;
      if (pairs[i].second >= 0) {
        req.root = static_cast<slfe::VertexId>(pairs[i].second);
      }
      req.enable_rr = ArithmeticApp(req.app);
      slfe::api::AppOutcome out = session.Run(req);
      if (!out.status.ok()) errors[i] = out.status.ToString();
      summaries[i] = out.summary;
    }
  };
  std::thread second(run_range, 1, 2);
  run_range(0, 2);
  second.join();
  for (const std::string& e : errors) {
    if (!e.empty()) Die("reference run failed: " + e);
  }

  std::string list = "[";
  for (size_t i = 0; i < summaries.size(); ++i) {
    list += (i ? "," : "") + std::to_string(summaries[i]);
  }
  JsonObject out;
  out.Str("graph", graph_name);
  out.Str("fingerprint", Hex(fingerprint));
  out.Num("vertices", vertices);
  out.Num("edges", static_cast<double>(edges));
  out.Raw("summaries", list + "]");
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --------------------------------------------------------------- replay

struct Spec {
  size_t workers = 2;
  int nodes = 2;
  uint32_t scale = 4;
  double seconds = 10;
  std::string graph;
  std::string fingerprint;
  std::vector<std::string> warmup, probe, session;
  std::vector<std::vector<std::string>> clients;
};

Spec ReadSpec() {
  Spec spec;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    std::string rest;
    std::getline(in >> std::ws, rest);
    if (kind == "shape") {
      std::istringstream s(rest);
      s >> spec.workers >> spec.nodes >> spec.scale;
    } else if (kind == "seconds") {
      spec.seconds = std::atof(rest.c_str());
    } else if (kind == "graph") {
      std::istringstream s(rest);
      s >> spec.graph >> spec.fingerprint;
    } else if (kind == "warmup") {
      spec.warmup.push_back(rest);
    } else if (kind == "probe") {
      spec.probe.push_back(rest);
    } else if (kind == "session") {
      spec.session.push_back(rest);
    } else if (kind == "client") {
      std::istringstream s(rest);
      size_t k = 0;
      s >> k;
      std::string body;
      std::getline(s >> std::ws, body);
      if (spec.clients.size() <= k) spec.clients.resize(k + 1);
      spec.clients[k].push_back(body);
    } else if (!kind.empty()) {
      Die("bad spec line: " + line);
    }
  }
  if (spec.graph.empty()) Die("spec names no graph");
  return spec;
}

// What the service layer reported for one request.
struct ServiceSample {
  bool mutation = false;
  bool ok = false;
  bool acquired = false;
  bool hit = false;  // cache hit or coalesced onto an in-flight sweep
  bool repaired = false;
  double guidance_s = 0;
  double submit_s = 0;
  double queue_wait_s = 0;
  double busy_s = 0;  // guidance_acquire.* + engine_execute, as one interval
  uint64_t summary = 0;
  std::string tenant, app;
};

// Submits one protocol line and waits for it. The ticket stays alive in
// this frame for as long as the JobResult reference returned by Wait() is
// read: Wait() returns a reference into the handle the ticket owns.
ServiceSample SubmitAndWait(slfe::service::JobService& service,
                            const std::string& line, Tally* tally) {
  ServiceSample s;
  slfe::service::ParsedCommand cmd = slfe::service::ParseCommandLine(line);
  s.mutation = cmd.kind == slfe::service::ParsedCommand::Kind::kMutate;
  if (!s.mutation && cmd.kind != slfe::service::ParsedCommand::Kind::kSubmit) {
    Die("not a submit or mutate line: " + line);
  }
  s.tenant = s.mutation ? cmd.mutate.tenant : cmd.submit.tenant;
  s.app = s.mutation ? "mutate" : cmd.submit.app;
  ++tally->attempted;
  Clock::time_point t0 = Clock::now();
  slfe::Result<slfe::service::JobTicket> submitted =
      s.mutation ? service.SubmitMutation(cmd.mutate)
                 : service.Submit(cmd.submit);
  s.submit_s = SecondsSince(t0);
  if (!submitted.ok()) {
    tally->Fail("reject", submitted.status().ToString());
    return s;
  }
  const slfe::service::JobTicket ticket = std::move(submitted).value();
  const slfe::service::JobResult& r = ticket->Wait();
  s.ok = r.status.ok();
  if (!s.ok) {
    tally->Fail("job_error", line.substr(0, 60) + ": " + r.status.ToString());
    return s;
  }
  s.acquired = r.guidance_acquired;
  s.hit = r.guidance_cache_hit || r.guidance_coalesced;
  s.repaired = r.guidance_repaired;
  s.guidance_s = r.guidance_seconds;
  s.summary = r.summary;
  if (r.trace != nullptr) {
    double lo = 1e300, hi = -1e300;
    for (const slfe::obs::TraceSpan& span : r.trace->Snapshot()) {
      if (span.name == "queue_wait") s.queue_wait_s += span.duration_seconds;
      if (span.name == "engine_execute" ||
          span.name.rfind("guidance_acquire", 0) == 0) {
        lo = std::min(lo, span.start_seconds);
        hi = std::max(hi, span.start_seconds + span.duration_seconds);
      }
    }
    if (hi > lo) s.busy_s = hi - lo;
  }
  return s;
}

// Versions a tenant sees must strictly increase and never repeat.
void CheckVersions(const std::vector<ServiceSample>& samples, Tally* tally) {
  std::set<uint64_t> seen;
  std::map<std::string, uint64_t> last;
  for (const ServiceSample& s : samples) {
    if (!s.mutation || !s.ok) continue;
    if (seen.count(s.summary) || s.summary <= last[s.tenant]) {
      tally->Fail("mismatch", s.tenant + " saw version " +
                                  std::to_string(s.summary));
    }
    seen.insert(s.summary);
    last[s.tenant] = s.summary;
  }
}

struct AppLayer {
  std::vector<double> compute_ms, comm_ms, computations, iterations,
      messages, rr_ratio, overhead_ms;
};

// Compares a guided run with the unguided baseline: exact for min/max
// apps, within the property-sweep tolerance (5e-3) for pr and tr.
bool SameAnswer(const std::string& app, const slfe::api::AppOutcome& guided,
                const slfe::api::AppOutcome& base) {
  if (guided.values.size() != base.values.size()) return false;
  if (!ArithmeticApp(app) && guided.summary != base.summary) return false;
  double tol = ArithmeticApp(app) ? 5e-3 : 0.0;
  for (size_t v = 0; v < guided.values.size(); ++v) {
    double a = guided.values[v], b = base.values[v];
    if (a == b) continue;  // also equal infinities
    if (!(std::fabs(a - b) <= tol)) return false;
  }
  return true;
}

int Replay() {
  Spec spec = ReadSpec();
  Tally tally;
  JsonObject metrics, prov;

  // graph: dataset generation + CSR build, as the daemon registers it.
  std::vector<double> build_s;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    slfe::Graph g = BuildGraph(spec.graph, spec.scale);
    build_s.push_back(SecondsSince(t0));
    fingerprint = g.fingerprint();
  }
  metrics.Num("graph.build_s", Median(build_s));
  ++tally.attempted;
  if (Hex(fingerprint) != spec.fingerprint) {
    tally.Fail("mismatch", "replay graph fp " + Hex(fingerprint) +
                               " != daemon fp " + spec.fingerprint);
  }

  // service + guidance: closed-loop clients against an in-process
  // JobService of the daemon's shape.
  slfe::service::JobServiceOptions sopt;
  sopt.workers = spec.workers;
  sopt.job_nodes = spec.nodes;
  std::vector<ServiceSample> measured, probe;
  double wall = 0;
  slfe::GuidanceProviderStats provider_stats;
  {
    slfe::service::JobService service(sopt);
    slfe::Status reg =
        service.RegisterGraph(spec.graph, BuildGraph(spec.graph, spec.scale));
    if (!reg.ok()) Die(reg.ToString());
    for (const std::string& line : spec.warmup) {
      SubmitAndWait(service, line, &tally);
    }
    std::vector<std::vector<ServiceSample>> per_client(spec.clients.size());
    std::vector<Tally> client_tally(spec.clients.size());
    Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < spec.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        for (const std::string& line : spec.clients[c]) {
          if (SecondsSince(start) >= spec.seconds) break;
          per_client[c].push_back(
              SubmitAndWait(service, line, &client_tally[c]));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall = SecondsSince(start);
    size_t exhausted = 0;
    for (size_t c = 0; c < spec.clients.size(); ++c) {
      exhausted += per_client[c].size() == spec.clients[c].size();
    }
    prov.Num("streams_exhausted", static_cast<double>(exhausted));
    for (size_t c = 0; c < spec.clients.size(); ++c) {
      measured.insert(measured.end(), per_client[c].begin(),
                      per_client[c].end());
      tally.attempted += client_tally[c].attempted;
      for (const auto& [kind, n] : client_tally[c].failures) {
        tally.failures[kind] += n;
      }
      for (const std::string& e : client_tally[c].examples) {
        if (tally.examples.size() < 8) tally.examples.push_back(e);
      }
    }
    for (const std::string& line : spec.probe) {
      probe.push_back(SubmitAndWait(service, line, &tally));
    }
    provider_stats = service.provider().stats();
    service.Shutdown();
  }
  CheckVersions(measured, &tally);
  CheckVersions(probe, &tally);

  std::vector<double> submit_us, queue_ms, gen_ms, hit_us, repair_ms;
  double busy = 0;
  uint64_t acquired = 0, hits = 0, misses = 0, repaired = 0;
  for (const ServiceSample& s : measured) {
    submit_us.push_back(s.submit_s * 1e6);
    if (!s.ok) continue;
    queue_ms.push_back(s.queue_wait_s * 1e3);
    busy += s.busy_s;
    if (s.acquired) {
      ++acquired;
      hits += s.hit;
    }
  }
  for (const auto* set : {&measured, &probe}) {
    for (const ServiceSample& s : *set) {
      if (!s.ok || !s.acquired) continue;
      if (s.hit) {
        hit_us.push_back(s.guidance_s * 1e6);
        continue;
      }
      ++misses;
      gen_ms.push_back(s.guidance_s * 1e3);
      if (s.repaired) {
        ++repaired;
        repair_ms.push_back(s.guidance_s * 1e3);
      }
    }
  }
  metrics.Num("guidance.hit_ratio",
              acquired ? static_cast<double>(hits) / acquired : 0);
  metrics.Num("guidance.generate_ms", Median(gen_ms));
  metrics.Num("guidance.hit_us", Median(hit_us));
  metrics.Num("guidance.repair_ratio",
              misses ? static_cast<double>(repaired) / misses : 0);
  metrics.Num("guidance.repair_ms", Median(repair_ms));
  metrics.Num("service.submit_us", Median(submit_us));
  metrics.Num("service.queue_wait_ms", Median(queue_ms));
  metrics.Num("service.busy_frac",
              wall > 0 ? busy / (static_cast<double>(spec.workers) * wall) : 0);
  prov.Num("service_requests", static_cast<double>(measured.size()));
  prov.Num("service_wall_s", wall);
  prov.Num("service_jobs_per_s", measured.size() / std::max(wall, 1e-9));
  prov.Num("guidance_acquired", static_cast<double>(acquired));
  prov.Num("guidance_misses_incl_probe", static_cast<double>(misses));
  prov.Num("provider_generations",
           static_cast<double>(provider_stats.generations));
  prov.Num("provider_repairs", static_cast<double>(provider_stats.repairs));
  prov.Num("provider_repair_fallbacks",
           static_cast<double>(provider_stats.repair_fallbacks));

  // sketch: the measured request stream through a fresh tracker, repeated
  // until enough records are timed.
  {
    slfe::HotnessTracker tracker;
    const size_t want = 200000;
    size_t recorded = 0;
    Clock::time_point t0 = Clock::now();
    while (!measured.empty() && recorded < want) {
      for (const ServiceSample& s : measured) {
        tracker.Record(s.tenant, fingerprint, s.app);
      }
      recorded += measured.size();
    }
    double secs = SecondsSince(t0);
    metrics.Num("sketch.record_ns", recorded ? secs * 1e9 / recorded : 0);
  }

  // api + engine: the session head of the sequence plus per-app and
  // mutation probes, each query guided then unguided on the same version.
  std::map<std::string, AppLayer> layers;
  std::vector<double> mutate_ms;
  double computations = 0, compute_s = 0;
  {
    slfe::api::SessionOptions opt;
    opt.num_nodes = spec.nodes;
    slfe::api::Session session(opt);
    slfe::Status added =
        session.AddGraph(spec.graph, BuildGraph(spec.graph, spec.scale));
    if (!added.ok()) Die(added.ToString());
    uint64_t last_version = 1;
    for (const std::string& line : spec.session) {
      slfe::service::ParsedCommand cmd = slfe::service::ParseCommandLine(line);
      ++tally.attempted;
      if (cmd.kind == slfe::service::ParsedCommand::Kind::kMutate) {
        Clock::time_point t0 = Clock::now();
        slfe::Result<slfe::api::GraphMutationResult> r =
            session.MutateGraph(spec.graph, cmd.mutate.delta);
        mutate_ms.push_back(SecondsSince(t0) * 1e3);
        if (!r.ok()) {
          tally.Fail("job_error", r.status().ToString());
        } else if (r.value().version <= last_version) {
          tally.Fail("mismatch", "session version did not advance");
        } else {
          last_version = r.value().version;
        }
        continue;
      }
      slfe::api::AppRequest req;
      req.app = cmd.submit.app;
      req.graph = spec.graph;
      req.root = cmd.submit.root;
      slfe::Result<std::shared_ptr<const slfe::Graph>> g =
          session.ResolveGraph(req);
      if (!g.ok()) Die(g.status().ToString());
      Clock::time_point t0 = Clock::now();
      slfe::api::AppOutcome run = session.RunOn(req, g.value());
      double run_s = SecondsSince(t0);
      slfe::api::AppRequest base_req = req;
      base_req.enable_rr = false;
      slfe::api::AppOutcome base = session.RunOn(base_req, g.value());
      if (!run.status.ok() || !base.status.ok()) {
        tally.Fail("job_error", line + ": " + run.status.ToString() + " / " +
                                    base.status.ToString());
        continue;
      }
      if (!SameAnswer(req.app, run, base)) {
        tally.Fail("mismatch", line + ": guided != unguided");
      }
      const slfe::EngineStats& st = run.info.stats;
      AppLayer& l = layers[req.app];
      l.compute_ms.push_back((st.pull_seconds + st.push_seconds) * 1e3);
      l.comm_ms.push_back(st.comm_seconds * 1e3);
      l.computations.push_back(static_cast<double>(st.computations));
      l.iterations.push_back(static_cast<double>(st.iterations));
      l.messages.push_back(static_cast<double>(st.messages));
      l.rr_ratio.push_back(
          base.info.stats.computations
              ? static_cast<double>(st.computations) /
                    base.info.stats.computations
              : 1.0);
      l.overhead_ms.push_back(
          (run_s - run.info.guidance_seconds - st.RuntimeSeconds()) * 1e3);
      computations += static_cast<double>(st.computations);
      compute_s += st.pull_seconds + st.push_seconds;
    }
  }
  metrics.Num("graph.mutate_ms", Median(mutate_ms));
  metrics.Num("engine.computations_per_s",
              compute_s > 0 ? computations / compute_s : 0);
  for (const auto& [app, l] : layers) {
    metrics.Num("engine.compute_ms." + app, Median(l.compute_ms));
    metrics.Num("engine.comm_ms." + app, Median(l.comm_ms));
    metrics.Num("engine.computations." + app, Median(l.computations));
    metrics.Num("engine.iterations." + app, Median(l.iterations));
    metrics.Num("engine.messages." + app, Median(l.messages));
    metrics.Num("engine.rr_work_ratio." + app, Median(l.rr_ratio));
    metrics.Num("api.overhead_ms." + app, Median(l.overhead_ms));
    prov.Num("session_runs." + app, static_cast<double>(l.compute_ms.size()));
  }
  prov.Num("session_mutations", static_cast<double>(mutate_ms.size()));

  std::string failures = "{", examples = "[";
  for (const auto& [kind, n] : tally.failures) {
    failures += (failures.size() > 1 ? ",\"" : "\"") + kind +
                "\":" + std::to_string(n);
  }
  for (size_t i = 0; i < tally.examples.size(); ++i) {
    std::string e = tally.examples[i];
    std::replace(e.begin(), e.end(), '"', '\'');
    examples += (i ? ",\"" : "\"") + e + "\"";
  }
  JsonObject out;
  out.Raw("metrics", metrics.Done());
  out.Num("attempted", static_cast<double>(tally.attempted));
  out.Raw("failures", failures + "}");
  out.Raw("examples", examples + "]");
  out.Raw("provenance", prov.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "reference") return Reference(argc, argv);
  if (mode == "replay") return Replay();
  std::fprintf(stderr, "usage: perfbench_layers reference|replay\n");
  return 2;
}
