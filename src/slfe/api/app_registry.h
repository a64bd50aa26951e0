#ifndef SLFE_API_APP_REGISTRY_H_
#define SLFE_API_APP_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "slfe/apps/app_common.h"
#include "slfe/common/status.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"

namespace slfe::api {

/// The execution back ends an application can declare support for. The
/// registry is the ONE place that maps engine names to engines; every
/// surface (CLI, daemon, line protocol, benches) parses through here.
enum class Engine {
  kDist,  ///< the simulated-cluster SLFE/Gemini engine (apps/ + engine/)
  kShm,   ///< the Ligra-style single-node shared-memory engine (shm/)
  kGas,   ///< the PowerGraph-style GAS comparator (gas/)
  kOoc,   ///< the GraphChi-style out-of-core engine (ooc/)
};

const char* EngineName(Engine engine);
Result<Engine> ParseEngine(const std::string& name);
/// "dist|shm|gas|ooc" — for usage strings.
std::string AllEngineNames();

/// One uniform execution request, the only argument shape any surface
/// needs: which app on which engine over which Session graph, plus the
/// cross-app knobs. App-specific extras (probe counts, damping, ...) have
/// canonical defaults so every declared (app, engine) pair is runnable
/// from every surface with nothing but a name.
struct AppRequest {
  std::string app = "sssp";
  std::string engine = "dist";
  /// Name previously passed to Session::AddGraph.
  std::string graph;
  /// Query root for single-source apps; seed vertex for the synthesized
  /// inputs of heat/bp.
  VertexId root = 0;
  /// Iteration cap for the arithmetic apps.
  uint32_t max_iters = 50;
  /// false = baseline run (no guidance acquisition, no RR).
  bool enable_rr = true;
  bool enable_stealing = true;
  /// Arithmetic convergence threshold (dist engine).
  double epsilon = 1e-9;
  /// App-specific extras (defaults match the app entry points).
  float retweet_probability = 0.5f;  ///< tr
  uint32_t num_probes = 4;           ///< diameter
  float alpha = 0.5f;                ///< heat
  float coupling = 0.2f;             ///< bp
  float damping = 0.5f;              ///< bp
};

/// One uniform execution result: per-vertex values (empty for the
/// scalar-only apps), an app-specific summary scalar with a printable
/// rendering, and the full run accounting.
struct AppOutcome {
  Status status;
  AppRunInfo info;
  /// Per-vertex result values (dist/labels/ranks/... widened to double);
  /// empty for apps whose result is a scalar (tc, mst, diameter).
  std::vector<double> values;
  /// App-specific scalar: reached vertices (sssp/wp), max level (bfs),
  /// distinct components (cc), EC vertices (pr/tr), triangles (tc),
  /// forest edges (mst), diameter bound, finite-value count otherwise.
  uint64_t summary = 0;
  /// Human-readable one-line summary ("reached=184 of 200").
  std::string summary_text;
};

/// Shard files an ooc run splits its graph into.
constexpr uint32_t kOocShards = 4;

/// Everything a runner needs: the resolved graph (already symmetrized if
/// the descriptor requires it), the request, and an AppConfig prefilled
/// with the session's cluster shape, the request knobs, and the session's
/// guidance provider.
struct RunContext {
  const Graph& graph;
  const AppRequest& request;
  AppConfig config;
  /// Scratch directory for engines with on-disk state (ooc shards). The
  /// session guarantees a usable, per-run-unique subpath via OocDir().
  std::string scratch_dir;

  /// A collision-free shard directory for one ooc run.
  std::string OocDir() const;
};

/// Type-erased execution of one (app, engine) pair.
using AppRunner = std::function<AppOutcome(const RunContext&)>;

/// Everything the system knows about one application, declared by the
/// app's own translation unit (self-registration): capability knowledge
/// that used to live in per-surface string switches.
struct AppDescriptor {
  std::string name;
  /// One-line description for --list-apps / help text.
  std::string summary;
  /// Root-set policy its guidance sweeps use.
  GuidanceRootPolicy root_policy = GuidanceRootPolicy::kSourceVertices;
  /// Requires the undirected closure (cc/mst); the Session auto-derives a
  /// symmetrized variant or rejects, per its options.
  bool needs_symmetric = false;
  /// Result is only meaningful with real edge weights (sssp/wp/mst).
  /// Strict sessions (the JobService) reject unit-weight graphs up front.
  bool needs_weights = false;
  /// Takes a query root that must be a valid vertex id.
  bool single_source = false;
  std::map<Engine, AppRunner> runners;

  std::vector<Engine> engines() const;
  bool Supports(Engine engine) const { return runners.count(engine) > 0; }
  /// "dist,gas,shm" — declared engines, registry order.
  std::string EngineList() const;
};

/// The process-wide application catalog. Apps self-register from static
/// initializers in their own .cc files (AppRegistrar below); every surface
/// derives its app/engine validation, dispatch, listing, and help text
/// from this one table, so a new app is submittable from the CLI, the
/// daemon, the line protocol, and the benches the moment its descriptor
/// exists — no per-surface wiring.
class AppRegistry {
 public:
  static AppRegistry& Global();

  /// Rejects duplicate names and descriptors with no runners.
  Status Register(AppDescriptor descriptor);

  /// nullptr when unknown. Pointers are stable for the process lifetime.
  const AppDescriptor* Find(const std::string& name) const;

  /// All descriptors, sorted by name.
  std::vector<const AppDescriptor*> Apps() const;
  std::vector<std::string> AppNames() const;

  /// "bfs|bp|cc|..." — for usage strings.
  std::string UsageList() const;

  /// The canonical --list-apps rendering (one line per app: name,
  /// engines, guidance policy, graph needs, description). Both CLIs print
  /// exactly this, and CI diffs it against docs/APPS.txt, so a
  /// registered-but-unlisted app (or a stale listing) fails the build.
  std::string ListApps() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, AppDescriptor> apps_;
};

/// Static-initializer helper: `AppRegistrar reg(MakeDescriptor());` at the
/// bottom of an app's .cc registers it into AppRegistry::Global(). A bad
/// descriptor (duplicate name, no runners) aborts at startup — a
/// registration bug should never survive to serving traffic.
struct AppRegistrar {
  explicit AppRegistrar(AppDescriptor descriptor);
};

}  // namespace slfe::api

#endif  // SLFE_API_APP_REGISTRY_H_
