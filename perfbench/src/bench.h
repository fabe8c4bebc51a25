// Shared declarations of the repo benchmark's workloads.
//
// Every workload reports every end-to-end metric (kEndToEnd) on an
// untraced run and every per-layer metric (kPerLayer) on a traced run. A
// per-layer metric of a layer the workload never calls reads 0; the map
// in perfbench/README.md says which layers each workload exercises.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "emb/model.h"
#include "repair/pipeline.h"
#include "report.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

// The layers under test, by their module names.
namespace data = exea::data;
namespace emb = exea::emb;
namespace explain = exea::explain;
namespace kg = exea::kg;
namespace la = exea::la;
namespace obs = exea::obs;
namespace repair = exea::repair;
namespace serve = exea::serve;
namespace util = exea::util;
using exea::Rng;
using exea::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
  std::string tree_sha = "unknown";  // hash of the sources built
};

// The seed whose pipeline outputs are pinned (see workload_pipeline.cc).
inline constexpr uint64_t kDefaultSeed = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

// What a workload serves and how it checks the answers. Filled by the
// workload, run by RunServing.
struct ServeSpec {
  // Fixed absolute open-loop rates (requests/s), chosen once from the
  // seed commit's capacity: light ~23 %, heavy ~50 %. A heavy rate of
  // ~75 % overran capacity in some runs of a shared machine and was
  // dropped.
  double light_qps = 0;
  double heavy_qps = 0;
  // Hot swaps in the traced run's in-process replay of the light phase:
  // load_snapshot alternating over these bundle dirs, one every 2 s of
  // its schedule. Empty = no swaps.
  std::vector<std::string> swap_dirs;
  // Whether the mix has explain requests; if so, RunServing fills the
  // explainer's path caches before the load (see FillPathCaches).
  bool explains = true;
  // Shares of --seconds spent in each open-loop phase (light, heavy)
  // and in the closed-loop capacity phase.
  double open_share = 0.15;
  double closed_share = 0.6;
  // Builds the request lines of one phase: `count` requests drawn from
  // the workload's mix with `rng_seed`.
  std::function<std::vector<std::string>(size_t count, uint64_t rng_seed)>
      make_requests;
  // Checks one response against its request; false = wrong answer.
  // Called on the generator thread.
  std::function<bool(const std::string& request, std::string_view response)>
      check;
  // Named after its use in the output.
  std::string check_name;
  // Called after each phase, between servers: the workload's next round
  // of timed set-up (see kSetupRoundSeconds).
  std::function<void()> after_phase;
};

// Runs the serving phases of a workload against `engine` -- warm-up,
// light and heavy open loop, closed-loop capacity, each on its own
// AsyncServer with a fresh registry so its stats are that phase's alone
// -- and records the serving end-to-end and per-layer metrics. Traced
// runs add the in-process HandleLine replay and the serving probes.
void RunServing(const Options& options, const ServeSpec& spec,
                serve::QueryEngine* engine, Report& report, Tracer& tracer);

// Set-up is timed in rounds spread over the run, between the other
// stages, each round repeating it at least kSetupRoundReps times and for
// at least kSetupRoundSeconds; setup_s is the median of every
// repetition. The speed of a shared machine drifts over seconds, so
// repetitions spread over the run give a steadier median than one burst
// at its start.
inline constexpr size_t kSetupRoundReps = 3;
inline constexpr double kSetupRoundSeconds = 1.0;

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> read_s;   // traced runs: ReadSnapshot
  std::vector<double> build_s;  // traced runs: QueryEngine::FromBundle
  bool ok = true;
};

// One round of timed opens: QueryEngine::Open (traced runs: ReadSnapshot
// and FromBundle separately, for serve.setup.read_s / build_s) plus one
// server start, repeated at least `min_reps` times and for at least
// `min_seconds`. Returns the last engine opened; null once an open failed.
std::unique_ptr<serve::QueryEngine> OpenRound(const Options& options,
                                              const std::string& dir,
                                              size_t min_reps,
                                              double min_seconds,
                                              obs::Registry* engine_registry,
                                              SetupTimes* times,
                                              Tracer& tracer);

// Records setup_s (traced runs: serve.setup.read_s / build_s too) as
// medians over every round, and checks that every open succeeded.
void ReportSetup(const SetupTimes& times, const Options& options,
                 Report& report);

// Workload-independent probes of the obs and util layers.
void ProbeObsAndUtil(Report& report, Tracer& tracer);

// la.topk_us / la.scan_gbps and serve.align_resolved_us on the served
// table of `engine`.
void ProbeServedTable(serve::QueryEngine* engine, uint64_t seed,
                      Report& report, Tracer& tracer);

// serve.explain_us.cold / .warm on up to `pairs` served pairs.
void ProbeServedExplain(serve::QueryEngine* engine, size_t pairs,
                        Report& report, Tracer& tracer);

// la.cosine_matrix_s: the test-embedding similarity RankTestEntities
// builds, timed alone.
void ProbeCosineMatrix(const data::EaDataset& dataset,
                       const emb::EAModel& model, Report& report,
                       Tracer& tracer);

// One pass of the paper's offline path on `dataset`: train Dual-AMN,
// rank + greedy-align the test entities, explain + build the ADG of
// every predicted pair at `explain_hops`, and repair with the paper
// defaults (cr1/cr2/cr3). Wall time per stage, plus the outputs the
// checks pin.
struct OfflineRun {
  std::unique_ptr<emb::EAModel> model;
  kg::AlignmentSet aligned;
  repair::RepairReport repair;
  double train_s = 0, rank_s = 0, explain_s = 0, mine_s = 0, run_s = 0;
  double total_s = 0;
  std::vector<double> explain_us;  // per pair: ExeaExplainer::Explain
  std::vector<double> adg_us;      // per pair: BuildAdg
  double matched_triples = 0;      // mean explanation triples per pair
  double confidence_sum = 0;       // sum of ADG confidences
  uint64_t checksum = 0;           // FNV-1a of the repaired pairs' names
};
OfflineRun RunOffline(const data::EaDataset& dataset, int explain_hops,
                      Tracer& tracer);

// Records the per-layer metrics of the median pass and pipeline_s;
// checks that every pass produced the same repaired alignment.
void ReportOffline(const std::vector<OfflineRun>& runs, Report& report);

// The served bundle of an offline pass (what `exea_cli snapshot
// --repair` freezes).
std::unique_ptr<serve::SnapshotBundle> MakeBundle(
    const data::EaDataset& dataset, const OfflineRun& run);

// The serve-mixed request mix over `bundle`'s pairs, with every
// response checked byte for byte against `reference` (an in-process
// Server::HandleLine over its own engine on the same bundle).
ServeSpec MixedSpec(const serve::SnapshotBundle& bundle,
                    serve::QueryEngine* reference, double light_qps,
                    double heavy_qps);

// Workload entry points (workload_*.cc).
void RunServeMixed(const Options& options, Report& report, Tracer& tracer);
void RunServeAlign100k(const Options& options, Report& report,
                       Tracer& tracer);
void RunPipeline(const Options& options, Report& report, Tracer& tracer);

// Records 0 for every per-layer metric not yet measured: the layers this
// workload never calls.
void ZeroUnmeasured(Report& report);

// JSON-escaped request builders shared by the workloads.
std::string AlignRequest(const std::string& entity);
std::string AlignBatchRequest(const std::vector<std::string>& entities);
std::string ExplainRequest(const std::string& source,
                           const std::string& target);
std::string NeighborsRequest(const std::string& entity, int side);
std::string RepairStatusRequest(const std::string& source,
                                const std::string& target);

// The request's op, read from its "op" field ("" if absent).
std::string OpOf(std::string_view request);

// Poisson arrival offsets (ns) for `count` requests at `qps`.
std::vector<int64_t> PoissonOffsets(size_t count, double qps,
                                    uint64_t rng_seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
