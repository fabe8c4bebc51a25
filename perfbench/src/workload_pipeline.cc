// The `pipeline` workload: the paper's offline path (train -> rank ->
// explain -> repair) on a seeded 4000-entity ZH-EN-shaped dataset,
// repeated for most of the measuring time, then its repaired output is
// served for a short open-/closed-loop phase (so that every end-to-end
// metric is measured on every workload).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.h"
#include "data/benchmarks.h"
#include "data/synthetic.h"
#include "emb/inference.h"
#include "explain/exea.h"
#include "la/similarity.h"

namespace perfbench {
namespace {

constexpr size_t kPipelineEntities = 4000;
constexpr int kPipelineHops = 2;  // Table II / Fig. 4 "-2"
constexpr double kPipelineShare = 0.7;  // of --seconds; the rest serves
constexpr double kPipelineLightQps = 2000;
constexpr double kPipelineHeavyQps = 4500;

// Outputs pinned on the default seed (kDefaultSeed). A change that moves
// any of them changes the paper pipeline's results, not just its speed.
constexpr double kPinnedBaseAccuracy = 0.59142857142857141;
constexpr double kPinnedRepairedAccuracy = 0.9425;
constexpr uint64_t kPinnedChecksum = 0x7dcae092ce7a9155ULL;
constexpr double kPinnedConfidenceSum = 2184.4492746663218;

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

}  // namespace

OfflineRun RunOffline(const data::EaDataset& dataset, int explain_hops,
                      Tracer& tracer) {
  OfflineRun run;
  ScopedSpan pass(&tracer, "pipeline.pass");
  int64_t pass_start = NowNs();

  int64_t start = NowNs();
  {
    ScopedSpan span(&tracer, "emb.EAModel::Train", pass.id());
    run.model = emb::MakeDefaultModel(emb::ModelKind::kDualAmn);
    run.model->Train(dataset);
  }
  run.train_s = SecondsSince(start);

  start = NowNs();
  std::optional<emb::RankedSimilarity> ranked;
  {
    ScopedSpan span(&tracer, "eval.RankTestEntities+GreedyAlign", pass.id());
    ranked.emplace(emb::RankTestEntities(*run.model, dataset));
    run.aligned = emb::GreedyAlign(*ranked);
  }
  run.rank_s = SecondsSince(start);

  start = NowNs();
  {
    ScopedSpan span(&tracer, "explain.all_pairs", pass.id());
    explain::ExeaConfig config;
    config.hops = explain_hops;
    explain::ExeaExplainer explainer(dataset, *run.model, config);
    explain::AlignmentContext context(&run.aligned, &dataset.train);
    size_t triples = 0;
    for (const kg::AlignedPair& pair : run.aligned.SortedPairs()) {
      int64_t t0 = NowNs();
      explain::Explanation e = explainer.Explain(pair.source, pair.target,
                                                 context);
      int64_t t1 = NowNs();
      explain::Adg adg = explainer.BuildAdg(e);
      int64_t t2 = NowNs();
      tracer.Record("explain.ExeaExplainer::Explain", span.id(), 0, t0, t1);
      tracer.Record("explain.BuildAdg", span.id(), 0, t1, t2);
      run.explain_us.push_back((t1 - t0) / 1e3);
      run.adg_us.push_back((t2 - t1) / 1e3);
      triples += e.TripleCount();
      run.confidence_sum += adg.confidence;
    }
    run.matched_triples =
        run.aligned.empty() ? 0.0
                            : static_cast<double>(triples) /
                                  static_cast<double>(run.aligned.size());
  }
  run.explain_s = SecondsSince(start);

  {
    // The repair pipeline runs at the paper's (and the server's) default
    // explanation settings, as `exea_cli snapshot --repair` does.
    explain::ExeaExplainer explainer(dataset, *run.model,
                                     explain::ExeaConfig{});
    start = NowNs();
    std::optional<repair::RepairPipeline> pipeline;
    {
      ScopedSpan span(&tracer, "repair.RepairPipeline(mine cr1)", pass.id());
      pipeline.emplace(explainer, repair::RepairOptions{});
    }
    run.mine_s = SecondsSince(start);
    start = NowNs();
    {
      ScopedSpan span(&tracer, "repair.RepairPipeline::Run", pass.id());
      run.repair = pipeline->Run(run.aligned, *ranked);
    }
    run.run_s = SecondsSince(start);
  }
  run.total_s = SecondsSince(pass_start);

  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const kg::AlignedPair& pair :
       run.repair.repaired_alignment.SortedPairs()) {
    hash = Fnv1a(hash, dataset.kg1.EntityName(pair.source) + "\t" +
                           dataset.kg2.EntityName(pair.target) + "\n");
  }
  run.checksum = hash;
  return run;
}

void ReportOffline(const std::vector<OfflineRun>& runs, Report& report) {
  auto median_of = [&](double OfflineRun::*field) {
    std::vector<double> values;
    for (const OfflineRun& run : runs) values.push_back(run.*field);
    return Median(values);
  };
  report.Metric("pipeline_s", median_of(&OfflineRun::total_s), "s");
  std::printf("offline passes (s):");
  for (const OfflineRun& run : runs) std::printf(" %.4f", run.total_s);
  std::printf("\n");
  report.Metric("emb.train_s", median_of(&OfflineRun::train_s), "s");
  report.Metric("eval.rank_s", median_of(&OfflineRun::rank_s), "s");
  report.Metric("repair.mine_s", median_of(&OfflineRun::mine_s), "s");
  report.Metric("repair.run_s", median_of(&OfflineRun::run_s), "s");
  std::vector<double> explain_us;
  std::vector<double> adg_us;
  std::vector<double> residual;
  for (const OfflineRun& run : runs) {
    explain_us.insert(explain_us.end(), run.explain_us.begin(),
                      run.explain_us.end());
    adg_us.insert(adg_us.end(), run.adg_us.begin(), run.adg_us.end());
    double stages =
        run.train_s + run.rank_s + run.explain_s + run.mine_s + run.run_s;
    residual.push_back((run.total_s - stages) / run.total_s);
  }
  report.Metric("explain.explain_us.p50", Quantile(explain_us, 0.5), "us");
  report.Metric("explain.explain_us.p99", Quantile(explain_us, 0.99), "us");
  report.Metric("explain.adg_us.p50", Quantile(adg_us, 0.5), "us");
  // Share of pipeline_s that the five timed stages do not cover.
  report.Metric("recon.pipeline_residual_frac", Median(residual), "fraction");

  const OfflineRun& first = runs.front();
  report.Metric("explain.matched_triples", first.matched_triples, "count");
  report.Metric("repair.cr1_prunes",
                static_cast<double>(first.repair.relation_conflict_prunes),
                "count");
  report.Metric("repair.cr2_conflicts",
                static_cast<double>(first.repair.one_to_many_conflicts),
                "count");
  report.Metric("repair.cr3_removed",
                static_cast<double>(first.repair.low_confidence_removed),
                "count");

  bool same = true;
  for (const OfflineRun& run : runs) {
    same = same && run.checksum == first.checksum &&
           run.confidence_sum == first.confidence_sum;
  }
  report.Check(same, "every offline pass produced the same repaired "
                     "alignment and confidences (" +
                         std::to_string(runs.size()) + " passes)");
  report.Check(first.repair.repaired_alignment.IsOneToOne(),
               "the repaired alignment is one-to-one");
}

void ProbeCosineMatrix(const data::EaDataset& dataset,
                       const emb::EAModel& model, Report& report,
                       Tracer& tracer) {
  const la::Matrix& e1 = model.EntityEmbeddings(kg::KgSide::kSource);
  const la::Matrix& e2 = model.EntityEmbeddings(kg::KgSide::kTarget);
  la::Matrix src(dataset.test.size(), e1.cols());
  la::Matrix tgt(dataset.test.size(), e2.cols());
  for (size_t i = 0; i < dataset.test.size(); ++i) {
    std::copy(e1.Row(dataset.test[i].source),
              e1.Row(dataset.test[i].source) + e1.cols(), src.Row(i));
    std::copy(e2.Row(dataset.test[i].target),
              e2.Row(dataset.test[i].target) + e2.cols(), tgt.Row(i));
  }
  ScopedSpan span(&tracer, "la.CosineSimilarityMatrix");
  int64_t start = NowNs();
  la::Matrix sim = la::CosineSimilarityMatrix(src, tgt);
  report.Metric("la.cosine_matrix_s", SecondsSince(start), "s");
}

std::unique_ptr<serve::SnapshotBundle> MakeBundle(
    const data::EaDataset& dataset, const OfflineRun& run) {
  auto bundle = std::make_unique<serve::SnapshotBundle>();
  bundle->meta.model_name = run.model->name();
  bundle->meta.dataset_name = dataset.name;
  bundle->meta.inference = "greedy";
  bundle->meta.has_relation_embeddings = run.model->HasRelationEmbeddings();
  bundle->meta.has_repair = true;
  bundle->emb1 = run.model->EntityEmbeddings(kg::KgSide::kSource);
  bundle->emb2 = run.model->EntityEmbeddings(kg::KgSide::kTarget);
  if (bundle->meta.has_relation_embeddings) {
    bundle->rel1 = run.model->RelationEmbeddings(kg::KgSide::kSource);
    bundle->rel2 = run.model->RelationEmbeddings(kg::KgSide::kTarget);
  }
  bundle->alignment = run.aligned;
  bundle->repaired = run.repair.repaired_alignment;
  bundle->dataset = dataset;
  return bundle;
}

void RunPipeline(const Options& options, Report& report, Tracer& tracer) {
  data::SyntheticOptions synthetic =
      data::BenchmarkOptions(data::Benchmark::kZhEn, data::Scale::kMedium);
  synthetic.num_entities = kPipelineEntities;
  synthetic.seed = options.seed;

  // Set-up is dataset generation, timed in a round before the first pass
  // and after every pass and serving phase (see kSetupRoundSeconds);
  // setup_s is the median generation. Everything uses the first dataset.
  std::vector<double> generate_s;
  auto generate_round = [&] {
    data::EaDataset generated;
    int64_t round_stop =
        NowNs() + static_cast<int64_t>(kSetupRoundSeconds * 1e9);
    for (size_t rep = 0; rep < kSetupRoundReps || NowNs() < round_stop;
         ++rep) {
      ScopedSpan span(&tracer, "data.GenerateDataset");
      int64_t start = NowNs();
      generated = data::GenerateDataset(synthetic);
      generate_s.push_back(SecondsSince(start));
    }
    return generated;
  };
  const data::EaDataset dataset = generate_round();

  std::vector<OfflineRun> runs;
  int64_t stop = NowNs() + static_cast<int64_t>(options.seconds *
                                                kPipelineShare * 1e9);
  while (runs.empty() || NowNs() < stop) {
    runs.push_back(RunOffline(dataset, kPipelineHops, tracer));
    generate_round();
    if (runs.size() > 1) runs[runs.size() - 2].model.reset();  // keep last
    std::printf("pipeline pass %zu: %.3f s (train %.3f, rank %.3f, explain "
                "%.3f, mine %.3f, repair %.3f)\n",
                runs.size(), runs.back().total_s, runs.back().train_s,
                runs.back().rank_s, runs.back().explain_s,
                runs.back().mine_s, runs.back().run_s);
  }
  ReportOffline(runs, report);
  const OfflineRun& last = runs.back();

  if (options.trace) ProbeCosineMatrix(dataset, *last.model, report, tracer);

  // Output checks: pinned values on the default seed, and the same
  // outputs from every run of this seed on the same sources, traced or
  // not.
  const repair::RepairReport& rr = last.repair;
  std::printf("pipeline outputs: base accuracy %.17g, repaired accuracy "
              "%.17g, checksum %016llx, confidence sum %.17g\n",
              rr.base_accuracy, rr.repaired_accuracy,
              static_cast<unsigned long long>(last.checksum),
              last.confidence_sum);
  if (options.seed == kDefaultSeed) {
    report.Check(rr.base_accuracy == kPinnedBaseAccuracy &&
                     rr.repaired_accuracy == kPinnedRepairedAccuracy &&
                     last.checksum == kPinnedChecksum &&
                     last.confidence_sum == kPinnedConfidenceSum,
                 "pipeline outputs equal the values pinned for the default "
                 "seed");
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%.17g %.17g %016llx %.17g",
                rr.base_accuracy, rr.repaired_accuracy,
                static_cast<unsigned long long>(last.checksum),
                last.confidence_sum);
  std::string path = options.workdir + "/pipeline-seed" +
                     std::to_string(options.seed) + "-" + options.tree_sha +
                     ".outputs";
  std::string previous;
  if (std::getline(std::ifstream(path) >> std::ws, previous)) {
    report.Check(previous == line, "outputs equal the previous run of this "
                                   "seed on these sources (" + previous +
                                   ")");
  } else {
    std::ofstream(path) << line << "\n";
  }

  // Serve what the pipeline produced.
  std::unique_ptr<serve::SnapshotBundle> bundle = MakeBundle(dataset, last);
  obs::Registry engine_registry;
  obs::Registry reference_registry;
  serve::EngineOptions engine_options;
  engine_options.registry = &engine_registry;
  std::unique_ptr<serve::QueryEngine> engine = serve::QueryEngine::FromBundle(
      std::make_unique<serve::SnapshotBundle>(*bundle), engine_options);
  engine_options.registry = &reference_registry;
  std::unique_ptr<serve::QueryEngine> reference =
      serve::QueryEngine::FromBundle(std::move(bundle), engine_options);
  ServeSpec spec = MixedSpec(reference->AcquireState()->bundle(),
                             reference.get(), kPipelineLightQps,
                             kPipelineHeavyQps);
  spec.open_share = 0.03;
  spec.closed_share = 0.4;
  spec.after_phase = [&] { generate_round(); };
  RunServing(options, spec, engine.get(), report, tracer);
  report.Metric("setup_s", Median(generate_s), "s");
  report.Metric("data.generate_s", Median(generate_s), "s");
  if (options.trace) ProbeServedExplain(engine.get(), 200, report, tracer);
}

}  // namespace perfbench
