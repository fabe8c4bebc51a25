// The `serve-align-100k` workload: a seeded synthetic bundle with 100k
// entities per KG. Target embeddings are a 64-dim Gaussian mixture; each
// source row is a noisy copy of its gold counterpart's row; the index is
// exact. Requests are 90 % single-entity align (uniform, nothing shared
// or cacheable) and 10 % 32-entity batches, so the la exact scan and the
// coalescer's batch formation dominate; set-up is dominated by the
// snapshot read.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "bench.h"
#include "data/benchmarks.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kEntities = 100000;
constexpr size_t kDim = 64;
constexpr size_t kBatch = 32;
constexpr double kLightQps = 40;
constexpr double kHeavyQps = 80;
constexpr size_t kTopK = 5;            // served top-k
constexpr double kTieEpsilon = 1e-6;   // scores this close may swap order
constexpr size_t kCheckedSingles = 200;
constexpr size_t kCheckedBatches = 4;
// Set-ups per run; setup_s is their median. Each reads ~200 MB of text.
constexpr size_t kSetupReps = 3;

// Embeddings: a Gaussian mixture for KG2, noisy counterpart copies for
// KG1 (sources without a gold counterpart draw a fresh mixture row).
void FillEmbeddings(const data::EaDataset& ds, uint64_t seed,
                    la::Matrix* emb1, la::Matrix* emb2) {
  Rng rng(seed * 104729 + 17);
  size_t centers_n = static_cast<size_t>(
      std::sqrt(static_cast<double>(ds.kg2.num_entities())));
  la::Matrix centers(centers_n, kDim);
  centers.FillNormal(rng, 1.0f);
  auto mixture_row = [&](float* dst) {
    const float* c = centers.Row(rng.UniformInt(centers_n));
    for (size_t d = 0; d < kDim; ++d) {
      dst[d] = c[d] + 0.15f * static_cast<float>(rng.Normal());
    }
  };
  *emb2 = la::Matrix(ds.kg2.num_entities(), kDim);
  for (size_t j = 0; j < emb2->rows(); ++j) mixture_row(emb2->Row(j));
  *emb1 = la::Matrix(ds.kg1.num_entities(), kDim);
  for (size_t i = 0; i < emb1->rows(); ++i) {
    auto it = ds.gold.find(static_cast<kg::EntityId>(i));
    if (it == ds.gold.end()) {
      mixture_row(emb1->Row(i));
      continue;
    }
    const float* src = emb2->Row(it->second);
    float* dst = emb1->Row(i);
    for (size_t d = 0; d < kDim; ++d) {
      dst[d] = src[d] + 0.05f * static_cast<float>(rng.Normal());
    }
  }
}

struct Candidate {
  std::string entity;
  double score = 0;
};

// The candidate lists of an align response, one per result object.
std::vector<std::vector<Candidate>> ParseCandidates(std::string_view json) {
  std::vector<std::vector<Candidate>> lists;
  constexpr std::string_view kList = "\"candidates\":[";
  constexpr std::string_view kEntity = "{\"entity\":\"";
  constexpr std::string_view kScore = "\",\"score\":";
  size_t at = 0;
  while ((at = json.find(kList, at)) != std::string_view::npos) {
    at += kList.size();
    size_t end = json.find(']', at);
    std::vector<Candidate> list;
    size_t pos = at;
    while ((pos = json.find(kEntity, pos)) < end) {
      pos += kEntity.size();
      size_t name_end = json.find(kScore, pos);
      Candidate c;
      c.entity = std::string(json.substr(pos, name_end - pos));
      c.score = std::strtod(json.data() + name_end + kScore.size(), nullptr);
      list.push_back(std::move(c));
      pos = name_end;
    }
    lists.push_back(std::move(list));
    at = end;
  }
  return lists;
}

// The benchmark's own scalar reference: cosine in double over every
// row. An engine candidate list is right when its i-th entry scores
// within kTieEpsilon of the reference's i-th best score (so order may
// differ only among ties) and the printed score matches.
bool MatchesReference(const la::Matrix& emb1, const la::Matrix& emb2,
                      const data::EaDataset& ds, const std::string& source,
                      const std::vector<Candidate>& got) {
  kg::EntityId s = ds.kg1.FindEntity(source);
  if (s == kg::kInvalidEntity || got.size() != kTopK) return false;
  const float* q = emb1.Row(s);
  auto norm = [](const float* v) {
    double sum = 0;
    for (size_t d = 0; d < kDim; ++d) sum += static_cast<double>(v[d]) * v[d];
    return std::sqrt(sum);
  };
  double qn = norm(q);
  std::vector<double> scores(emb2.rows());
  for (size_t j = 0; j < emb2.rows(); ++j) {
    const float* t = emb2.Row(j);
    double dot = 0;
    for (size_t d = 0; d < kDim; ++d) dot += static_cast<double>(q[d]) * t[d];
    double tn = norm(t);
    scores[j] = qn > 0 && tn > 0 ? dot / (qn * tn) : 0.0;
  }
  std::vector<double> best = scores;
  std::partial_sort(best.begin(), best.begin() + kTopK, best.end(),
                    std::greater<double>());
  std::vector<kg::EntityId> seen;
  for (size_t i = 0; i < kTopK; ++i) {
    kg::EntityId t = ds.kg2.FindEntity(got[i].entity);
    if (t == kg::kInvalidEntity ||
        std::find(seen.begin(), seen.end(), t) != seen.end()) {
      return false;
    }
    seen.push_back(t);
    if (std::abs(scores[t] - best[i]) > kTieEpsilon) return false;
    if (std::abs(got[i].score - scores[t]) > 1e-5) return false;
  }
  return true;
}

}  // namespace

void RunServeAlign100k(const Options& options, Report& report,
                       Tracer& tracer) {
  data::SyntheticOptions synthetic =
      data::BenchmarkOptions(data::Benchmark::kZhEn, data::Scale::kMedium);
  synthetic.num_entities = kEntities;
  synthetic.seed = options.seed;
  auto bundle = std::make_unique<serve::SnapshotBundle>();
  int64_t start = NowNs();
  {
    ScopedSpan span(&tracer, "data.GenerateDataset");
    bundle->dataset = data::GenerateDataset(synthetic);
  }
  report.Metric("data.generate_s", (NowNs() - start) / 1e9, "s");
  FillEmbeddings(bundle->dataset, options.seed, &bundle->emb1, &bundle->emb2);
  bundle->meta.model_name = "synthetic-gaussian-mixture";
  bundle->meta.dataset_name = "synthetic-100k";
  bundle->meta.inference = "gold";
  for (const kg::AlignedPair& pair : bundle->dataset.test) {
    bundle->alignment.Add(pair.source, pair.target);
  }
  bundle->repaired = bundle->alignment;

  // The offline path of this workload is freezing the bundle.
  std::string dir = options.workdir + "/serve-align-100k-seed" +
                    std::to_string(options.seed);
  std::filesystem::remove_all(dir);
  start = NowNs();
  {
    ScopedSpan span(&tracer, "serve.WriteSnapshot");
    Status written = serve::WriteSnapshot(*bundle, dir);
    report.Check(written.ok(), "bundle written: " + written.ToString());
  }
  report.Metric("pipeline_s", (NowNs() - start) / 1e9, "s");
  bundle.reset();

  obs::Registry engine_registry;
  SetupTimes setup;
  std::unique_ptr<serve::QueryEngine> engine = OpenRound(
      options, dir, kSetupReps, 0.0, &engine_registry, &setup, tracer);
  ReportSetup(setup, options, report);
  if (engine == nullptr) return;
  std::shared_ptr<const serve::ServingState> state = engine->AcquireState();
  const serve::SnapshotBundle& served = state->bundle();
  report.Check(std::string(state->index().name()) == "exact",
               "the served index is the exact scan");

  std::vector<std::string> names;
  for (kg::EntityId e = 0; e < served.dataset.kg1.num_entities(); ++e) {
    names.push_back(served.dataset.kg1.EntityName(e));
  }
  ServeSpec spec;
  spec.light_qps = kLightQps;
  spec.heavy_qps = kHeavyQps;
  spec.explains = false;
  spec.check_name = "every align answer lists the top-5 candidates of each "
                    "requested entity";
  spec.make_requests = [&names](size_t count, uint64_t rng_seed) {
    Rng rng(rng_seed);
    std::vector<std::string> lines;
    lines.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (rng.UniformDouble() < 0.9) {
        lines.push_back(AlignRequest(names[rng.UniformInt(names.size())]));
      } else {
        std::vector<std::string> batch;
        for (size_t b = 0; b < kBatch; ++b) {
          batch.push_back(names[rng.UniformInt(names.size())]);
        }
        lines.push_back(AlignBatchRequest(batch));
      }
    }
    return lines;
  };
  // Sample answers on the generator thread; verify after the phases.
  std::vector<std::pair<std::string, std::string>> singles;
  std::vector<std::pair<std::string, std::string>> batches;
  size_t seen = 0;
  spec.check = [&](const std::string& request, std::string_view response) {
    bool batch = request.find("\"entities\"") != std::string::npos;
    auto& sample = batch ? batches : singles;
    size_t cap = batch ? kCheckedBatches : kCheckedSingles;
    if (seen++ % 7 == 0 && sample.size() < cap) {
      sample.emplace_back(request, std::string(response));
    }
    std::vector<std::vector<Candidate>> lists = ParseCandidates(response);
    bool shaped = lists.size() == (batch ? kBatch : 1);
    for (const std::vector<Candidate>& list : lists) {
      shaped = shaped && list.size() == kTopK;
    }
    return shaped;
  };
  RunServing(options, spec, engine.get(), report, tracer);

  size_t checked = 0;
  size_t wrong = 0;
  auto verify = [&](const std::string& request, const std::string& response) {
    std::vector<std::vector<Candidate>> lists = ParseCandidates(response);
    std::vector<std::string> sources;
    size_t key = request.find("\"entity\":\"");
    if (key != std::string::npos) {
      key += 10;
      sources.push_back(request.substr(key, request.find('"', key) - key));
    } else {
      key = request.find("\"entities\":\"") + 12;
      std::string joined = request.substr(key, request.find('"', key) - key);
      size_t begin = 0;
      while (begin <= joined.size()) {
        size_t comma = std::min(joined.find(',', begin), joined.size());
        sources.push_back(joined.substr(begin, comma - begin));
        begin = comma + 1;
      }
    }
    if (lists.size() != sources.size()) {
      ++wrong;
      return;
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      ++checked;
      if (!MatchesReference(served.emb1, served.emb2, served.dataset,
                            sources[i], lists[i])) {
        if (wrong++ < 3) {
          std::printf("align answer for %s differs from the reference\n",
                      sources[i].c_str());
        }
      }
    }
  };
  {
    ScopedSpan span(&tracer, "check.reference_scan");
    for (const auto& [request, response] : singles) verify(request, response);
    for (const auto& [request, response] : batches) verify(request, response);
  }
  report.Check(checked > 0 && wrong == 0,
               "sampled align answers match the scalar reference scan (" +
                   std::to_string(checked - std::min(checked, wrong)) + "/" +
                   std::to_string(checked) + " rows)");
  std::filesystem::remove_all(dir);  // ~200 MB, rebuilt by every run
}

}  // namespace perfbench
