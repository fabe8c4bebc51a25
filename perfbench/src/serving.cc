// The serving half of the benchmark: timed engine open, the open- and
// closed-loop phases through the async server, the in-process HandleLine
// replay, and the probes of the served table and explain path.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench.h"
#include "la/similarity_index.h"
#include "loadgen.h"
#include "serve/async_server.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Generator lateness above which a run measures the generator rather
// than the server; such a run fails its check instead of counting.
constexpr double kMaxLateP99Ms = 20.0;

// Closed-loop requests in flight per load connection.
constexpr size_t kClosedDepth = 8;
// The in-process replay of a workload with swaps (serve-mixed) issues a
// hot swap 1 s into the light phase's schedule and every 2 s after. The
// served phases run none: each swap installs a fresh explainer, and the
// race in ExeaExplainer::PathsFor (its caches filled by the four workers
// at once) crashed such runs; see README.md.
constexpr double kSwapPeriodS = 2.0;

// An ok:false answer (refused, shed, timed out or any other error) or no
// answer at all counts as failed.
bool Failed(std::string_view response) {
  return response.substr(0, 10) != "{\"ok\":true";
}

uint64_t JsonUint(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

struct PhaseOut {
  PhaseResult r;
  std::vector<std::string> lines;
  std::vector<int64_t> offsets_ns;  // open loop: the arrival schedule
  obs::Histogram::Snapshot server_ms;
  double batch_rows_mean = 0.0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t explain_hits = 0;    // engine cache counters over the phase,
  uint64_t explain_misses = 0;  // from the stats scrapes at its ends
  size_t failed = 0;
  size_t wrong = 0;
};

// Serving defaults of `exea_cli serve`: 4 workers, queue 1024, 256
// connections, batches of up to 32 rows held 1 ms, 5 s deadline.
serve::AsyncServerOptions ServeDefaults(obs::Registry* registry) {
  serve::AsyncServerOptions options;
  options.server.registry = registry;
  return options;
}

size_t LoadConnections() {
  // One generator thread drives at most nproc connections in total: the
  // load connections plus the control connection (stats scrapes).
  size_t nproc = std::max(2u, std::thread::hardware_concurrency());
  return nproc - 1;
}

void RecordClientSpans(Tracer& tracer, const std::string& phase,
                       const PhaseOut& out, uint64_t* next_request) {
  if (!tracer.enabled()) return;
  uint64_t root = tracer.Record("phase." + phase, 0, 0, out.r.start_ns,
                                std::max(out.r.end_ns, out.r.start_ns));
  for (const Sample& s : out.r.samples) {
    if (s.done_ns == 0) continue;
    uint64_t request = ++*next_request;
    uint64_t id = tracer.Record("client." + OpOf(out.lines[s.index]), root,
                                request, s.intended_ns, s.done_ns);
    tracer.Record("client.wire", id, request, s.sent_ns, s.done_ns);
  }
}

PhaseOut RunPhase(const std::string& name, bool closed, double qps,
                  double seconds, uint64_t rng_seed, const ServeSpec& spec,
                  serve::QueryEngine* engine, Tracer& tracer) {
  PhaseOut out;
  obs::Registry registry;
  serve::AsyncServer server(engine, ServeDefaults(&registry));
  if (!server.Start(0).ok()) {
    out.r.io_error = true;
    return out;
  }
  LoadGenerator gen(server.port(), LoadConnections(), true);
  if (!gen.ok()) {
    out.r.io_error = true;
    server.Shutdown();
    return out;
  }
  std::string stats_begin;
  std::string stats_end;
  {
    ScopedSpan span(&tracer, "stats." + name + ".begin");
    gen.Call("{\"op\":\"stats\"}", &stats_begin);
  }

  size_t count = closed ? 4096 : static_cast<size_t>(std::ceil(qps * seconds));
  out.lines = spec.make_requests(count, rng_seed);
  auto on_response = [&](const Sample& s, std::string_view line) {
    if (Failed(line)) ++out.failed;
    if (!spec.check(out.lines[s.index], line)) {
      if (out.wrong++ < 3) {
        std::printf("wrong answer to %s: %.*s\n", out.lines[s.index].c_str(),
                    static_cast<int>(std::min<size_t>(line.size(), 300)),
                    line.data());
      }
    }
  };
  if (closed) {
    out.r = gen.RunClosed(out.lines, kClosedDepth, seconds, on_response,
                          30.0);
  } else {
    out.offsets_ns = PoissonOffsets(count, qps, rng_seed + 1);
    out.r = gen.RunOpen(out.lines, out.offsets_ns, on_response, 30.0);
  }
  {
    ScopedSpan span(&tracer, "stats." + name + ".end");
    gen.Call("{\"op\":\"stats\"}", &stats_end);
  }
  server.Shutdown();
  out.failed += out.r.unanswered;
  out.server_ms = registry.HistogramSnapshot("serve.latency_ms");
  obs::Histogram::Snapshot batch =
      registry.HistogramSnapshot("serve.batch.size");
  out.batch_rows_mean =
      batch.count > 0 ? batch.sum / static_cast<double>(batch.count) : 0.0;
  out.rejected = registry.CounterValue("serve.rejected");
  out.shed = registry.CounterValue("serve.shed");
  out.explain_hits = JsonUint(stats_end, "explain_cache_hits") -
                     JsonUint(stats_begin, "explain_cache_hits");
  out.explain_misses = JsonUint(stats_end, "explain_cache_misses") -
                       JsonUint(stats_begin, "explain_cache_misses");
  return out;
}

// Replays `lines` in order through an in-process Server::HandleLine on
// the same engine (no network, no coalescer), with hot swaps at their
// points in the phase's schedule when the workload has swap dirs, and
// records per-op handle times and swap times.
void Replay(const PhaseOut& light, const ServeSpec& spec,
            serve::QueryEngine* engine, Report& report, Tracer& tracer) {
  obs::Registry registry;
  serve::ServerOptions options;
  options.registry = &registry;
  serve::Server server(engine, options);
  engine->ClearExplainCache();
  int64_t period = static_cast<int64_t>(kSwapPeriodS * 1e9);
  size_t swaps_done = 0;
  size_t swaps_failed = 0;
  std::vector<double> swap_ms;
  std::map<std::string, std::vector<double>> per_op_us;
  std::vector<double> all_us;
  ScopedSpan root(&tracer, "replay.handle_line");
  for (size_t i = 0; i < light.lines.size(); ++i) {
    if (!spec.swap_dirs.empty()) {
      while (period / 2 + static_cast<int64_t>(swaps_done) * period <=
             light.offsets_ns[i]) {
        const std::string& dir =
            spec.swap_dirs[swaps_done % spec.swap_dirs.size()];
        ScopedSpan span(&tracer, "replay.load_snapshot", root.id());
        int64_t start = NowNs();
        std::string answer = server.HandleLine(
            "{\"op\":\"load_snapshot\",\"dir\":\"" +
            serve::JsonEscape(dir) + "\"}");
        swap_ms.push_back((NowNs() - start) / 1e6);
        swaps_failed += Failed(answer);
        ++swaps_done;
      }
    }
    std::string op = OpOf(light.lines[i]);
    int64_t start = NowNs();
    server.HandleLine(light.lines[i]);
    int64_t end = NowNs();
    tracer.Record("replay." + op, root.id(), i + 1, start, end);
    per_op_us[op].push_back((end - start) / 1e3);
    all_us.push_back((end - start) / 1e3);
  }
  for (const char* op : {"align", "explain", "neighbors", "repair_status"}) {
    const std::vector<double>& us = per_op_us[op];
    report.Metric(std::string("serve.handle_us.") + op + ".p50",
                  Quantile(us, 0.5), "us");
    report.Metric(std::string("serve.handle_us.") + op + ".p99",
                  Quantile(us, 0.99), "us");
  }
  if (!spec.swap_dirs.empty()) {
    report.Check(swaps_failed == 0,
                 "every hot swap of the replay succeeded (" +
                     std::to_string(swaps_done - swaps_failed) + " of " +
                     std::to_string(swaps_done) + ")");
    report.Metric("serve.swap_ms.p50", Quantile(swap_ms, 0.5), "ms");
    report.Metric("serve.swap_ms.max", Quantile(swap_ms, 1.0), "ms");
  }
  double server_mean_ms =
      light.server_ms.count > 0
          ? light.server_ms.sum / static_cast<double>(light.server_ms.count)
          : 0.0;
  // Mean HandleLine time alone against the mean the async server's
  // histogram saw for the same stream: the gap is what concurrency and
  // the coalescer hold add inside HandleLine.
  report.Metric("recon.replay_residual_frac",
                server_mean_ms > 0 ? Mean(all_us) / 1e3 / server_mean_ms - 1.0
                                   : 0.0,
                "fraction");
}

// An idle single align through the server, minus AlignResolved alone.
void ProbeCoalesceHold(serve::QueryEngine* engine, const ServeSpec& spec,
                       uint64_t rng_seed, Report& report, Tracer& tracer) {
  ScopedSpan span(&tracer, "probe.serve.coalesce_hold");
  obs::Registry registry;
  serve::AsyncServer server(engine, ServeDefaults(&registry));
  if (!server.Start(0).ok()) return;
  LoadGenerator gen(server.port(), 1, false);
  std::vector<std::string> lines;
  for (const std::string& line : spec.make_requests(512, rng_seed)) {
    if (OpOf(line) == "align" && line.find("\"entity\"") != std::string::npos) {
      lines.push_back(line);
    }
  }
  if (lines.empty()) return;
  PhaseResult r = gen.RunClosed(lines, 1, 0.5, nullptr, 10.0);
  server.Shutdown();
  report.Metric("serve.coalesce.hold_ms",
                Median(r.WireMs()) -
                    report.Value("serve.align_resolved_us.nq1") / 1e3,
                "ms");
}

// A phase's latency quantile as the median over consecutive windows of
// at least kWindowSamples answered requests each (by intended send
// time), so one stall moves one window rather than the whole figure.
constexpr size_t kWindowSamples = 1500;
constexpr size_t kMaxWindows = 8;

double WindowedQuantile(const PhaseResult& r, double q) {
  std::vector<const Sample*> answered;
  for (const Sample& s : r.samples) {
    if (s.done_ns != 0) answered.push_back(&s);
  }
  size_t windows = std::clamp<size_t>(answered.size() / kWindowSamples, 1,
                                      kMaxWindows);
  std::vector<std::vector<double>> per(windows);
  int64_t span = std::max<int64_t>(1, r.end_ns - r.start_ns);
  for (const Sample* s : answered) {
    size_t w = static_cast<size_t>(
        std::clamp<int64_t>((s->intended_ns - r.start_ns) *
                                static_cast<int64_t>(windows) / span,
                            0, static_cast<int64_t>(windows) - 1));
    per[w].push_back(s->LatencyMs());
  }
  std::vector<double> values;
  for (const std::vector<double>& v : per) {
    if (!v.empty()) values.push_back(Quantile(v, q));
  }
  return Median(values);
}

// Closed-loop completions per second: the upper quartile of the rates
// of consecutive ~1 s windows. Other tenants of a shared machine only
// ever slow a window down, so the upper quartile tracks what the server
// sustains when it has its CPUs, while one fast burst cannot set it.
double WindowedRate(const PhaseResult& r) {
  int64_t span = std::max<int64_t>(1, r.end_ns - r.start_ns);
  auto windows =
      static_cast<size_t>(std::max<int64_t>(1, span / 1'000'000'000));
  std::vector<double> counts(windows, 0.0);
  for (const Sample& s : r.samples) {
    if (s.done_ns == 0 || s.done_ns > r.end_ns) continue;
    int64_t w =
        (s.done_ns - r.start_ns) * static_cast<int64_t>(windows) / span;
    counts[static_cast<size_t>(
        std::clamp<int64_t>(w, 0, static_cast<int64_t>(windows) - 1))] += 1;
  }
  std::printf("capacity windows (completions):");
  for (double c : counts) std::printf(" %.0f", c);
  std::printf("\n");
  return Quantile(counts, 0.75) * static_cast<double>(windows) / (span / 1e9);
}

// ExeaExplainer::PathsFor fills its per-entity path caches without a
// lock, so explains that miss them on several workers at once race (see
// README.md, "Defects the seed run exposes"). Filling them for every
// entity here, on one thread, before the load starts leaves the served
// explains only reading them. The answers do not change.
void FillPathCaches(const serve::ServingState& state) {
  const data::EaDataset& ds = state.bundle().dataset;
  size_t n1 = ds.kg1.num_entities();
  size_t n2 = ds.kg2.num_entities();
  if (n1 == 0 || n2 == 0) return;
  for (size_t i = 0; i < std::max(n1, n2); ++i) {
    (void)state.explainer().Explain(static_cast<kg::EntityId>(i % n1),
                                    static_cast<kg::EntityId>(i % n2),
                                    state.context());
  }
}

template <typename Fn>
double MedianUs(size_t max_reps, double max_seconds, Fn&& fn) {
  std::vector<double> us;
  int64_t stop = NowNs() + static_cast<int64_t>(max_seconds * 1e9);
  for (size_t i = 0; i < max_reps && (i < 3 || NowNs() < stop); ++i) {
    int64_t start = NowNs();
    fn();
    us.push_back((NowNs() - start) / 1e3);
  }
  return Median(us);
}

}  // namespace

std::vector<int64_t> PoissonOffsets(size_t count, double qps,
                                    uint64_t rng_seed) {
  Rng rng(rng_seed);
  std::vector<int64_t> offsets(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) / qps;
    offsets[i] = static_cast<int64_t>(t * 1e9);
  }
  return offsets;
}

std::unique_ptr<serve::QueryEngine> OpenRound(const Options& options,
                                              const std::string& dir,
                                              size_t min_reps,
                                              double min_seconds,
                                              obs::Registry* engine_registry,
                                              SetupTimes* times,
                                              Tracer& tracer) {
  serve::EngineOptions engine_options;  // exea_cli serve defaults
  engine_options.registry = engine_registry;
  std::unique_ptr<serve::QueryEngine> engine;
  int64_t stop = NowNs() + static_cast<int64_t>(min_seconds * 1e9);
  for (size_t rep = 0; times->ok && (rep < min_reps || NowNs() < stop);
       ++rep) {
    engine.reset();  // never hold two copies of the table
    ScopedSpan span(&tracer, "setup.open");
    int64_t start = NowNs();
    if (options.trace) {
      auto bundle = [&] {
        ScopedSpan read(&tracer, "serve.ReadSnapshot", span.id());
        return serve::ReadSnapshot(dir);
      }();
      if (!bundle.ok()) {
        times->ok = false;
        break;
      }
      int64_t read_end = NowNs();
      {
        ScopedSpan build(&tracer, "serve.QueryEngine::FromBundle", span.id());
        engine = serve::QueryEngine::FromBundle(std::move(*bundle),
                                                engine_options);
      }
      times->read_s.push_back((read_end - start) / 1e9);
      times->build_s.push_back((NowNs() - read_end) / 1e9);
    } else {
      auto opened = serve::QueryEngine::Open(dir, engine_options);
      if (!opened.ok()) {
        std::printf("open %s: %s\n", dir.c_str(),
                    opened.status().ToString().c_str());
        times->ok = false;
        break;
      }
      engine = std::move(*opened);
    }
    obs::Registry registry;
    serve::AsyncServer server(engine.get(), ServeDefaults(&registry));
    bool started = server.Start(0).ok();
    times->setup_s.push_back((NowNs() - start) / 1e9);
    server.Shutdown();
    times->ok = times->ok && started;
  }
  if (!times->ok) engine.reset();
  return engine;
}

void ReportSetup(const SetupTimes& times, const Options& options,
                 Report& report) {
  report.Check(times.ok && !times.setup_s.empty(),
               "snapshot bundle opens and the server starts");
  report.Metric("setup_s", Median(times.setup_s), "s");
  std::printf("setup: %zu opens, min %.6f s, median %.6f s, max %.6f s\n",
              times.setup_s.size(), Quantile(times.setup_s, 0.0),
              Median(times.setup_s), Quantile(times.setup_s, 1.0));
  if (options.trace) {
    report.Metric("serve.setup.read_s", Median(times.read_s), "s");
    report.Metric("serve.setup.build_s", Median(times.build_s), "s");
  }
}

void RunServing(const Options& options, const ServeSpec& spec,
                serve::QueryEngine* engine, Report& report, Tracer& tracer) {
  const double open_s = options.seconds * spec.open_share;
  const double closed_s = options.seconds * spec.closed_share;
  const double warm_s = std::min(1.0, options.seconds * 0.05);
  uint64_t base = options.seed * 1'000'003;
  uint64_t next_request = 0;

  if (spec.explains) {
    ScopedSpan span(&tracer, "serve.fill_path_caches");
    FillPathCaches(*engine->AcquireState());
  }
  std::vector<std::pair<std::string, PhaseOut>> phases;
  phases.reserve(4);  // `run` hands out references into it
  auto run = [&](const std::string& name, bool closed, double qps,
                 double seconds, uint64_t rng_seed) -> const PhaseOut& {
    phases.emplace_back(name, RunPhase(name, closed, qps, seconds, rng_seed,
                                       spec, engine, tracer));
    RecordClientSpans(tracer, name, phases.back().second, &next_request);
    if (spec.after_phase) spec.after_phase();
    return phases.back().second;
  };
  run("warmup", false, spec.light_qps, warm_s, base + 10);
  const PhaseOut& light = run("light", false, spec.light_qps, open_s,
                              base + 20);
  const PhaseOut& heavy = run("heavy", false, spec.heavy_qps, open_s,
                              base + 30);
  const PhaseOut& capacity = run("capacity", true, 0, closed_s, base + 40);

  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  size_t answered = 0;
  bool io_error = false;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  for (const auto& [name, out] : phases) {
    attempted += out.r.samples.size();
    failed += out.failed;
    wrong += out.wrong;
    answered += out.r.Answered();
    io_error = io_error || out.r.io_error;
    rejected += out.rejected;
    shed += out.shed;
  }
  report.Count(attempted, failed);
  report.Check(!io_error && answered > 0,
               "every load connection stays up and answers");
  report.Check(wrong == 0, spec.check_name + " (" + std::to_string(wrong) +
                               " of " + std::to_string(answered) +
                               " answers differ)");
  report.Check(failed == 0, "no request failed, was refused or shed (" +
                                std::to_string(failed) + " of " +
                                std::to_string(attempted) + ")");

  std::vector<double> late = light.r.LateMs();
  std::vector<double> heavy_late = heavy.r.LateMs();
  late.insert(late.end(), heavy_late.begin(), heavy_late.end());
  double late_p99 = Quantile(late, 0.99);
  report.Check(late_p99 <= kMaxLateP99Ms,
               "the generator kept its schedule (late p99 " +
                   std::to_string(late_p99) + " ms)");

  report.Metric("ok_frac",
                attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                              : 0.0,
                "fraction");
  std::vector<double> light_ms = light.r.LatenciesMs();
  report.Metric("p50_ms.light", WindowedQuantile(light.r, 0.5), "ms");
  report.Metric("p99_ms.light", WindowedQuantile(light.r, 0.99), "ms");
  report.Metric("p50_ms.heavy", WindowedQuantile(heavy.r, 0.5), "ms");
  report.Metric("p99_ms.heavy", WindowedQuantile(heavy.r, 0.99), "ms");
  report.Metric("capacity_qps", WindowedRate(capacity.r), "1/s");
  std::printf("samples: light %zu at %.0f/s, heavy %zu at %.0f/s, capacity "
              "%zu at depth %zu x %zu connections\n",
              light_ms.size(), spec.light_qps, heavy.r.Answered(),
              spec.heavy_qps, capacity.r.Answered(), kClosedDepth,
              LoadConnections());

  report.Metric("bench.late_ms.p99", late_p99, "ms");
  report.Metric("serve.server_ms.p50", light.server_ms.p50, "ms");
  report.Metric("serve.server_ms.p99", light.server_ms.p99, "ms");
  std::vector<double> wire = light.r.WireMs();
  report.Metric("net.overhead_ms.p50",
                Quantile(wire, 0.5) - light.server_ms.p50, "ms");
  report.Metric("net.overhead_ms.p99",
                Quantile(wire, 0.99) - light.server_ms.p99, "ms");
  // The part of client latency (from the intended send) that the
  // server + net split does not cover: generator lateness plus the
  // non-additivity of medians.
  report.Metric("recon.client_residual_ms",
                Quantile(light_ms, 0.5) -
                    (report.Value("serve.server_ms.p50") +
                     report.Value("net.overhead_ms.p50")),
                "ms");
  report.Metric("serve.coalesce.batch_rows.mean", capacity.batch_rows_mean,
                "rows");
  report.Metric("serve.rejected", static_cast<double>(rejected), "count");
  report.Metric("serve.shed", static_cast<double>(shed), "count");
  uint64_t hits = light.explain_hits + heavy.explain_hits;
  uint64_t lookups = hits + light.explain_misses + heavy.explain_misses;
  report.Metric("serve.explain_cache.hit_frac",
                lookups > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "fraction");
  if (options.trace) {
    Replay(light, spec, engine, report, tracer);
    ProbeServedTable(engine, options.seed, report, tracer);
    ProbeCoalesceHold(engine, spec, base + 50, report, tracer);
  }
}

void ProbeServedTable(serve::QueryEngine* engine, uint64_t seed,
                      Report& report, Tracer& tracer) {
  ScopedSpan span(&tracer, "probe.served_table");
  std::shared_ptr<const serve::ServingState> state = engine->AcquireState();
  const serve::SnapshotBundle& bundle = state->bundle();
  const la::Matrix& table = bundle.emb2;
  Rng rng(seed * 7919 + 3);
  const size_t k = 5;  // the served top_k
  for (size_t nq : {size_t{1}, size_t{32}}) {
    std::vector<kg::EntityId> ids;
    std::vector<std::string> names;
    la::Matrix q(nq, bundle.emb1.cols());
    for (size_t i = 0; i < nq; ++i) {
      auto id = static_cast<kg::EntityId>(
          rng.UniformInt(bundle.dataset.kg1.num_entities()));
      ids.push_back(id);
      names.push_back(bundle.dataset.kg1.EntityName(id));
      std::copy(bundle.emb1.Row(id), bundle.emb1.Row(id) + q.cols(),
                q.Row(i));
    }
    std::string suffix = ".nq" + std::to_string(nq);
    double topk_us;
    {
      ScopedSpan probe(&tracer, "la.ExactIndex::TopKAll" + suffix, span.id());
      topk_us = MedianUs(nq == 1 ? 200 : 50, 1.0,
                         [&] { (void)state->index().TopKAll(q, k); });
    }
    report.Metric("la.topk_us" + suffix, topk_us, "us");
    if (nq == 32) {
      // Computed, not measured: the bytes a full scan reads once per
      // query, over the measured time.
      double bytes = static_cast<double>(nq) *
                     static_cast<double>(table.rows()) *
                     static_cast<double>(table.cols()) * 4.0;
      report.Metric("la.scan_gbps.nq32", bytes / (topk_us * 1e3), "GB/s");
    }
    ScopedSpan probe(&tracer, "serve.QueryEngine::AlignResolved" + suffix,
                     span.id());
    report.Metric("serve.align_resolved_us" + suffix,
                  MedianUs(nq == 1 ? 200 : 50, 1.0,
                           [&] {
                             (void)engine->AlignResolved(*state, ids, names);
                           }),
                  "us");
  }
}

void ProbeServedExplain(serve::QueryEngine* engine, size_t pairs,
                        Report& report, Tracer& tracer) {
  ScopedSpan span(&tracer, "probe.served_explain");
  std::shared_ptr<const serve::ServingState> state = engine->AcquireState();
  const serve::SnapshotBundle& bundle = state->bundle();
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  for (const kg::AlignedPair& pair : bundle.repaired.SortedPairs()) {
    if (cold_us.size() >= pairs) break;
    const std::string& source = bundle.dataset.kg1.EntityName(pair.source);
    const std::string& target = bundle.dataset.kg2.EntityName(pair.target);
    engine->ClearExplainCache();
    for (std::vector<double>* out : {&cold_us, &warm_us}) {
      int64_t start = NowNs();
      auto result = engine->Explain(source, target, serve::Deadline::None());
      int64_t end = NowNs();
      tracer.Record(out == &cold_us ? "serve.Explain.cold"
                                    : "serve.Explain.warm",
                    span.id(), 0, start, end);
      if (!result.ok()) return;
      out->push_back((end - start) / 1e3);
    }
  }
  engine->ClearExplainCache();
  report.Metric("serve.explain_us.cold.p50", Median(cold_us), "us");
  report.Metric("serve.explain_us.warm.p50", Median(warm_us), "us");
}

}  // namespace perfbench
