// serve_zipf_2d: ad-hoc predicate serving on a 2-D all-range workload on
// 32^2 (n = 1024). Set-up designs the strategy, releases the data, stores
// both artifacts, and cold-loads them through fresh StrategyStore /
// ReleaseStore handles into an AnswerEngine. The run is a closed loop of 2
// client threads, each sending predicate text lines: 3/4 of lines are one
// predicate (AnswerPredicate), the rest ';'-batches of 16 (AnswerBatch).
// Predicates are Zipf(1.0)-skewed draws from 16,384 distinct random boxes —
// 4x the engine's 4,096-entry root cache — so hits, misses and evictions
// all occur. Every 64th line (from the first) is kept, and 96 answers
// spread over those are checked bit for bit against Workload::Answer +
// release::QueryErrorProfile after the run.
#include <cmath>
#include <cstring>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "replay.h"

namespace perfbench {

namespace {

namespace serve = dpmm::serve;
namespace serialize = dpmm::serialize;
using dpmm::linalg::Vector;

constexpr std::size_t kSide = 32;
constexpr std::size_t kDistinctBoxes = 16384;
constexpr std::size_t kLineBatch = 16;
constexpr int kClients = 2;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kCheckEvery = 64;  // lines kept for checking
constexpr std::size_t kChecked = 96;     // answers checked per pass

struct Served {
  std::vector<std::size_t> boxes;
  std::vector<serve::AnswerEngine::Answer> answers;
};

struct Inputs {
  std::string root;
  dpmm::Domain domain{std::vector<std::size_t>{kSide, kSide}};
  std::unique_ptr<dpmm::AllRangeWorkload> workload;
  std::shared_ptr<const dpmm::LinearStrategy> strategy;
  serialize::StrategyArtifact strategy_artifact;
  serialize::ReleaseArtifact release_artifact;
  std::optional<serve::AnswerEngine> engine;
  std::vector<std::string> box_text;    // predicate text per distinct box
  std::vector<double> zipf_cdf;         // over popularity ranks
  std::vector<std::size_t> rank_to_box;
  double design_s = 0, gap = 0, rmse = 0;
  int iterations = 0;
  double release_ns = 0, put_ns = 0, get_cold_ns = 0;
};

std::vector<std::string> DistinctBoxes(const dpmm::Domain& domain,
                                       dpmm::Rng* rng) {
  std::set<std::vector<std::size_t>> seen;
  std::vector<std::string> text;
  while (text.size() < kDistinctBoxes) {
    std::vector<std::size_t> key;
    std::vector<dpmm::query::Condition> conjuncts;
    for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
      std::size_t lo = rng->UniformInt(domain.size(a));
      std::size_t hi = rng->UniformInt(domain.size(a));
      if (lo > hi) std::swap(lo, hi);
      dpmm::query::Condition c;
      c.attr = a;
      c.op = dpmm::query::Condition::Op::kBetween;
      c.value = lo;
      c.value2 = hi;
      conjuncts.push_back(c);
      key.push_back(lo);
      key.push_back(hi);
    }
    if (!seen.insert(key).second) continue;
    text.push_back(dpmm::query::Predicate(conjuncts).ToString(domain));
  }
  return text;
}

bool Setup(const Options& options, const std::string& root, Inputs* in,
           Report* report) {
  in->root = root;
  RemoveTree(root);
  in->workload = std::make_unique<dpmm::AllRangeWorkload>(in->domain);
  dpmm::Stopwatch sw;
  auto design = [&] {
    dpmm::TraceSpan span("optimize::Design", "optimize");
    return dpmm::optimize::Design(*in->workload);
  }();
  in->design_s = sw.Seconds();
  if (!design.ok()) {
    report->Failed("Design: " + design.status().ToString());
    return false;
  }
  const auto& d = design.ValueOrDie();
  in->strategy = d.strategy;
  in->gap = d.duality_gap;
  in->iterations = d.solver_iterations;
  const auto* kron = dynamic_cast<const dpmm::KronStrategy*>(d.strategy.get());
  if (kron == nullptr) {
    report->Failed("2-D all-range design did not use the kron engine");
    return false;
  }
  in->rmse = ExpectedRmse(*in->workload, d);

  const Vector x = SyntheticCounts(in->domain.NumCells(), options.seed);
  dpmm::Rng rng(options.seed);
  sw.Restart();
  auto batch = [&] {
    dpmm::TraceSpan span("release::ReleaseBatch", "release");
    return dpmm::release::ReleaseBatch(*d.strategy, x, {kBudget}, &rng);
  }();
  in->release_ns = static_cast<double>(sw.Nanos());
  const std::string signature =
      serve::CanonicalSignature("allrange", in->domain);
  serialize::StrategyArtifact& sa = in->strategy_artifact;
  sa.signature = signature;
  sa.domain_sizes = in->domain.sizes();
  sa.strategy = d.strategy;
  sa.solver_report = d.solver_report;
  sa.duality_gap = d.duality_gap;
  sa.rank = d.rank;
  serialize::ReleaseArtifact& ra = in->release_artifact;
  ra.signature = signature;
  ra.domain_sizes = in->domain.sizes();
  ra.budget = kBudget;
  ra.dataset = "serve";
  ra.seed = options.seed;
  ra.x_hat = batch.x_hats[0];
  sw.Restart();
  {
    dpmm::TraceSpan span("Store::Put", "serve.store");
    serve::StrategyStore sstore(root);
    serve::ReleaseStore rstore(root);
    if (!sstore.Put(sa).ok() || !rstore.Put(ra).ok()) {
      report->Failed("storing the serve artifacts");
      return false;
    }
  }
  in->put_ns = static_cast<double>(sw.Nanos());

  // A fresh serving process: cold-load both artifacts, build the engine.
  sw.Restart();
  {
    dpmm::TraceSpan span("Store::GetCold", "serve.store");
    serve::StrategyStore sstore(root);
    serve::ReleaseStore rstore(root);
    auto strategy = sstore.Get(signature);
    auto release = rstore.Get(signature, 0);
    if (!strategy.ok() || !release.ok()) {
      report->Failed("cold-loading the serve artifacts");
      return false;
    }
    in->get_cold_ns = static_cast<double>(sw.Nanos());
    auto engine = serve::AnswerEngine::Create(
        std::move(strategy).ValueOrDie(), std::move(release).ValueOrDie(),
        in->domain);
    if (!engine.ok()) {
      report->Failed("AnswerEngine::Create: " + engine.status().ToString());
      return false;
    }
    in->engine.emplace(std::move(engine).ValueOrDie());
  }

  // The query stream's universe: distinct boxes, and a seeded popularity
  // order over them.
  dpmm::Rng box_rng(options.seed ^ 0x5EEDB0C5ULL);
  in->box_text = DistinctBoxes(in->domain, &box_rng);
  in->rank_to_box = box_rng.Permutation(kDistinctBoxes);
  in->zipf_cdf.resize(kDistinctBoxes);
  double total = 0;
  for (std::size_t r = 0; r < kDistinctBoxes; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    in->zipf_cdf[r] = total;
  }
  for (double& c : in->zipf_cdf) c /= total;
  return true;
}

std::size_t DrawBox(const Inputs& in, dpmm::Rng* rng) {
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - in.zipf_cdf.begin()), kDistinctBoxes - 1);
  return in.rank_to_box[rank];
}

struct ClientStats {
  Samples line_ms, batch_item_ms;
  Samples parse_ns, hit_ns, miss_ns, batch_answer_per_query_ns;
  std::uint64_t lines = 0, predicates = 0, errors = 0;
  std::vector<Served> checked;
};

/// Shared by the clients of one pass: when the root cache first evicted
/// (it is full from then on) and how many predicates were answered by then.
struct Progress {
  std::uint64_t evictions_at_start = 0;
  std::atomic<std::uint64_t> predicates{0};
  std::atomic<std::uint64_t> steady_ns{0};
  std::atomic<std::uint64_t> steady_predicates{0};
};

struct PassResult {
  ClientStats all;
  double wall_s = 0;
  // Predicates per second once the root cache is full. The cold-cache
  // phase lasts a fixed number of misses, so counting it would make the
  // rate depend on the run's length and on how fast the machine got
  // through that phase.
  double steady_qps = 0;
  std::uint64_t hits = 0, evictions = 0;
};

void Client(const Inputs& in, std::uint64_t seed, double seconds,
            Progress* progress, ClientStats* st) {
  const bool traced = dpmm::TraceRecorder::Global().enabled();
  const serve::AnswerEngine& engine = *in.engine;
  dpmm::Rng rng(seed);
  dpmm::PerfContext* perf = dpmm::GetPerfContext();
  const std::uint64_t deadline =
      dpmm::MonotonicNanos() + static_cast<std::uint64_t>(seconds * 1e9);
  while (dpmm::MonotonicNanos() < deadline) {
    const std::size_t k = rng.UniformInt(4) == 0 ? kLineBatch : 1;
    std::vector<std::size_t> boxes(k);
    std::string line;
    for (std::size_t i = 0; i < k; ++i) {
      boxes[i] = DrawBox(in, &rng);
      if (i) line += " ; ";
      line += in.box_text[boxes[i]];
    }

    const std::uint64_t t0 = dpmm::MonotonicNanos();
    std::vector<dpmm::query::Predicate> preds;
    {
      dpmm::TraceSpan span("query::ParsePredicate", "query");
      std::size_t pos = 0;
      while (pos <= line.size()) {
        std::size_t next = line.find(';', pos);
        if (next == std::string::npos) next = line.size();
        auto parsed = dpmm::query::ParsePredicate(
            line.substr(pos, next - pos), in.domain);
        if (parsed.ok()) {
          preds.push_back(std::move(parsed).ValueOrDie());
        } else {
          ++st->errors;
        }
        pos = next + 1;
      }
    }
    const std::uint64_t t1 = dpmm::MonotonicNanos();
    std::vector<serve::AnswerEngine::Answer> answers;
    const std::uint64_t hits_before = perf->root_cache_hits;
    if (preds.size() == 1) {
      dpmm::TraceSpan span("AnswerEngine::AnswerPredicate",
                           "serve.answer_engine");
      answers.push_back(engine.AnswerPredicate(preds[0]));
    } else {
      dpmm::TraceSpan span("AnswerEngine::AnswerBatch", "serve.answer_engine");
      answers = engine.AnswerBatch(preds);
    }
    const std::uint64_t t2 = dpmm::MonotonicNanos();

    st->line_ms.Add(static_cast<double>(t2 - t0) / 1e6);
    if (k > 1) st->batch_item_ms.Add(static_cast<double>(t2 - t0) / 1e6 / k);
    if (traced) {
      st->parse_ns.Add(static_cast<double>(t1 - t0) / k);
      if (k == 1) {
        (perf->root_cache_hits > hits_before ? st->hit_ns : st->miss_ns)
            .Add(static_cast<double>(t2 - t1));
      } else {
        st->batch_answer_per_query_ns.Add(static_cast<double>(t2 - t1) / k);
      }
    }
    ++st->lines;
    st->predicates += answers.size();
    progress->predicates += answers.size();
    if (st->lines % 32 == 0 && progress->steady_ns.load() == 0 &&
        engine.root_cache_evictions() > progress->evictions_at_start) {
      std::uint64_t expected = 0;
      if (progress->steady_ns.compare_exchange_strong(expected, t2)) {
        progress->steady_predicates = progress->predicates.load();
      }
    }
    if (answers.size() != k) ++st->errors;
    // Lines 1, 1 + kCheckEvery, ...: even a short run keeps one to check.
    if ((st->lines - 1) % kCheckEvery == 0 && answers.size() == k) {
      st->checked.push_back({boxes, answers});
    }
  }
}

PassResult RunPass(const Inputs& in, double seconds, std::uint64_t seed) {
  PassResult r;
  const std::uint64_t hits0 = in.engine->root_cache_hits();
  const std::uint64_t evictions0 = in.engine->root_cache_evictions();
  std::vector<ClientStats> stats(kClients);
  Progress progress;
  progress.evictions_at_start = evictions0;
  dpmm::Stopwatch wall;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(Client, std::cref(in), seed * 7919 + c, seconds,
                           &progress, &stats[c]);
    }
    for (auto& t : clients) t.join();
  }
  r.wall_s = wall.Seconds();
  const std::uint64_t end_ns = dpmm::MonotonicNanos();
  const std::uint64_t steady_ns = progress.steady_ns.load();
  r.steady_qps =
      steady_ns == 0
          ? static_cast<double>(progress.predicates) / r.wall_s
          : static_cast<double>(progress.predicates -
                                progress.steady_predicates) /
                (static_cast<double>(end_ns - steady_ns) / 1e9);
  r.hits = in.engine->root_cache_hits() - hits0;
  r.evictions = in.engine->root_cache_evictions() - evictions0;
  for (ClientStats& s : stats) {
    r.all.line_ms.Append(s.line_ms);
    r.all.batch_item_ms.Append(s.batch_item_ms);
    r.all.parse_ns.Append(s.parse_ns);
    r.all.hit_ns.Append(s.hit_ns);
    r.all.miss_ns.Append(s.miss_ns);
    r.all.batch_answer_per_query_ns.Append(s.batch_answer_per_query_ns);
    r.all.lines += s.lines;
    r.all.predicates += s.predicates;
    r.all.errors += s.errors;
    for (auto& c : s.checked) r.all.checked.push_back(std::move(c));
  }
  return r;
}

/// Served answers must be bit-identical to the workload answer on the
/// stored x_hat and to release::QueryErrorProfile for the same predicates.
void CheckServed(const Inputs& in, const PassResult& r, Report* report) {
  // A fixed stride over every kept answer, so the sample spans the whole
  // run (cold and full cache, evicted roots solved again) and both clients.
  std::size_t kept = 0;
  for (const Served& s : r.all.checked) kept += s.boxes.size();
  const std::size_t stride =
      std::max<std::size_t>(1, (kept + kChecked - 1) / kChecked);
  std::vector<std::pair<std::size_t, serve::AnswerEngine::Answer>> sample;
  std::size_t index = 0;
  for (const Served& s : r.all.checked) {
    for (std::size_t i = 0; i < s.boxes.size(); ++i, ++index) {
      if (index % stride == 0) sample.emplace_back(s.boxes[i], s.answers[i]);
    }
  }
  report->Gate(!sample.empty(), "served answers were sampled for checking");
  if (sample.empty()) return;
  dpmm::linalg::Matrix rows(sample.size(), in.domain.NumCells());
  for (std::size_t q = 0; q < sample.size(); ++q) {
    auto parsed =
        dpmm::query::ParsePredicate(in.box_text[sample[q].first], in.domain);
    if (!parsed.ok()) {
      report->Failed("re-parsing a sampled predicate");
      return;
    }
    rows.SetRow(q, parsed.ValueOrDie().ToRow(in.domain));
  }
  dpmm::ExplicitWorkload reference(in.domain, rows, "served-sample");
  const Vector values = reference.Answer(in.release_artifact.x_hat);
  const Vector profile =
      dpmm::release::QueryErrorProfile(reference, *in.strategy, kBudget);
  std::size_t mismatches = 0;
  for (std::size_t q = 0; q < sample.size(); ++q) {
    if (std::memcmp(&sample[q].second.value, &values[q], sizeof(double)) != 0 ||
        std::memcmp(&sample[q].second.stddev, &profile[q], sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  report->Gate(mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(sample.size()) +
                   " sampled served answers differ from Workload::Answer + "
                   "QueryErrorProfile");
}

void Account(const PassResult& r, Report* report) {
  report->Attempted(r.all.lines);
  for (std::uint64_t i = 0; i < r.all.errors; ++i) {
    report->Failed("a served line failed to parse or answer");
  }
}

}  // namespace

void RunServeZipf2d(const Options& options, Report* report) {
  Samples setup_s, design_s;
  Inputs in;
  for (int rep = 0; MoreSetup(options, setup_s); ++rep) {
    if (rep > 0) RemoveTree(in.root);
    in = Inputs();
    dpmm::Stopwatch sw;
    if (!Setup(options, options.work_dir + "/serve-" + std::to_string(rep), &in,
               report)) {
      return;
    }
    setup_s.Add(sw.Seconds());
    design_s.Add(in.design_s);
  }
  report->Distribution("setup_s", setup_s, "s");
  report->Note("sizes",
               "{\"domain\": [32, 32], \"n\": 1024, \"distinct_boxes\": 16384, "
               "\"root_cache\": 4096, \"line_batch\": 16, \"batch_share\": 0.25, "
               "\"zipf_exponent\": 1.0, \"clients\": 2}");

  if (!options.trace) {
    const PassResult r = RunPass(in, options.seconds, options.seed);
    SampleDesign(*in.workload, kDesignSampleSeconds, &design_s);
    report->Distribution("design_s", design_s, "s");
    Account(r, report);
    CheckServed(in, r, report);
    report->EndToEnd("setup_s", setup_s.Median(), "s");
    report->EndToEnd("design_s", design_s.Median(), "s");
    report->EndToEnd("design_gap", in.gap, "ratio");
    report->EndToEnd("expected_rmse", in.rmse, "rmse");
    report->EndToEnd("op_p50_ms", r.all.line_ms.Median(), "ms");
    report->EndToEnd("batch_item_ms", r.all.batch_item_ms.Mean(), "ms");
    report->EndToEnd("ops_per_s", r.steady_qps, "1/s");
    report->Distribution("serve_line_ms", r.all.line_ms, "ms");
    report->Distribution("serve_batch_per_query_ms", r.all.batch_item_ms, "ms");
    report->Note("root_cache", "{\"hits\": " + std::to_string(r.hits) +
                                   ", \"lookups\": " +
                                   std::to_string(r.all.predicates) +
                                   ", \"evictions\": " +
                                   std::to_string(r.evictions) +
                                   ", \"whole_run_qps\": " +
                                   std::to_string(static_cast<double>(r.all.predicates) / r.wall_s) +
                                   "}");
    RemoveTree(in.root);
    return;
  }

  // Traced run: untraced pass, then a traced pass on a fresh cold engine.
  const double half = options.seconds / 2;
  const PassResult plain = RunPass(in, half, options.seed);
  Account(plain, report);
  RemoveTree(in.root);
  Inputs traced_in;
  PassResult traced;
  const bool ok = TracedPass(plain.all.line_ms.Median(), [&] {
    TracedRun run;
    if (!Setup(options, options.work_dir + "/serve-traced", &traced_in,
               report)) {
      return run;
    }
    traced = RunPass(traced_in, half, options.seed);
    run.ok = true;
    run.design_s = traced_in.design_s;
    run.iterations = traced_in.iterations;
    run.op_p50 = traced.all.line_ms.Median();
    return run;
  }, report);
  if (!ok) return;
  Account(traced, report);
  CheckServed(traced_in, traced, report);
  report->Layer("query.parse_ns", traced.all.parse_ns.Median(), "ns");
  report->Layer("serve.answer_hit_ns", traced.all.hit_ns.Median(), "ns");
  report->Layer("serve.answer_miss_ns", traced.all.miss_ns.Median(), "ns");
  report->Layer("serve.answer_batch_per_query_ns",
                traced.all.batch_answer_per_query_ns.Median(), "ns");
  report->Layer("serve.root_cache_hit_ratio",
                static_cast<double>(traced.hits) /
                    static_cast<double>(std::max<std::uint64_t>(traced.all.predicates, 1)),
                "ratio");
  report->Layer("serve.root_cache_lookups",
                static_cast<double>(traced.all.predicates), "count");
  report->Layer("serve.root_cache_evictions",
                static_cast<double>(traced.evictions), "count");
  report->Layer("release.release_batch_ns", traced_in.release_ns, "ns");
  report->Layer("serve.store.put_ns", traced_in.put_ns, "ns");
  report->Layer("serve.store.get_cold_ns", traced_in.get_cold_ns, "ns");
  const auto& kron =
      dynamic_cast<const dpmm::KronStrategy&>(*traced_in.strategy);
  ReplayComputeLayers(*traced_in.workload, kron,
                      SyntheticCounts(traced_in.domain.NumCells(), options.seed),
                      8, options.seed, report);
  ReplaySerializeLayer({&traced_in.strategy_artifact},
                       {&traced_in.release_artifact}, report);
  RemoveTree(traced_in.root);
}

}  // namespace perfbench
