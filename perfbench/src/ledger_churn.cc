// ledger_store_churn: writes beside reads on the durable tier, one client.
// Set-up designs a 1-D all-range strategy over 64 cells (compute is
// negligible) and fills a 4-shard store with 8 datasets x 48 release slots
// = 384 live releases, more than the 256-entry release cache. Each
// operation charges one dataset's budget ledger with a unique charge id;
// an accepted charge is followed by a 2-release release::ReleaseBatch, two
// ReleaseStore::Put calls that supersede the dataset's slots, and a cold
// Get of a random live release through a fresh store handle. CompactStore
// runs every 128 puts. One dataset's cap admits exactly 4 charges, so its
// later charges are refused: expected outcomes, counted exactly.
#include <cstring>
#include <memory>

#include "replay.h"

namespace perfbench {

namespace {

namespace serve = dpmm::serve;
namespace serialize = dpmm::serialize;
using dpmm::linalg::Vector;

constexpr std::size_t kCells = 64;
constexpr std::size_t kDatasets = 8;
constexpr std::size_t kSlotPairs = 24;  // 48 slots per dataset
constexpr std::size_t kShards = 4;
constexpr std::size_t kCompactEvery = 128;  // puts
// Charges are powers of two so every ledger sum is exact in binary.
const dpmm::PrivacyParams kRequest{0.25, 1.0 / (1 << 24)};
constexpr std::size_t kCappedDataset = kDatasets - 1;
constexpr std::size_t kCappedCharges = 4;

dpmm::PrivacyParams DatasetCap(std::size_t d) {
  if (d == kCappedDataset) {
    return {kRequest.epsilon * kCappedCharges, kRequest.delta * kCappedCharges};
  }
  return {kRequest.epsilon * (1 << 20), 1.0 / 16};
}

std::string DatasetName(std::size_t d) { return "ds" + std::to_string(d); }

struct LiveRelease {
  std::size_t id = 0;
  Vector x_hat;
};

struct Inputs {
  std::string store_root, ledger_root;
  serve::StoreOptions store_options;
  dpmm::Domain domain{std::vector<std::size_t>{kCells}};
  std::unique_ptr<dpmm::AllRangeWorkload> workload;
  std::shared_ptr<const dpmm::LinearStrategy> strategy;
  std::string signature;
  std::vector<Vector> data;                      // per dataset
  std::vector<std::vector<LiveRelease>> live;    // [dataset][slot]
  double design_s = 0, gap = 0, rmse = 0;
  int iterations = 0;
  std::uint64_t artifact_seed = 0;
};

serialize::ReleaseArtifact MakeArtifact(const Inputs& in, std::size_t d,
                                        std::size_t slot,
                                        const dpmm::PrivacyParams& budget,
                                        Vector x_hat) {
  serialize::ReleaseArtifact a;
  a.signature = in.signature;
  a.domain_sizes = in.domain.sizes();
  a.budget = budget;
  a.dataset = DatasetName(d);
  a.seed = in.artifact_seed;
  a.batch_index = slot;
  a.x_hat = std::move(x_hat);
  return a;
}

bool SameBytes(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool Setup(const Options& options, const std::string& root, Inputs* in,
           Report* report) {
  RemoveTree(root);
  in->store_root = root + "/store";
  in->ledger_root = root + "/ledger";
  in->store_options.shards = kShards;
  in->artifact_seed = options.seed;
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
    report->Failed("1-D all-range design did not use the kron engine");
    return false;
  }
  in->rmse = ExpectedRmse(*in->workload, d);
  in->signature = serve::CanonicalSignature("allrange", in->domain);

  serialize::StrategyArtifact sa;
  sa.signature = in->signature;
  sa.domain_sizes = in->domain.sizes();
  sa.strategy = d.strategy;
  sa.solver_report = d.solver_report;
  sa.duality_gap = d.duality_gap;
  sa.rank = d.rank;
  serve::StrategyStore sstore(in->store_root, in->store_options);
  if (!sstore.Put(sa).ok()) {
    report->Failed("storing the churn strategy");
    return false;
  }

  // The history every operation supersedes: all 384 slots live.
  serve::ReleaseStore rstore(in->store_root, in->store_options);
  dpmm::Rng rng(options.seed);
  const auto budgets = dpmm::release::SplitBudget(kRequest, {1.0, 1.0});
  in->live.assign(kDatasets, std::vector<LiveRelease>(2 * kSlotPairs));
  for (std::size_t ds = 0; ds < kDatasets; ++ds) {
    in->data.push_back(SyntheticCounts(kCells, options.seed * 31 + ds));
    for (std::size_t k = 0; k < kSlotPairs; ++k) {
      auto batch = dpmm::release::ReleaseBatch(*d.strategy, in->data[ds],
                                               budgets, &rng);
      for (std::size_t b = 0; b < 2; ++b) {
        const std::size_t slot = 2 * k + b;
        auto id = rstore.Put(
            MakeArtifact(*in, ds, slot, budgets[b], batch.x_hats[b]));
        if (!id.ok()) {
          report->Failed("populating the store: " + id.status().ToString());
          return false;
        }
        in->live[ds][slot] = {id.ValueOrDie(), batch.x_hats[b]};
      }
    }
  }
  return true;
}

struct PassResult {
  Samples op_ms, charge_ns, release_batch_ns, put_ns, get_cold_ns, compact_ns;
  Samples space_amp;
  std::uint64_t ops = 0, puts = 0;
  double wall_s = 0;  // excludes the post-compaction survival checks
  std::vector<std::size_t> attempts, accepted, refused;
  std::size_t cold_get_mismatches = 0, compaction_losses = 0;
  std::size_t compactions = 0;
};

/// Every live release must read back byte-equal through a fresh handle.
std::size_t CountLost(const Inputs& in) {
  serve::ReleaseStore fresh(in.store_root, in.store_options);
  std::size_t lost = 0;
  for (const auto& slots : in.live) {
    for (const LiveRelease& rel : slots) {
      auto got = fresh.Get(in.signature, rel.id);
      if (!got.ok() || !SameBytes(got.ValueOrDie()->x_hat, rel.x_hat)) ++lost;
    }
  }
  return lost;
}

PassResult RunPass(Inputs* in, double seconds, std::uint64_t seed,
                   const std::string& id_prefix, Report* report) {
  PassResult r;
  r.attempts.assign(kDatasets, 0);
  r.accepted.assign(kDatasets, 0);
  r.refused.assign(kDatasets, 0);
  serve::BudgetLedger ledger(in->ledger_root);
  serve::ReleaseStore rstore(in->store_root, in->store_options);
  const auto budgets = dpmm::release::SplitBudget(kRequest, {1.0, 1.0});
  dpmm::Rng rng(seed);
  std::uint64_t check_ns = 0;
  const std::uint64_t start = dpmm::MonotonicNanos();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  while (dpmm::MonotonicNanos() < deadline) {
    const std::size_t ds = rng.UniformInt(kDatasets);
    const std::size_t pair = rng.UniformInt(kSlotPairs);
    const std::uint64_t t0 = dpmm::MonotonicNanos();
    std::uint64_t op_check_ns = 0;  // the survival check, not timed
    ++r.attempts[ds];
    auto charge = [&] {
      dpmm::TraceSpan span("BudgetLedger::Charge", "serve.budget_ledger");
      return ledger.Charge(DatasetName(ds), DatasetCap(ds), kRequest,
                           id_prefix + std::to_string(r.ops));
    }();
    const std::uint64_t t1 = dpmm::MonotonicNanos();
    r.charge_ns.Add(static_cast<double>(t1 - t0));
    ++r.ops;
    if (!charge.ok()) {
      if (charge.status().code() == dpmm::StatusCode::kResourceExhausted) {
        ++r.refused[ds];
      } else {
        report->Failed("Charge: " + charge.status().ToString());
      }
      r.op_ms.Add(static_cast<double>(dpmm::MonotonicNanos() - t0) / 1e6);
      continue;
    }
    ++r.accepted[ds];

    // Each release runs on the dataset's current histogram, drawn fresh:
    // the normal solve's cost depends on the data, so a run averages over
    // many histograms instead of the 8 a seed would otherwise fix.
    const Vector data = SyntheticCounts(kCells, rng.NextU64());
    const std::uint64_t r0 = dpmm::MonotonicNanos();
    auto batch = [&] {
      dpmm::TraceSpan span("release::ReleaseBatch", "release");
      return dpmm::release::ReleaseBatch(*in->strategy, data, budgets, &rng);
    }();
    const std::uint64_t t2 = dpmm::MonotonicNanos();
    r.release_batch_ns.Add(static_cast<double>(t2 - r0));
    for (std::size_t b = 0; b < 2; ++b) {
      const std::size_t slot = 2 * pair + b;
      const std::uint64_t p0 = dpmm::MonotonicNanos();
      auto id = [&] {
        dpmm::TraceSpan span("ReleaseStore::Put", "serve.store");
        return rstore.Put(
            MakeArtifact(*in, ds, slot, budgets[b], batch.x_hats[b]));
      }();
      r.put_ns.Add(static_cast<double>(dpmm::MonotonicNanos() - p0));
      ++r.puts;
      if (!id.ok()) {
        report->Failed("Put: " + id.status().ToString());
        continue;
      }
      in->live[ds][slot] = {id.ValueOrDie(), batch.x_hats[b]};
    }

    // A cold read of a random live release through a fresh store handle.
    {
      const LiveRelease& want =
          in->live[rng.UniformInt(kDatasets)][rng.UniformInt(2 * kSlotPairs)];
      const std::uint64_t g0 = dpmm::MonotonicNanos();
      auto got = [&] {
        dpmm::TraceSpan span("ReleaseStore::GetCold", "serve.store");
        serve::ReleaseStore fresh(in->store_root, in->store_options);
        return fresh.Get(in->signature, want.id);
      }();
      r.get_cold_ns.Add(static_cast<double>(dpmm::MonotonicNanos() - g0));
      if (!got.ok() || !SameBytes(got.ValueOrDie()->x_hat, want.x_hat)) {
        ++r.cold_get_mismatches;
      }
    }

    if (r.puts % kCompactEvery == 0) {
      std::size_t live_count = 0;
      for (const auto& slots : in->live) live_count += slots.size();
      const double live_bytes =
          static_cast<double>(live_count) *
          static_cast<double>(serialize::EncodeReleaseArtifact(
                                  MakeArtifact(*in, 0, 0, kRequest,
                                               in->live[0][0].x_hat))
                                  .size());
      r.space_amp.Add(static_cast<double>(TreeBytes(in->store_root)) /
                      live_bytes);
      const std::uint64_t c0 = dpmm::MonotonicNanos();
      auto compacted = [&] {
        dpmm::TraceSpan span("CompactStore", "serve.store");
        return serve::CompactStore(in->store_root, in->store_options);
      }();
      r.compact_ns.Add(static_cast<double>(dpmm::MonotonicNanos() - c0));
      ++r.compactions;
      if (!compacted.ok()) {
        report->Failed("CompactStore: " + compacted.status().ToString());
      }
      const std::uint64_t v0 = dpmm::MonotonicNanos();
      r.compaction_losses += CountLost(*in);
      op_check_ns = dpmm::MonotonicNanos() - v0;
      check_ns += op_check_ns;
    }
    r.op_ms.Add(
        static_cast<double>(dpmm::MonotonicNanos() - t0 - op_check_ns) / 1e6);
  }
  r.wall_s = static_cast<double>(dpmm::MonotonicNanos() - start - check_ns) / 1e9;
  return r;
}

/// The ledger must hold exactly the accepted charges, and the refusals must
/// be exactly those the caps predict; the store lost nothing.
void CheckPass(const Inputs& in, const PassResult& r, Report* report) {
  serve::BudgetLedger ledger(in.ledger_root);
  bool exact = true;
  std::size_t refused = 0, expected_refused = 0;
  for (std::size_t ds = 0; ds < kDatasets; ++ds) {
    const std::size_t attempts = r.attempts[ds];
    const std::size_t accepted = r.accepted[ds];
    refused += r.refused[ds];
    const std::size_t cap = ds == kCappedDataset ? kCappedCharges : attempts;
    expected_refused += attempts > cap ? attempts - cap : 0;
    auto entry = ledger.Read(DatasetName(ds));
    if (accepted == 0) {
      exact = exact && !entry.ok() &&
              entry.status().code() == dpmm::StatusCode::kNotFound;
      continue;
    }
    exact = exact && entry.ok() &&
            entry.ValueOrDie().charges == accepted &&
            entry.ValueOrDie().spent.epsilon ==
                kRequest.epsilon * static_cast<double>(accepted) &&
            entry.ValueOrDie().spent.delta ==
                kRequest.delta * static_cast<double>(accepted);
  }
  report->Gate(exact, "ledger spent equals the exact sum of accepted charges");
  report->Gate(refused == expected_refused,
               "refusals: " + std::to_string(refused) + " observed, " +
                   std::to_string(expected_refused) + " expected");
  report->Gate(r.cold_get_mismatches == 0,
               "cold Get of a live release returns the stored bytes");
  report->Gate(r.compaction_losses == 0,
               "every live release survives compaction byte-equal");
  report->Gate(r.compactions > 0, "at least one compaction ran");
}

}  // namespace

void RunLedgerStoreChurn(const Options& options, Report* report) {
  Samples setup_s, design_s;
  Inputs in;
  const std::string root = options.work_dir + "/churn";
  std::string last_root;
  for (int rep = 0; MoreSetup(options, setup_s); ++rep) {
    if (rep > 0) RemoveTree(last_root);
    last_root = root + "-" + std::to_string(rep);
    in = Inputs();
    dpmm::Stopwatch sw;
    if (!Setup(options, last_root, &in, report)) return;
    setup_s.Add(sw.Seconds());
    design_s.Add(in.design_s);
  }
  report->Distribution("setup_s", setup_s, "s");
  report->Note("sizes",
               "{\"cells\": 64, \"datasets\": 8, \"live_releases\": 384, "
               "\"release_cache\": 256, \"shards\": 4, \"release_batch\": 2, "
               "\"compact_every_puts\": 128, \"capped_dataset_charges\": 4, "
               "\"clients\": 1}");

  if (!options.trace) {
    const PassResult r = RunPass(&in, options.seconds, options.seed, "op-", report);
    SampleDesign(*in.workload, kDesignSampleSeconds, &design_s);
    report->Distribution("design_s", design_s, "s");
    report->Attempted(r.ops);
    CheckPass(in, r, report);
    report->EndToEnd("setup_s", setup_s.Median(), "s");
    report->EndToEnd("design_s", design_s.Median(), "s");
    report->EndToEnd("design_gap", in.gap, "ratio");
    report->EndToEnd("expected_rmse", in.rmse, "rmse");
    report->EndToEnd("op_p50_ms", r.op_ms.Median(), "ms");
    report->EndToEnd("batch_item_ms", r.release_batch_ns.Mean() / 2 / 1e6, "ms");
    report->EndToEnd("ops_per_s", static_cast<double>(r.ops) / r.wall_s, "1/s");
    report->Distribution("churn_op_ms", r.op_ms, "ms");
    report->Distribution("charge_ns", r.charge_ns, "ns");
    report->Distribution("compact_ns", r.compact_ns, "ns");
    report->Distribution("put_ns", r.put_ns, "ns");
    report->Distribution("get_cold_ns", r.get_cold_ns, "ns");
    RemoveTree(last_root);
    return;
  }

  // Traced run: untraced pass, then a traced pass from a fresh set-up.
  const double half = options.seconds / 2;
  const PassResult plain = RunPass(&in, half, options.seed, "plain-", report);
  report->Attempted(plain.ops);
  CheckPass(in, plain, report);
  RemoveTree(last_root);
  const std::uint64_t checkpoints_before =
      RegistryCounter("dpmm.serve.budget_ledger.checkpoints");
  const std::uint64_t deleted_before =
      RegistryCounter("dpmm.serve.store.compaction_deleted");
  Inputs traced_in;
  PassResult traced;
  const bool ok = TracedPass(plain.op_ms.Median(), [&] {
    TracedRun run;
    if (!Setup(options, root + "-traced", &traced_in, report)) return run;
    traced = RunPass(&traced_in, half, options.seed, "traced-", report);
    run.ok = true;
    run.design_s = traced_in.design_s;
    run.iterations = traced_in.iterations;
    run.op_p50 = traced.op_ms.Median();
    return run;
  }, report);
  if (!ok) return;
  report->Attempted(traced.ops);
  CheckPass(traced_in, traced, report);
  report->Layer("serve.budget_ledger.charge_ns", traced.charge_ns.Median(), "ns");
  report->Layer("serve.budget_ledger.checkpoints",
                static_cast<double>(
                    RegistryCounter("dpmm.serve.budget_ledger.checkpoints") -
                    checkpoints_before),
                "count");
  report->Layer("serve.wal.append_ns",
                RegistryHistogram("dpmm.serve.wal.append_ns").p50, "ns");
  report->Layer("serve.wal.fsync_ns",
                RegistryHistogram("dpmm.serve.wal.fsync_ns").p50, "ns");
  report->Layer("serve.file_lock.wait_ns",
                RegistryHistogram("dpmm.serve.file_lock.wait_ns").p50, "ns");
  report->Layer("serve.store.put_ns", traced.put_ns.Median(), "ns");
  report->Layer("serve.store.get_cold_ns", traced.get_cold_ns.Median(), "ns");
  report->Layer("serve.store.compact_ns", traced.compact_ns.Median(), "ns");
  report->Layer("serve.store.space_amp", traced.space_amp.Median(), "ratio");
  report->Layer("serve.store.compaction_deleted",
                static_cast<double>(
                    RegistryCounter("dpmm.serve.store.compaction_deleted") -
                    deleted_before),
                "count");
  report->Layer("release.release_batch_ns", traced.release_batch_ns.Median(),
                "ns");
  const auto& kron =
      dynamic_cast<const dpmm::KronStrategy&>(*traced_in.strategy);
  ReplayComputeLayers(*traced_in.workload, kron, traced_in.data[0], 8,
                      options.seed, report);
  const serialize::ReleaseArtifact sample =
      MakeArtifact(traced_in, 0, 0, kRequest, traced_in.live[0][0].x_hat);
  ReplaySerializeLayer({}, {&sample}, report);
  RemoveTree(root + "-traced");
}

}  // namespace perfbench
