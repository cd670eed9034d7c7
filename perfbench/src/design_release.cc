// design_release_3d: a 3-D all-range workload on 32^3 (n = 32,768), one
// client. A pass is split into segments of about 10 s. Each segment designs
// the strategy with optimize::Design (default options), prepares the
// mechanism, then repeats rounds of single Mechanism::Release calls and one
// ReleaseBatch of 8 drawn from the same rng state — so every round also
// checks batch == sequential byte identity — until the segment's time is
// spent. The Kronecker axis passes, the dual solver and the PCG normal
// solve do the work; serve and store idle.
#include <algorithm>
#include <cstring>
#include <memory>

#include "replay.h"

namespace perfbench {

namespace {

constexpr std::size_t kSide = 32;
constexpr std::size_t kBatch = 8;
constexpr double kSegmentSeconds = 10;

struct Inputs {
  std::unique_ptr<dpmm::AllRangeWorkload> workload;
  dpmm::linalg::Vector x;
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs in;
  in.workload = std::make_unique<dpmm::AllRangeWorkload>(
      dpmm::Domain({kSide, kSide, kSide}));
  in.x = SyntheticCounts(in.workload->num_cells(), seed);
  // Design picks the implicit Kronecker pipeline only when the workload has
  // an implicit spectrum; check it here so a workload that lost it fails
  // set-up instead of silently timing the dense path.
  if (!in.workload->ImplicitEigen().has_value()) in.workload.reset();
  return in;
}

struct PassResult {
  bool ok = false;
  Samples design_s;
  double gap = 0;
  int iterations = 0;
  double rmse = 0;
  Samples release_ms, batch_item_ms;
  double release_phase_s = 0;
  std::size_t releases = 0;
  std::shared_ptr<const dpmm::LinearStrategy> strategy;
};

/// One segment of a pass: Design, Prepare, then release rounds until
/// `deadline` (at least one round). `round` counts rounds over the pass.
bool RunSegment(const Inputs& in, std::uint64_t deadline, std::uint64_t seed,
                std::uint64_t* round, PassResult* r, Report* report) {
  dpmm::Stopwatch sw;
  report->Attempted();
  auto design = [&] {
    dpmm::TraceSpan span("optimize::Design", "optimize");
    return dpmm::optimize::Design(*in.workload);
  }();
  r->design_s.Add(sw.Seconds());
  if (!design.ok()) {
    report->Failed("Design: " + design.status().ToString());
    return false;
  }
  const auto& d = design.ValueOrDie();
  const auto* kron = dynamic_cast<const dpmm::KronStrategy*>(d.strategy.get());
  report->Gate(kron != nullptr, "3-D all-range design uses the kron engine");
  if (kron == nullptr) return false;
  if (r->strategy == nullptr) {
    r->gap = d.duality_gap;
    r->iterations = d.solver_iterations;
    r->rmse = ExpectedRmse(*in.workload, d);
  }
  r->strategy = d.strategy;

  report->Attempted();
  auto mech = [&] {
    dpmm::TraceSpan span("Mechanism::Prepare", "mechanism");
    return dpmm::Mechanism::Prepare(d.strategy, kBudget);
  }();
  if (!mech.ok()) {
    report->Failed("Mechanism::Prepare: " + mech.status().ToString());
    return false;
  }
  const dpmm::Mechanism& mechanism = mech.ValueOrDie();

  dpmm::Stopwatch phase;
  do {
    dpmm::Rng sequential_rng(seed * 1000003 + *round);
    dpmm::Rng batch_rng(seed * 1000003 + *round);
    // The first round checks the whole batch; later ones check its first
    // two releases, which keeps several batch samples in a run.
    const std::size_t checked = *round == 0 ? kBatch : 2;
    std::vector<dpmm::linalg::Vector> singles;
    for (std::size_t b = 0; b < checked; ++b) {
      sw.Restart();
      {
        dpmm::TraceSpan span("Mechanism::Release", "mechanism");
        singles.push_back(mechanism.Release(in.x, &sequential_rng));
      }
      r->release_ms.Add(sw.Millis());
    }
    sw.Restart();
    std::vector<dpmm::linalg::Vector> batch;
    {
      dpmm::TraceSpan span("Mechanism::ReleaseBatch", "mechanism");
      batch = mechanism.ReleaseBatch(in.x, kBatch, &batch_rng);
    }
    r->batch_item_ms.Add(sw.Millis() / kBatch);
    report->Attempted(checked + 1);
    r->releases += checked + kBatch;
    bool identical = batch.size() == kBatch;
    for (std::size_t b = 0; identical && b < checked; ++b) {
      identical = batch[b].size() == singles[b].size() &&
                  std::memcmp(batch[b].data(), singles[b].data(),
                              batch[b].size() * sizeof(double)) == 0;
    }
    report->Gate(identical, "ReleaseBatch(8) byte-identical to sequential "
                            "Release calls from the same rng state");
    ++*round;
  } while (dpmm::MonotonicNanos() < deadline);
  r->release_phase_s += phase.Seconds();
  return true;
}

/// A pass splits its time into segments of about kSegmentSeconds, each
/// with its own Design: design_s is their median, and the Design and
/// release samples are spread over the whole pass rather than bunched at
/// its start, so a burst of load on a shared host touches both alike.
PassResult RunPass(const Inputs& in, double seconds, std::uint64_t seed,
                   Report* report) {
  PassResult r;
  const int segments = std::max(1, static_cast<int>(seconds / kSegmentSeconds));
  const std::uint64_t start = dpmm::MonotonicNanos();
  std::uint64_t round = 0;
  for (int s = 1; s <= segments; ++s) {
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9 * s / segments);
    if (!RunSegment(in, deadline, seed, &round, &r, report)) return r;
  }
  r.ok = true;
  return r;
}

void EndToEndMetrics(const PassResult& r, Report* report) {
  report->EndToEnd("design_s", r.design_s.Median(), "s");
  report->EndToEnd("design_gap", r.gap, "ratio");
  report->EndToEnd("expected_rmse", r.rmse, "rmse");
  report->EndToEnd("op_p50_ms", r.release_ms.Median(), "ms");
  report->EndToEnd("batch_item_ms", r.batch_item_ms.Mean(), "ms");
  report->EndToEnd("ops_per_s",
                   static_cast<double>(r.releases) / r.release_phase_s, "1/s");
  report->Distribution("design_s", r.design_s, "s");
  report->Distribution("release_ms", r.release_ms, "ms");
  report->Distribution("release_batch_per_release_ms", r.batch_item_ms, "ms");
}

}  // namespace

void RunDesignRelease3d(const Options& options, Report* report) {
  Samples setup_s;
  Inputs in;
  while (MoreSetup(options, setup_s)) {
    dpmm::Stopwatch sw;
    in = MakeInputs(options.seed);
    setup_s.Add(sw.Seconds());
  }
  if (in.workload == nullptr) {
    report->Failed("all-range workload has no implicit spectrum");
    return;
  }
  report->Distribution("setup_s", setup_s, "s");
  report->Note("sizes", "{\"domain\": [32, 32, 32], \"n\": 32768, "
                        "\"batch\": 8, \"clients\": 1}");

  if (!options.trace) {
    const PassResult r = RunPass(in, options.seconds, options.seed, report);
    if (!r.ok) return;
    EndToEndMetrics(r, report);
    report->EndToEnd("setup_s", setup_s.Median(), "s");
    report->Note("solver_iterations", std::to_string(r.iterations));
    return;
  }

  // Traced run: an untraced pass, then the same pass with spans on (the
  // p50 gap is the tracing overhead), then the layer replays.
  const double half = options.seconds / 2;
  const PassResult plain = RunPass(in, half, options.seed, report);
  if (!plain.ok) return;
  PassResult traced;
  const bool ok = TracedPass(plain.release_ms.Median(), [&] {
    traced = RunPass(in, half, options.seed, report);
    TracedRun run;
    run.ok = traced.ok;
    run.design_s = traced.design_s.Median();
    run.iterations = traced.iterations;
    run.op_p50 = traced.release_ms.Median();
    return run;
  }, report);
  if (!ok) return;
  const auto& kron = dynamic_cast<const dpmm::KronStrategy&>(*traced.strategy);
  ReplayComputeLayers(*in.workload, kron, in.x, kBatch, options.seed, report);
}

}  // namespace perfbench
