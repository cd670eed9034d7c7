// Layer replays for the traced run: the nested calls a release makes into
// the linalg, strategy and mechanism layers, re-run one at a time on the
// workload's own strategy and data so each layer gets its own number
// without instrumenting the library. Also the workload-input generators
// shared by the three workloads.
#ifndef DPMM_PERFBENCH_REPLAY_H_
#define DPMM_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>

#include "dpmm/dpmm.h"
#include "harness.h"

namespace perfbench {

/// The budget every workload releases under (per-query RMSE is reported at
/// this budget too).
inline const dpmm::PrivacyParams kBudget{0.5, 1e-4};

/// Seconds of extra set-up-side Design samples after an untraced pass.
constexpr double kDesignSampleSeconds = 3;

/// Seeded synthetic histogram: counts drawn from a skewed distribution so
/// releases and answers see realistic magnitudes.
dpmm::linalg::Vector SyntheticCounts(std::size_t n, std::uint64_t seed);

/// Median nanoseconds of fn over at least `min_reps` calls, continuing
/// until about `budget_s` seconds have passed (at most 200 calls).
double ReplayNanos(const std::function<void()>& fn, int min_reps = 3,
                   double budget_s = 0.25);

/// Per-query RMSE (Def. 5) at kBudget that the design certifies: its
/// Program-1 objective at sensitivity 1, through mechanism/error's
/// ErrorFromTrace. Column completion can only lower the realized error, so
/// this is the design's guarantee; a solver stopped early or a worse
/// strategy raises it. (The exact trace with completion rows costs one
/// normal solve per cell — hours at n = 32,768.)
double ExpectedRmse(const dpmm::Workload& workload,
                    const dpmm::optimize::DesignResult& design);

/// Adds `seconds` worth of Design calls on `workload` to `design_s`. A
/// set-up-side Design is short and its time scatters by about 20 % call to
/// call on a shared host; samples from after the run's pass, beside those
/// from set-up before it, give its median a steadier footing.
void SampleDesign(const dpmm::Workload& workload, double seconds,
                  Samples* design_s);

/// Replays FactorKronEigen, the eigenbasis applies, the batched Kronecker
/// mat-vec, the strategy applies and normal solves, the mechanism's
/// Prepare/Release and the noise draw, and writes the linalg.*, strategy.*
/// and mechanism.* per-layer metrics.
void ReplayComputeLayers(const dpmm::Workload& workload,
                         const dpmm::KronStrategy& strategy,
                         const dpmm::linalg::Vector& x, std::size_t batch,
                         std::uint64_t seed, Report* report);

/// Replays artifact encode/decode of the given artifacts (what one store
/// put writes and one cold load reads) and writes serialize.*.
void ReplaySerializeLayer(
    const std::vector<const dpmm::serialize::StrategyArtifact*>& strategies,
    const std::vector<const dpmm::serialize::ReleaseArtifact*>& releases,
    Report* report);

}  // namespace perfbench

#endif  // DPMM_PERFBENCH_REPLAY_H_
