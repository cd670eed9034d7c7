#include "replay.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using dpmm::linalg::Vector;

Vector SyntheticCounts(std::size_t n, std::uint64_t seed) {
  dpmm::Rng rng(seed);
  Vector x(n);
  for (auto& v : x) {
    // Exponential with mean 40, rounded down: many small cells, a few large.
    v = std::floor(-40.0 * std::log(1.0 - rng.UniformDouble()));
  }
  return x;
}

double ReplayNanos(const std::function<void()>& fn, int min_reps,
                   double budget_s) {
  Samples s;
  const std::uint64_t start = dpmm::MonotonicNanos();
  while (static_cast<int>(s.size()) < min_reps ||
         (s.size() < 200 &&
          static_cast<double>(dpmm::MonotonicNanos() - start) <
              budget_s * 1e9)) {
    const std::uint64_t t0 = dpmm::MonotonicNanos();
    fn();
    s.Add(static_cast<double>(dpmm::MonotonicNanos() - t0));
  }
  return s.Median();
}

double ExpectedRmse(const dpmm::Workload& workload,
                    const dpmm::optimize::DesignResult& design) {
  dpmm::ErrorOptions opts;
  opts.privacy = kBudget;
  opts.convention = dpmm::ErrorConvention::kPerQuery;
  return dpmm::ErrorFromTrace(1.0, design.predicted_objective,
                              workload.num_queries(), opts);
}

void SampleDesign(const dpmm::Workload& workload, double seconds,
                  Samples* design_s) {
  dpmm::Stopwatch total;
  do {
    dpmm::Stopwatch sw;
    auto design = dpmm::optimize::Design(workload);
    if (design.ok()) design_s->Add(sw.Seconds());
  } while (total.Seconds() < seconds);
}

void ReplayComputeLayers(const dpmm::Workload& workload,
                         const dpmm::KronStrategy& strategy, const Vector& x,
                         std::size_t batch, std::uint64_t seed,
                         Report* report) {
  namespace linalg = dpmm::linalg;
  const std::size_t n = strategy.num_cells();
  const std::size_t m = strategy.num_queries();
  std::vector<Vector> vs;
  for (std::size_t b = 0; b < batch; ++b) {
    vs.push_back(SyntheticCounts(n, seed + 101 + b));
  }

  // linalg: the factored eigendecomposition Design runs first, and the
  // axis-pass kernels every strategy apply and normal solve run on.
  if (auto gram = workload.KronGramFactors()) {
    report->Layer("linalg.factor_kron_eigen_ns", ReplayNanos([&] {
      auto eig = linalg::FactorKronEigen(*gram);
      if (!eig.ok()) report->Failed("FactorKronEigen replay");
    }), "ns");
  }
  const linalg::KronEigenBasis& basis = strategy.basis();
  Vector sink;
  const double apply_ns =
      ReplayNanos([&] { sink = basis.Apply(vs[0]); }, 5);
  report->Layer("linalg.kron_apply_ns", apply_ns, "ns");
  report->Layer("linalg.kron_apply_squared_ns",
                ReplayNanos([&] { sink = basis.ApplySquared(vs[0]); }, 5),
                "ns");
  const Vector packed = linalg::PackBatch(vs);
  report->Layer("linalg.kron_matvec_batch_ns", ReplayNanos([&] {
    sink = linalg::KronMatVecBatch(basis.factors(), packed, batch);
  }, 5), "ns");
  // Computed bytes of one Apply: each axis pass reads and writes the
  // n-vector once and reads its d x d factor (a model, not a counter).
  double bytes = 0;
  for (const auto& f : basis.factors()) {
    bytes += 2.0 * 8.0 * static_cast<double>(n) +
             8.0 * static_cast<double>(f.rows() * f.cols());
  }
  report->Layer("linalg.kron_apply_gbs", apply_ns > 0 ? bytes / apply_ns : 0,
                "GB/s");

  // strategy: the calls one release makes (A x, A^T y, the normal solve)
  // and the block solve a batch of releases shares.
  const Vector ax = strategy.Apply(x);
  Vector y = ax;
  dpmm::Rng rng(seed);
  for (auto& v : y) v += rng.Gaussian(1.0);
  const double strategy_apply_ns =
      ReplayNanos([&] { sink = strategy.Apply(x); }, 5);
  const double strategy_apply_t_ns =
      ReplayNanos([&] { sink = strategy.ApplyT(y); }, 5);
  const Vector aty = strategy.ApplyT(y);
  const double solve_ns =
      ReplayNanos([&] { sink = strategy.SolveNormal(aty); });
  report->Layer("strategy.apply_ns", strategy_apply_ns, "ns");
  report->Layer("strategy.apply_t_ns", strategy_apply_t_ns, "ns");
  report->Layer("strategy.solve_normal_ns", solve_ns, "ns");
  std::vector<Vector> rhs;
  for (const Vector& v : vs) rhs.push_back(strategy.ApplyT(strategy.Apply(v)));
  report->Layer("strategy.solve_normal_batch_per_row_ns", ReplayNanos([&] {
    auto z = strategy.SolveNormalBatch(rhs);
  }) / static_cast<double>(batch), "ns");

  // mechanism: prepare (sensitivity + noise scale), the noise draw, and a
  // whole release minus the strategy calls it makes.
  auto shared = std::make_shared<const dpmm::KronStrategy>(strategy);
  report->Layer("mechanism.prepare_ns", ReplayNanos([&] {
    auto mech = dpmm::Mechanism::Prepare(shared, kBudget);
    if (!mech.ok()) report->Failed("Mechanism::Prepare replay");
  }), "ns");
  auto mech = dpmm::Mechanism::Prepare(shared, kBudget);
  if (!mech.ok()) {
    report->Failed("Mechanism::Prepare replay");
    return;
  }
  std::vector<double> noise;
  report->Layer("mechanism.noise_draw_ns", ReplayNanos([&] {
    noise = rng.GaussianVector(m, mech.ValueOrDie().noise_scale());
  }, 5), "ns");
  const double release_ns = ReplayNanos(
      [&] { sink = mech.ValueOrDie().Release(x, &rng); });
  report->Layer("mechanism.release_ns", release_ns, "ns");
  report->Layer("mechanism.release_self_ns",
                release_ns - strategy_apply_ns - strategy_apply_t_ns - solve_ns,
                "ns");
}

void ReplaySerializeLayer(
    const std::vector<const dpmm::serialize::StrategyArtifact*>& strategies,
    const std::vector<const dpmm::serialize::ReleaseArtifact*>& releases,
    Report* report) {
  namespace serialize = dpmm::serialize;
  std::vector<std::string> strategy_bytes, release_bytes;
  const double encode_ns = ReplayNanos([&] {
    strategy_bytes.clear();
    release_bytes.clear();
    for (const auto* a : strategies) {
      strategy_bytes.push_back(serialize::EncodeStrategyArtifact(*a));
    }
    for (const auto* a : releases) {
      release_bytes.push_back(serialize::EncodeReleaseArtifact(*a));
    }
  }, 5);
  const double decode_ns = ReplayNanos([&] {
    for (const auto& b : strategy_bytes) {
      if (!serialize::DecodeStrategyArtifact(b).ok()) {
        report->Failed("DecodeStrategyArtifact replay");
      }
    }
    for (const auto& b : release_bytes) {
      if (!serialize::DecodeReleaseArtifact(b).ok()) {
        report->Failed("DecodeReleaseArtifact replay");
      }
    }
  }, 5);
  report->Layer("serialize.encode_ns", encode_ns, "ns");
  report->Layer("serialize.decode_ns", decode_ns, "ns");
}

}  // namespace perfbench
