// dpmm_perfbench: the repository benchmark's executable. One run measures
// one workload for --seconds and prints, in order: a human-readable metric
// table, one "record: {...}" line with the full run record (metadata,
// distributions with sample counts, gates, the per-layer span fold), and
// as its last line the result object
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when a correctness gate failed, 2 on bad usage.
//
//   dpmm_perfbench --workload design_release_3d --seed 1 --seconds 20
//                  --trace 0 [--work-dir DIR] [--commit SHA]
//                  [--build-type T]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {

const MetricNames& EndToEndMetricNames() {
  static const MetricNames kNames = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"design_s", "s"},        {"design_gap", "ratio"},
      {"expected_rmse", "rmse"}, {"op_p50_ms", "ms"},
      {"batch_item_ms", "ms"},  {"ops_per_s", "1/s"},
  };
  return kNames;
}

const MetricNames& LayerMetricNames() {
  static const MetricNames kNames = {
      {"linalg.factor_kron_eigen_ns", "ns"},
      {"linalg.kron_apply_ns", "ns"},
      {"linalg.kron_apply_squared_ns", "ns"},
      {"linalg.kron_matvec_batch_ns", "ns"},
      {"linalg.kron_apply_gbs", "GB/s"},
      {"optimize.design_ns", "ns"},
      {"optimize.solver_iterations", "count"},
      {"util.thread_pool.region_share", "ratio"},
      {"strategy.apply_ns", "ns"},
      {"strategy.apply_t_ns", "ns"},
      {"strategy.solve_normal_ns", "ns"},
      {"strategy.solve_normal_batch_per_row_ns", "ns"},
      {"mechanism.prepare_ns", "ns"},
      {"mechanism.release_ns", "ns"},
      {"mechanism.release_self_ns", "ns"},
      {"mechanism.noise_draw_ns", "ns"},
      {"query.parse_ns", "ns"},
      {"serve.answer_hit_ns", "ns"},
      {"serve.answer_miss_ns", "ns"},
      {"serve.answer_batch_per_query_ns", "ns"},
      {"serve.root_cache_hit_ratio", "ratio"},
      {"serve.root_cache_lookups", "count"},
      {"serve.root_cache_evictions", "count"},
      {"serve.store.put_ns", "ns"},
      {"serve.store.get_cold_ns", "ns"},
      {"serve.store.compact_ns", "ns"},
      {"serve.store.space_amp", "ratio"},
      {"serve.store.compaction_deleted", "count"},
      {"serialize.encode_ns", "ns"},
      {"serialize.decode_ns", "ns"},
      {"serve.budget_ledger.charge_ns", "ns"},
      {"serve.budget_ledger.checkpoints", "count"},
      {"serve.wal.append_ns", "ns"},
      {"serve.wal.fsync_ns", "ns"},
      {"serve.file_lock.wait_ns", "ns"},
      {"release.release_batch_ns", "ns"},
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "dpmm_perfbench: %s\nusage: dpmm_perfbench --workload "
               "{design_release_3d|serve_zipf_2d|ledger_store_churn} --seed N "
               "--seconds S --trace {0|1} [--work-dir DIR] [--commit SHA] "
               "[--build-type T]\n",
               msg);
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &n) || n == 0 || n > 120) {
        return Usage("--seconds must be 1..120");
      }
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--build-type") {
      options.build_type = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  // Thread budget: clients + pool threads <= nproc. Serving leaves one
  // core per client thread. The compute workload leaves one core to the
  // system: on a shared virtual machine a pool as wide as the machine
  // stalls every parallel region on whichever core is preempted, which
  // showed as a wider run-to-run spread of design and release times.
  void (*run)(const Options&, Report*) = nullptr;
  int pool_threads = HardwareThreads();
  if (options.workload == "design_release_3d") {
    run = RunDesignRelease3d;
    pool_threads = HardwareThreads() - 1;
  } else if (options.workload == "serve_zipf_2d") {
    run = RunServeZipf2d;
    pool_threads = HardwareThreads() - 2;
  } else if (options.workload == "ledger_store_churn") {
    run = RunLedgerStoreChurn;
  } else {
    return Usage("unknown --workload");
  }
  ConfigurePoolThreads(pool_threads);
  const std::string meta = RunMetadata(options);

  Report report;
  const double probe_before = HostProbeMs();
  run(options, &report);
  report.Note("host_probe_ms", "{\"before\": " + std::to_string(probe_before) +
                                   ", \"after\": " +
                                   std::to_string(HostProbeMs()) + "}");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("\nworkload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  report.PrintSummary(options.trace);
  std::printf("record: %s\n", report.RecordJson(options, meta).c_str());
  std::printf("%s\n", report.ResultJson(options.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
