#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/trace.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.first) +
           ", \"unit\": " + JsonString(m.second) + "}";
  }
  return out + "}";
}

std::string FirstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return "";
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "";
}

/// The layer a span belongs to. The benchmark's own spans carry their layer
/// as the category; the library's internal spans use coarser categories
/// ("serve", "store"), mapped here onto the same layer names so a call and
/// the library span inside it fold into one row.
std::string LayerOf(const std::string& name, const std::string& cat) {
  if (cat == "serve") {
    if (name.rfind("BudgetLedger", 0) == 0) return "serve.budget_ledger";
    if (name.rfind("Answer", 0) == 0) return "serve.answer_engine";
  }
  if (cat == "store") return "serve.store";
  return cat;
}

}  // namespace

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

// The probe's result goes here so the loop is not optimised away.
volatile double probe_sink = 0;

double HostProbeMs() {
  std::vector<double> buf(std::size_t{1} << 20, 1.0);
  Samples ms;
  double acc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    dpmm::Stopwatch sw;
    for (int pass = 0; pass < 8; ++pass) {
      for (double& v : buf) {
        v = v * 0.999999 + 1e-6;
        acc += v;
      }
    }
    ms.Add(sw.Millis());
  }
  probe_sink = acc;
  return ms.Median();
}

bool MoreSetup(const Options& options, const Samples& setup_s) {
  if (options.trace) return setup_s.size() < 1;
  return setup_s.size() < 7 || (setup_s.Sum() < 0.5 && setup_s.size() < 1000);
}

std::string Samples::Tail(double* value) const {
  static const std::pair<double, const char*> kLevels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
      {0.90, "p90"},    {0.75, "p75"}, {0.50, "p50"}};
  const double n = static_cast<double>(values_.size());
  for (const auto& [q, label] : kLevels) {
    if (n * (1.0 - q) >= 10.0) {
      *value = Quantile(q);
      return label;
    }
  }
  *value = 0;
  return "";
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

void Report::Distribution(const std::string& name, const Samples& samples,
                          const std::string& unit) {
  double tail = 0;
  const std::string label = samples.Tail(&tail);
  std::string member = JsonString(name) + ": {\"unit\": " + JsonString(unit) +
                       ", \"count\": " + std::to_string(samples.size()) +
                       ", \"p50\": " + JsonNumber(samples.Median());
  if (!label.empty()) {
    member += ", \"tail\": " + JsonString(label) +
              ", \"tail_value\": " + JsonNumber(tail);
  }
  distributions_.push_back(member + "}");
}

void Report::Gate(bool ok, const std::string& what) {
  if (ok) {
    ++gates_passed_;
    return;
  }
  gate_failures_.push_back(what);
  ++failed_;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
}

void Report::Failed(const std::string& what) {
  ++failed_;
  gate_failures_.push_back(what);
  std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
}

void Report::Note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

std::string Report::ResultJson(bool trace) const {
  std::map<std::string, std::pair<double, std::string>> metrics;
  const auto& measured = trace ? layer_ : end_to_end_;
  for (const auto& [name, unit] :
       trace ? LayerMetricNames() : EndToEndMetricNames()) {
    const auto it = measured.find(name);
    metrics[name] = {it == measured.end() ? 0.0 : it->second.value, unit};
  }
  // A workload that failed before measuring still reports the attempt.
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

std::string Report::RecordJson(const Options& options,
                               const std::string& meta) const {
  std::map<std::string, std::pair<double, std::string>> e2e, layer;
  for (const auto& [n, m] : end_to_end_) e2e[n] = {m.value, m.unit};
  for (const auto& [n, m] : layer_) layer[n] = {m.value, m.unit};
  std::string out = "{\"workload\": " + JsonString(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"meta\": " + meta +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"gates_passed\": " + std::to_string(gates_passed_) +
                    ", \"gate_failures\": [";
  for (std::size_t i = 0; i < gate_failures_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(gate_failures_[i]);
  }
  out += "], \"end_to_end\": " + MetricsJson(e2e) +
         ", \"per_layer\": " + MetricsJson(layer) + ", \"distributions\": {";
  for (std::size_t i = 0; i < distributions_.size(); ++i) {
    out += (i ? ", " : "") + distributions_[i];
  }
  out += "}";
  for (const auto& [key, value] : notes_) {
    out += ", " + JsonString(key) + ": " + value;
  }
  return out + "}";
}

void Report::PrintSummary(bool trace) const {
  std::printf("%-44s %18s  %s\n", trace ? "per-layer metric" : "end-to-end metric",
              "value", "unit");
  for (const auto& [name, m] : trace ? layer_ : end_to_end_) {
    std::printf("%-44s %18.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("gates: %zu passed, %zu failed; operations: %llu attempted, "
              "%llu failed\n",
              gates_passed_, gate_failures_.size(),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

double PeakRssMb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // is not used: it carries over the launching process's peak across exec.
  const std::string hwm = FirstLineWith("/proc/self/status", "VmHWM");
  return std::atof(hwm.c_str()) / 1024.0;  // "<n> kB"
}

int HardwareThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int ConfigurePoolThreads(int threads) {
  const char* env = std::getenv("DPMM_THREADS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  threads = std::max(threads, 1);
  setenv("DPMM_THREADS", std::to_string(threads).c_str(), 1);
  return threads;
}

std::string RunMetadata(const Options& options) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const char* threads = std::getenv("DPMM_THREADS");
  std::ostringstream out;
  out << "{\"commit\": " << JsonString(options.commit)
      << ", \"host\": " << JsonString(host)
      << ", \"cpu_model\": "
      << JsonString(FirstLineWith("/proc/cpuinfo", "model name"))
      << ", \"nproc\": " << HardwareThreads()
      << ", \"dpmm_threads\": " << JsonString(threads ? threads : "")
      << ", \"build_type\": " << JsonString(options.build_type)
      << ", \"seed\": " << options.seed
      << ", \"workload\": " << JsonString(options.workload)
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return out.str();
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t TreeBytes(const std::string& path) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string FoldTrace(const std::string& chrome_json, double wall_ns) {
  struct Span {
    std::string name, cat;
    double start, dur;  // ns
    unsigned tid;
    double child = 0;   // ns covered by direct children
    bool outermost_of_cat = true;
  };
  std::vector<Span> spans;
  std::istringstream in(chrome_json);
  std::string line;
  while (std::getline(in, line)) {
    char name[128], cat[128];
    double ts = 0, dur = 0;
    unsigned tid = 0;
    const auto brace = line.find('{');
    if (brace == std::string::npos) continue;
    if (std::sscanf(line.c_str() + brace,
                    "{\"name\": \"%127[^\"]\", \"cat\": \"%127[^\"]\", "
                    "\"ph\": \"X\", \"ts\": %lf, \"dur\": %lf, \"pid\": 1, "
                    "\"tid\": %u}",
                    name, cat, &ts, &dur, &tid) == 5) {
      spans.push_back({name, LayerOf(name, cat), ts * 1e3, dur * 1e3, tid});
    }
  }
  // Nesting per thread: sort by start (longer first on ties) and keep a
  // stack of open spans; a span's parent is the innermost one containing it.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.tid == s.tid && s.start < top.start + top.dur) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      spans[stack.back()].child += s.dur;
      for (std::size_t j : stack) {
        if (spans[j].cat == s.cat) s.outermost_of_cat = false;
      }
    }
    stack.push_back(i);
  }
  struct Row {
    std::size_t count = 0;
    double inclusive = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans) {
    Row& r = rows[s.cat];
    ++r.count;
    r.self += std::max(0.0, s.dur - s.child);
    if (s.outermost_of_cat) r.inclusive += s.dur;
  }
  std::printf("\nper-layer span fold (%zu spans, wall %.1f ms)\n",
              spans.size(), wall_ns / 1e6);
  std::printf("  %-22s %9s %14s %14s %9s\n", "layer", "spans", "inclusive ms",
              "self ms", "self/wall");
  std::string json = "{";
  bool first = true;
  for (const auto& [cat, r] : rows) {
    std::printf("  %-22s %9zu %14.3f %14.3f %8.2f%%\n", cat.c_str(), r.count,
                r.inclusive / 1e6, r.self / 1e6,
                wall_ns > 0 ? 100.0 * r.self / wall_ns : 0.0);
    if (!first) json += ", ";
    first = false;
    json += JsonString(cat) + ": {\"spans\": " + std::to_string(r.count) +
            ", \"inclusive_ms\": " + JsonNumber(r.inclusive / 1e6) +
            ", \"self_ms\": " + JsonNumber(r.self / 1e6) + "}";
  }
  return json + "}";
}

bool TracedPass(double plain_op_p50, const std::function<TracedRun()>& pass,
                Report* report) {
  dpmm::TraceRecorder::Global().Enable();
  const double regions_before = static_cast<double>(
      RegistryHistogram("dpmm.util.thread_pool.region_ns").sum);
  dpmm::Stopwatch wall;
  const TracedRun run = pass();
  const double wall_ns = static_cast<double>(wall.Nanos());
  if (!run.ok) return false;
  report->Note("layer_table",
               FoldTrace(dpmm::TraceRecorder::Global().ToJson(), wall_ns));
  const double regions_after = static_cast<double>(
      RegistryHistogram("dpmm.util.thread_pool.region_ns").sum);
  report->Layer("util.thread_pool.region_share",
                (regions_after - regions_before) / wall_ns, "ratio");
  report->Layer("optimize.design_ns", run.design_s * 1e9, "ns");
  report->Layer("optimize.solver_iterations", run.iterations, "count");
  report->Layer("trace.overhead_pct",
                100.0 * (run.op_p50 / plain_op_p50 - 1.0), "%");
  return true;
}

dpmm::HistogramSnapshot RegistryHistogram(const std::string& name) {
  for (const auto& h : dpmm::MetricsRegistry::Global().Snapshot().histograms) {
    if (h.name == name) return h;
  }
  dpmm::HistogramSnapshot empty;
  empty.name = name;
  return empty;
}

std::uint64_t RegistryCounter(const std::string& name) {
  for (const auto& [n, v] : dpmm::MetricsRegistry::Global().Snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace perfbench
