// ftdag benchmark binary: one workload per invocation.
//
//   ftdag_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--smoke]
//
// Sets the workload up several times (setup_s is the median), then measures
// for --seconds. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// traced window plus the layer probes and prints the per-layer metrics. The
// last line of stdout is the JSON result; the exit code is non-zero when any
// job failed or any check did not hold.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: ftdag_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--smoke]\n"
               "workloads:",
               why.c_str());
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& out_dir) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0 && o.seconds <= 600;
    } else if (arg == "--trace") {
      o.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace need valid values");
  return o;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream(path) << body;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int run(int argc, char** argv) {
  std::string out_dir = ".bench_build/out";
  Options opt = parse(argc, argv, out_dir);
  opt.run_dir = out_dir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(opt.run_dir);
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) usage("unknown workload '" + opt.workload + "'");

  std::printf("ftdag benchmark: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " (smoke)" : "");
  SpanLog spans;
  if (opt.trace) w->spans = &spans;
  for (int i = 0; i < kSetups; ++i) {
    SpanLog::Scope scope(w->spans, "setup");
    ftdag::Timer t;
    w->setup();
    w->rec.setup_s.add(t.seconds());
    w->settle();
  }
  {
    SpanLog::Scope scope(w->spans, "window");
    w->measure(opt.seconds, opt.trace);
  }
  std::vector<ProbeResult> probes;
  if (opt.trace)
    probes = run_probes(w->probe_sizes(), w->pool(), opt.run_dir,
                        opt.smoke ? 0.02 : 0.25, w->spans);
  Record rec = std::move(w->rec);
  const std::string fs_type = filesystem_type(opt.run_dir);
  w.reset();  // joins the pool and removes the crash state
  std::filesystem::remove_all(opt.run_dir);

  std::vector<Metric> metrics;
  if (opt.trace) {
    for (const ProbeResult& p : probes)
      if (!(p.value > 0.0)) rec.violation("probe " + p.name + " failed");
    metrics = layer_metrics(rec, probes);
    if (rec.traced.empty()) rec.violation("no traced job completed");
  } else {
    metrics = end_to_end_metrics(rec, peak_rss_mb());
    for (const Metric& m : metrics)
      if (!(m.value > 0.0)) rec.violation(m.name + " has no samples");
  }
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) rec.violation(m.name + " is not finite");
  const std::uint64_t failed = rec.failed;
  const bool correct = rec.violations.empty() && failed == 0;

  for (const Metric& m : metrics)
    std::printf("  %-30s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("  jobs attempted=%llu failed=%llu failed_frac=%g\n",
              static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(failed),
              rec.attempted ? static_cast<double>(failed) /
                                  static_cast<double>(rec.attempted)
                            : 0.0);
  std::printf("  persist filesystem: %s\n", fs_type.c_str());
  std::vector<double> gauge_means;
  for (const std::vector<double>& r : rec.gauge_s)
    gauge_means.push_back(std::accumulate(r.begin(), r.end(), 0.0) /
                          static_cast<double>(r.size()));
  std::printf("  host gauge: median %.6f ms of %zu readings, reference %g ms\n",
              median(gauge_means) * 1e3, gauge_means.size(),
              kGaugeReferenceS * 1e3);
  if (opt.trace) {
    std::printf("  benchmark spans (count, total s, self s):\n");
    for (const auto& [name, t] : spans.self_times())
      std::printf("    %-20s %8llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s,
                  t.self_s);
    const std::string base = out_dir + "/" + opt.workload;
    write_file(base + "-engine-trace.json", rec.last_trace_json);
    write_file(base + "-bench-spans.json", spans.chrome_json());
    std::printf("  traces: %s-engine-trace.json %s-bench-spans.json\n",
                base.c_str(), base.c_str());
  }
  for (const std::string& v : rec.violations)
    std::printf("  VIOLATION: %s\n", v.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rec.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  i ? ", " : "", metrics[i].name.c_str(), v);
    json += buf + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
