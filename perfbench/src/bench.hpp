#pragma once
// Shared declarations of the ftdag benchmark binary: run options, the
// per-run sample record every workload fills, the benchmark-side span log
// and the layer probes. See perfbench/README.md for what is measured and why.

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/exec_report.hpp"
#include "runtime/sched_stats.hpp"
#include "support/timer.hpp"

namespace ftdag {
class WorkStealingPool;
}

namespace perfbench {

// Worker threads of every pool the benchmark starts (one per core of the
// 4-vCPU machine the workloads were sized for).
constexpr unsigned kWorkers = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // tiny problems for the self-test
  std::string run_dir;    // scratch space inside the checkout
};

// --- sample statistics --------------------------------------------------------

double median(std::vector<double> v);

// The highest order statistic with at least ten samples above it; falls back
// to the maximum when fewer than eleven samples exist.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
};
Tail tail_of(std::vector<double> v);

// --- host-speed gauge -----------------------------------------------------------

// The benchmark shares its host with other tenants, whose load moves every
// timing by 10-20% over seconds to minutes, and each vCPU on its own. The
// gauge measures each CPU's speed at one moment: a fixed kernel of the
// benchmark's own (dense floating point, an integer DP row sweep, dependent
// loads over 4 MiB) run on kWorkers threads at once, thread i pinned to
// gauge CPU i, and timed in per-thread CPU time, so that threads of this
// process competing for a core do not count. The kernel never calls the
// library: a change to the program moves host-normalised times exactly as
// it moves raw ones.
class HostGauge {
 public:
  HostGauge();
  // CPU seconds of one kernel pass (median of 3 passes) per gauge CPU.
  std::vector<double> read();

 private:
  std::vector<std::uint32_t> chase_;  // one random cycle for the load kernel
};

// Pins the calling thread to gauge CPU `i` (mod kWorkers): the
// (i mod kWorkers)-th CPU, modulo their count, of the thread's affinity
// mask. Restores the mask when it goes out of scope.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t i);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// A typical reading of the gauge on the 4-vCPU host the benchmark was tuned
// on. A timed sample s is reported as
// s * (kGaugeReferenceS / g)^kGaugeExponent: host-normalised seconds, what
// the sample would take at that host's typical speed. g is the median, over
// the settles within kGaugeWindowS of the first settle after the sample, of
// the reading of the CPU the sample was pinned to, or of the mean over the
// gauge CPUs for an unpinned sample.
constexpr double kGaugeReferenceS = 1.8e-3;
constexpr double kGaugeWindowS = 1.0;
// Jobs slow down less than the gauge when the host is loaded: regressing
// the log of a run's raw job_s_p50 on the log of its median reading gave
// slopes from 0.31 to 1.04 over 19 series of five to ten runs of the four
// workloads, with a median of 0.78.
constexpr double kGaugeExponent = 0.75;

// Raw samples of one timed quantity, each tied to the first settle after it
// (Record::settle).
struct Samples {
  std::vector<double> raw;
  std::vector<int> cpu;              // gauge CPU it was pinned to, or -1
  std::vector<std::size_t> reading;  // index into Record::gauge_s

  void add(double seconds, int pinned_cpu = -1) {
    raw.push_back(seconds);
    cpu.push_back(pinned_cpu);
  }
};

// --- benchmark-side spans -----------------------------------------------------

// Spans recorded by the benchmark around each call into a layer (run_sync,
// submit, wait, kill, resume, probes). Kept in memory, written at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double begin = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t job = 0;
  };

  // RAII bracket; nested scopes become children of the enclosing one.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t job = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_job(std::uint64_t job);

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  // Self time (duration minus the covered part of its children) summed per
  // span name, with the span count.
  struct SelfTime {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, SelfTime> self_times() const;
  std::string chrome_json() const;

 private:
  ftdag::Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- per-run record -------------------------------------------------------------

// What one traced job contributes to the layer metrics.
struct TracedJob {
  double wall_s = 0.0;  // the job's wall time; P x wall is its worker budget
  double compute_s = 0.0;
  double recovery_s = 0.0;
  double replica_s = 0.0;
  ftdag::ExecReport report;
  ftdag::SchedStats sched;  // pool delta over the job (run_sync only)
};

struct Record {
  // End-to-end samples (untraced jobs).
  Samples job_s;
  Samples serial_s;
  Samples restart_s;
  Samples setup_s;
  Samples busy_s;                 // wall time primary jobs were in flight
  std::uint64_t tasks_done = 0;   // distinct tasks of completed primary jobs
  std::uint64_t jobs_done = 0;    // completed primary jobs
  std::vector<std::vector<double>> gauge_s;  // every reading, per gauge CPU
  std::vector<double> gauge_at_s;            // when each was taken, on `clock`
  ftdag::Timer clock;

  // Ties the samples added since the last call to `reading`.
  void settle(std::vector<double> reading);
  // The samples in host-normalised seconds.
  std::vector<double> normalised(const Samples& s) const;

  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  // Traced run.
  std::vector<double> traced_job_s;
  std::vector<TracedJob> traced;
  std::vector<double> compute_span_us;
  double traced_busy_wall_s = 0.0;       // multijob: traced chunks' wall
  ftdag::SchedStats traced_phase_sched;  // multijob: pool delta over them
  std::vector<double> queue_s;           // traced submitted jobs: queue wait
  std::vector<double> run_s;             // traced jobs: start to terminal
  std::vector<ftdag::ExecReport> restarts;
  std::vector<ftdag::ExecReport> group_commit;  // durable-restart probe jobs
  std::vector<double> group_commit_s;
  std::uint64_t storage_bytes = 0;
  std::string last_trace_json;  // engine trace of the last traced job

  void violation(std::string what) { violations.push_back(std::move(what)); }
};

// --- workloads -------------------------------------------------------------------

// Sizes the probes take from the workload they run beside.
struct ProbeSizes {
  std::uint64_t tasks = 0;        // task-map entries
  std::uint64_t block_bytes = 0;  // block size, also the WAL record payload
};

struct ProbeResult {
  std::string name;      // metric name, e.g. concurrent.map_find_ns
  std::string unit;
  double value = 0.0;
  std::string ops_name;  // metric name of the operation count
  std::uint64_t ops = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds inputs, computes the reference checksum, starts the pool and runs
  // the discarded warm-up jobs. Tears down the previous set-up first.
  virtual void setup() = 0;
  // Runs the timed window. With `traced`, alternates traced and untraced
  // jobs (or chunks of jobs) and skips the serial baseline samples.
  virtual void measure(double seconds, bool traced) = 0;
  virtual ProbeSizes probe_sizes() const = 0;
  // The workload's pool, idle between measure() calls.
  virtual ftdag::WorkStealingPool& pool() = 0;

  // Reads the host gauge and ties the samples taken since the last reading
  // to it; called after each set-up and each step of the timed window.
  void settle() { rec.settle(gauge_.read()); }

  Record rec;
  SpanLog* spans = nullptr;  // non-null in the traced run

 private:
  HostGauge gauge_;
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const Options& opt);

// Layer probes shared by all workloads, each a timed loop over one public
// function; `pool` must be idle and `dir` on the workload's persist
// filesystem. `budget_s` caps each probe's timed loop.
std::vector<ProbeResult> run_probes(const ProbeSizes& sizes,
                                    ftdag::WorkStealingPool& pool,
                                    const std::string& dir, double budget_s,
                                    SpanLog* spans);

// Filesystem type of `dir` (statfs magic), as a name when known.
std::string filesystem_type(const std::string& dir);

// --- metrics ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, not part of the result
};

// The end-to-end metrics of an untraced run (BENCHMARK.json end_to_end).
std::vector<Metric> end_to_end_metrics(const Record& rec, double peak_rss_mb);
// The per-layer metrics of a traced run (BENCHMARK.json per_layer).
std::vector<Metric> layer_metrics(const Record& rec,
                                  const std::vector<ProbeResult>& probes);

}  // namespace perfbench
