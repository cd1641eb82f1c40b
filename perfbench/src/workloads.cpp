// The four benchmark workloads. Each one drives the public API only:
// make_app, Runtime::run_sync / submit, RunSpec (FaultPlanner +
// PlannedFaultInjector, ReplicationPolicy, persist::DurabilityOptions,
// ExecutionTrace), ExecReport, WorkStealingPool::stats() and the JobSession
// timestamps. Every job runs with validate=true, so a wrong result fails its
// job; failed jobs and counters that do not repeat are recorded as
// violations.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <tuple>

#include "apps/app_config.hpp"
#include "apps/app_registry.hpp"
#include "bench.hpp"
#include "fault/fault_plan.hpp"
#include "persist/commit_pipeline.hpp"
#include "replication/replication_policy.hpp"
#include "runtime/runtime.hpp"
#include "support/xoshiro.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using ftdag::ExecReport;
using ftdag::JobHandle;
using ftdag::JobState;
using ftdag::RunSpec;
using ftdag::Runtime;
using ftdag::SchedStats;
using ftdag::TaskGraphProblem;
using ftdag::Timer;
namespace fs = std::filesystem;

namespace {

SchedStats operator-(const SchedStats& a, const SchedStats& b) {
  SchedStats d;
  d.jobs_executed = a.jobs_executed - b.jobs_executed;
  d.steals_attempted = a.steals_attempted - b.steals_attempted;
  d.steals_succeeded = a.steals_succeeded - b.steals_succeeded;
  d.injections = a.injections - b.injections;
  d.steal_batch = a.steal_batch - b.steal_batch;
  d.probe_rounds = a.probe_rounds - b.probe_rounds;
  d.jobs_pooled = a.jobs_pooled - b.jobs_pooled;
  d.jobs_heap = a.jobs_heap - b.jobs_heap;
  return d;
}

Runtime::Options runtime_options(std::uint64_t seed, std::size_t inflight) {
  Runtime::Options o;
  o.threads = kWorkers;
  o.max_inflight = inflight;
  o.seed = ftdag::mix64(seed ^ 0x5EEDF00Dull);
  return o;
}

// Splits one traced job's engine trace into the layer totals.
void absorb_trace(const ftdag::ExecutionTrace& trace, TracedJob& job,
                  Record& rec) {
  for (const ftdag::TraceRecord& r : trace.merged()) {
    const double d = r.end - r.begin;
    switch (r.kind) {
      case ftdag::TraceKind::kCompute:
        job.compute_s += d;
        rec.compute_span_us.push_back(d * 1e6);
        break;
      case ftdag::TraceKind::kRecovery:
        job.recovery_s += d;
        break;
      case ftdag::TraceKind::kReplica:
        job.replica_s += d;
        break;
      default:
        break;
    }
  }
}

// Shared plumbing: the owned Runtime, outcome accounting and the check that
// the fault/recovery/replication counts of one problem repeat exactly.
class RuntimeWorkload : public Workload {
 public:
  explicit RuntimeWorkload(const Options& opt) : opt_(opt) {}

  ftdag::WorkStealingPool& pool() override { return rt_->pool(); }

 protected:
  // Accounts one terminal job; returns its first report when it completed.
  const ExecReport* account(const JobHandle& h, const std::string& what) {
    ++rec.attempted;
    if (h->state() != JobState::kCompleted) {
      ++rec.failed;
      rec.violation(what + " job " + std::to_string(h->id()) + " ended " +
                    ftdag::job_state_name(h->state()) + ": " + h->error());
      return nullptr;
    }
    return &h->runs().reports.front();
  }

  void check_repeat(const std::string& key, const ExecReport& r) {
    const auto counts =
        std::make_tuple(r.recoveries, r.re_executed, r.injected, r.replicated);
    auto [it, fresh] = expected_counts_.emplace(key, counts);
    if (!fresh && it->second != counts)
      rec.violation(
          key + ": recoveries/re-executions/injected/replicas " +
          std::to_string(r.recoveries) + "/" + std::to_string(r.re_executed) +
          "/" + std::to_string(r.injected) + "/" +
          std::to_string(r.replicated) + " differ from the first job's " +
          std::to_string(std::get<0>(it->second)) + "/" +
          std::to_string(std::get<1>(it->second)) + "/" +
          std::to_string(std::get<2>(it->second)) + "/" +
          std::to_string(std::get<3>(it->second)));
  }

  // Records one completed traced job for the layer metrics.
  void sample_traced(const JobHandle& h, const ExecReport& r, double wall_s,
                     std::unique_ptr<ftdag::ExecutionTrace> trace,
                     const SchedStats& sched) {
    TracedJob job;
    job.wall_s = wall_s;
    job.report = r;
    job.sched = sched;
    absorb_trace(*trace, job, rec);
    rec.traced.push_back(job);
    rec.traced_job_s.push_back(wall_s);
    rec.run_s.push_back(h->run_seconds());
    last_trace_ = std::move(trace);
  }

  // Exports the engine trace of the last traced job.
  void export_last_trace() {
    if (last_trace_) rec.last_trace_json = last_trace_->chrome_json();
  }

  Options opt_;
  std::unique_ptr<Runtime> rt_;
  std::size_t serial_turn_ = 0;  // gauge CPU of the next serial sample
  std::unique_ptr<ftdag::ExecutionTrace> last_trace_;
  std::map<std::string, std::tuple<std::uint64_t, std::uint64_t,
                                   std::uint64_t, std::uint64_t>>
      expected_counts_;
};

// --- run_sync workloads: clean-wavefront, dense-faults, durable-restart -------

struct SyncConfig {
  std::string app;
  ftdag::AppConfig cfg;
  bool faults = false;
  ftdag::ReplicationPolicy replication;  // each plan salts it with its seed
  // Journal each job with wal-sync=none and no snapshots, plus a timed
  // resume; the group-commit probe uses every with snapshot-every=256.
  bool durable = false;
};

class SyncWorkload final : public RuntimeWorkload {
 public:
  static constexpr int kGroupCommitJobs = 3;
  static constexpr int kJobsPerSerial = 3;  // primary jobs per kSerial sample
  // Fault plans (each with its own replication salt) a faulted workload's
  // untimed and timed jobs rotate through. A plan's cost depends on where
  // its victims and replicas fall, so a run with one plan would move with
  // the seed by ~6%. The traced run uses plan 0 only, so its counts repeat
  // exactly.
  static constexpr std::size_t kFaultPlans = 5;

  SyncWorkload(const Options& opt, SyncConfig cfg)
      : RuntimeWorkload(opt), cfg_(std::move(cfg)) {}

  void setup() override {
    rt_.reset();
    plans_.clear();
    problem_.reset();
    problem_ = ftdag::make_app(cfg_.app, cfg_.cfg);
    make_plans();
    // The crash child forks before this process starts any thread.
    if (cfg_.durable) make_killed_state();
    (void)problem_->reference_checksum();
    rt_ = std::make_unique<Runtime>(runtime_options(opt_.seed, 1));
    // Warm-up: the first two runs on a fresh problem and pool are 3-4x
    // slower than the steady state; they are charged to set-up, never
    // sampled.
    for (std::size_t i = 0; i < 2; ++i)
      primary(false, false, i % plans_.size());
    serial(false);
    if (cfg_.durable) restart(false);
  }

  void measure(double seconds, bool traced) override {
    Timer window;
    for (int i = 1; window.seconds() < seconds; ++i) {
      primary(true, traced && i % 2 == 0, traced ? 0 : i % plans_.size());
      if (cfg_.durable) restart(true);
      if (!traced && i % kJobsPerSerial == 0) serial(true);
      settle();
    }
    if (cfg_.durable && traced)
      for (int i = 0; i < kGroupCommitJobs; ++i) group_commit_probe();
    // Without durable state a process killed halfway restarts the job
    // from scratch, so its restart time is a full job.
    if (!cfg_.durable) rec.restart_s = rec.job_s;
    rec.storage_bytes = problem_->block_store().total_storage_bytes();
    export_last_trace();
  }

  ProbeSizes probe_sizes() const override {
    return {tasks_, problem_->block_store().block_bytes(0)};
  }

 private:
  struct Plan {
    std::unique_ptr<ftdag::PlannedFaultInjector> injector;
    ftdag::ReplicationPolicy replication;
  };

  // Plan k draws its victims and replication salt from seed + k * 1000003;
  // plan 0 is the seed itself. Workloads without faults have one plan.
  void make_plans() {
    plans_.clear();
    const std::size_t count = cfg_.faults ? kFaultPlans : 1;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t seed = opt_.seed + k * 1000003ull;
      Plan plan;
      plan.replication = cfg_.replication;
      plan.replication.seed = ftdag::mix64(seed);
      if (cfg_.faults) {
        ftdag::FaultPlanner planner(*problem_);
        ftdag::FaultPlanSpec spec;
        spec.phase = ftdag::FaultPhase::kAfterCompute;
        spec.type = ftdag::VictimType::kVersionLast;
        spec.target_fraction = 0.05;
        spec.seed = seed;
        plan.injector = std::make_unique<ftdag::PlannedFaultInjector>(
            planner.plan(spec).faults);
      }
      plans_.push_back(std::move(plan));
    }
  }

  RunSpec primary_spec(std::size_t plan = 0) const {
    RunSpec s;
    s.kind = ftdag::ExecutorKind::kFaultTolerant;
    s.validate = true;
    s.injector = plans_[plan].injector.get();
    s.ft.replication = plans_[plan].replication;
    return s;
  }

  // The workload's jobs journal with wal-sync=none and no snapshots:
  // records survive the process kill in the page cache, and the timed path
  // (encode, ring publish, journal writev, replay) does not wait on the
  // disk, whose fsync latency swings with other tenants' I/O. The group
  // commit probe runs the fsync-bound configuration instead.
  ftdag::persist::DurabilityOptions durability(const std::string& dir,
                                               bool group_commit) const {
    ftdag::persist::DurabilityOptions d;
    d.dir = dir;
    d.sync = group_commit ? ftdag::persist::WalSync::kEvery
                          : ftdag::persist::WalSync::kNone;
    d.snapshot_every = group_commit ? 256 : 0;
    d.resume = true;
    return d;
  }

  std::string killed_dir() const { return opt_.run_dir + "/killed"; }
  std::string fresh_dir() {
    return opt_.run_dir + "/job-" + std::to_string(++dirs_);
  }

  JobHandle timed_run(RunSpec spec, const char* span, double& seconds) {
    SpanLog::Scope scope(spans, span);
    Timer t;
    JobHandle h = rt_->run_sync(*problem_, std::move(spec));
    seconds = t.seconds();
    scope.set_job(h->id());
    return h;
  }

  void primary(bool sample, bool traced, std::size_t plan) {
    RunSpec spec = primary_spec(plan);
    std::string dir;
    if (cfg_.durable) {
      dir = fresh_dir();
      spec.durability = durability(dir, false);
    }
    std::unique_ptr<ftdag::ExecutionTrace> trace;
    if (traced) {
      trace = std::make_unique<ftdag::ExecutionTrace>(kWorkers);
      spec.trace = trace.get();
    }
    const SchedStats before = rt_->pool().stats();
    double s = 0.0;
    JobHandle h = timed_run(std::move(spec), "run_sync", s);
    const SchedStats after = rt_->pool().stats();
    if (!dir.empty()) fs::remove_all(dir);

    const ExecReport* r = account(h, cfg_.app);
    if (r == nullptr) return;
    tasks_ = r->tasks_discovered;
    check_repeat(cfg_.app + " plan " + std::to_string(plan), *r);
    if (!sample) return;
    if (traced) {
      sample_traced(h, *r, s, std::move(trace), after - before);
      return;
    }
    rec.job_s.add(s);
    rec.busy_s.add(s);
    rec.tasks_done += r->tasks_discovered;
    rec.jobs_done += 1;
  }

  void serial(bool sample) {
    RunSpec spec;
    spec.kind = ftdag::ExecutorKind::kSerial;
    spec.validate = true;
    double s = 0.0;
    const std::size_t cpu = serial_turn_++ % kWorkers;
    const PinnedToCpu pin(cpu);
    JobHandle h = timed_run(std::move(spec), "run_sync.serial", s);
    if (account(h, cfg_.app + " serial") != nullptr && sample)
      rec.serial_s.add(s, static_cast<int>(cpu));
  }

  // Resumes a copy of the state a crash left at 50% of the records, runs it
  // to completion and checks it restored exactly what the crash left.
  void restart(bool sample) {
    const std::string dir = fresh_dir();
    fs::copy(killed_dir(), dir, fs::copy_options::recursive);
    RunSpec spec = primary_spec();
    spec.durability = durability(dir, false);
    double s = 0.0;
    JobHandle h = timed_run(std::move(spec), "resume", s);
    fs::remove_all(dir);
    const ExecReport* r = account(h, cfg_.app + " restart");
    if (r == nullptr) return;
    if (r->tasks_skipped_on_restart != killed_records_)
      rec.violation("restart restored " +
                    std::to_string(r->tasks_skipped_on_restart) +
                    " tasks, the crash left " +
                    std::to_string(killed_records_) + " records");
    if (!sample) return;
    rec.restart_s.add(s);
    rec.restarts.push_back(*r);
  }

  // One job with wal-sync=every and a snapshot every 256 records, the
  // configuration the group-commit and snapshot work targets; its counters
  // are the persist write-side layer metrics.
  void group_commit_probe() {
    const std::string dir = fresh_dir();
    RunSpec spec = primary_spec();
    spec.durability = durability(dir, true);
    double s = 0.0;
    JobHandle h = timed_run(std::move(spec), "probe.group_commit", s);
    fs::remove_all(dir);
    if (const ExecReport* r = account(h, cfg_.app + " group-commit")) {
      rec.group_commit.push_back(*r);
      rec.group_commit_s.push_back(s);
    }
  }

  // Forks a child that journals the job and SIGKILLs itself after half the
  // task records reached the WAL (the crash-restart harness's hook).
  void make_killed_state() {
    SpanLog::Scope scope(spans, "kill");
    std::error_code ec;
    fs::remove_all(killed_dir(), ec);
    fs::create_directories(killed_dir());
    std::vector<ftdag::TaskKey> keys;
    problem_->all_tasks(keys);
    tasks_ = keys.size();
    killed_records_ = tasks_ / 2;
    ftdag::persist::DurabilityOptions d = durability(killed_dir(), false);
    d.crash_after_records = killed_records_;

    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      int code = 1;
      try {
        Runtime rt(runtime_options(opt_.seed, 1));
        RunSpec spec = primary_spec();
        spec.validate = false;
        spec.durability = d;
        (void)rt.run_sync(*problem_, spec);
        code = 0;
      } catch (...) {
      }
      std::_Exit(code);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid ||
        !WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL)
      rec.violation("crash child was not killed at " +
                    std::to_string(killed_records_) + " records");
  }

  SyncConfig cfg_;
  std::unique_ptr<TaskGraphProblem> problem_;
  std::vector<Plan> plans_;
  std::uint64_t tasks_ = 0;
  std::uint64_t killed_records_ = 0;
  std::uint64_t dirs_ = 0;
};

// --- multijob-mix: closed loop through submit and the dispatchers -------------

class MixWorkload final : public RuntimeWorkload {
 public:
  static constexpr std::size_t kOutstanding = 4;
  static constexpr std::size_t kInflight = 2;
  static constexpr double kChunkSeconds = 0.5;

  MixWorkload(const Options& opt, double scale)
      : RuntimeWorkload(opt), scale_(scale) {}

  void setup() override {
    rt_.reset();
    instances_.clear();
    // One problem per outstanding job of each app: at most kOutstanding
    // jobs of one app can be in the system at once.
    for (const std::string& app : apps()) {
      ftdag::AppConfig cfg =
          ftdag::scale_config(ftdag::default_config(app), scale_);
      cfg.seed = opt_.seed;
      for (std::size_t i = 0; i < kOutstanding; ++i) {
        Instance in;
        in.app = app;
        in.problem = ftdag::make_app(app, cfg);
        (void)in.problem->reference_checksum();
        instances_.push_back(std::move(in));
      }
    }
    rt_ = std::make_unique<Runtime>(runtime_options(opt_.seed, kInflight));
    // Warm-up: every instance runs twice (the cold runs of the sync
    // workloads), then the dispatchers take a short burst through the
    // queue, then one serial rotation.
    for (Instance& in : instances_) {
      RunSpec spec;
      spec.kind = ftdag::ExecutorKind::kFaultTolerant;
      spec.validate = true;
      for (int i = 0; i < 2; ++i) {
        const JobHandle h = rt_->run_sync(*in.problem, spec);
        if (const ExecReport* r = account(h, in.app))
          in.tasks = r->tasks_discovered;
      }
    }
    closed_loop(0.0, 2 * kOutstanding, false, false);
    serial_rotation(false);
  }

  // The loop runs in chunks, so slow host phases fall on every kind of
  // sample alike: untraced runs follow each chunk with one serial rotation
  // on the idle pool; traced runs alternate untraced and traced chunks.
  void measure(double seconds, bool traced) override {
    const double chunk = std::min(kChunkSeconds, seconds / 4);
    Timer window;
    for (int i = 0; window.seconds() < seconds; ++i) {
      closed_loop(chunk, 0, true, traced && i % 2 == 1);
      settle();
      if (traced) continue;
      serial_rotation(true);
      settle();
    }
    rec.restart_s = rec.job_s;  // no durable state: a restart is a re-run
    for (const Instance& in : instances_)
      rec.storage_bytes += in.problem->block_store().total_storage_bytes();
    export_last_trace();
  }

  ProbeSizes probe_sizes() const override {
    ProbeSizes s;
    for (const Instance& in : instances_) {
      s.tasks = std::max(s.tasks, in.tasks);
      s.block_bytes = std::max<std::uint64_t>(
          s.block_bytes, in.problem->block_store().block_bytes(0));
    }
    return s;
  }

 private:
  struct Instance {
    std::string app;
    std::unique_ptr<TaskGraphProblem> problem;
    bool busy = false;
    std::uint64_t tasks = 0;
  };
  struct Slot {
    JobHandle job;
    Instance* instance = nullptr;
    std::unique_ptr<ftdag::ExecutionTrace> trace;
  };

  static const std::vector<std::string>& apps() {
    static const std::vector<std::string> kApps = {"lcs", "sw", "fw",
                                                   "cholesky"};
    return kApps;
  }

  Instance& take(const std::string& app) {
    for (Instance& in : instances_)
      if (in.app == app && !in.busy) {
        in.busy = true;
        return in;
      }
    std::abort();  // unreachable: kOutstanding instances per app
  }

  // Keeps kOutstanding jobs submitted until `seconds` passed (or `jobs`
  // were submitted when nonzero), waiting on the oldest each time; FIFO
  // dispatch means the oldest is always running, so both slots stay busy.
  void closed_loop(double seconds, std::size_t jobs, bool sample,
                   bool traced) {
    std::deque<Slot> outstanding;
    std::size_t submitted = 0;
    const SchedStats before = rt_->pool().stats();
    Timer phase;
    auto more = [&] {
      return jobs > 0 ? submitted < jobs : phase.seconds() < seconds;
    };
    while (more() || !outstanding.empty()) {
      while (more() && outstanding.size() < kOutstanding) {
        Slot slot;
        slot.instance = &take(apps()[next_app_++ % apps().size()]);
        RunSpec spec;
        spec.kind = ftdag::ExecutorKind::kFaultTolerant;
        spec.validate = true;
        if (traced) {
          slot.trace = std::make_unique<ftdag::ExecutionTrace>(kWorkers);
          spec.trace = slot.trace.get();
        }
        SpanLog::Scope scope(spans, "submit");
        slot.job = rt_->submit(*slot.instance->problem, std::move(spec));
        scope.set_job(slot.job->id());
        outstanding.push_back(std::move(slot));
        ++submitted;
      }
      Slot slot = std::move(outstanding.front());
      outstanding.pop_front();
      {
        SpanLog::Scope scope(spans, "wait", slot.job->id());
        slot.job->wait();
      }
      finish(slot, sample, traced);
    }
    const double wall = phase.seconds();
    if (!sample) return;
    if (traced) {
      rec.traced_busy_wall_s += wall;
      rec.traced_phase_sched += rt_->pool().stats() - before;
    } else {
      rec.busy_s.add(wall);
    }
  }

  void finish(Slot& slot, bool sample, bool traced) {
    slot.instance->busy = false;
    const JobHandle& h = slot.job;
    const ExecReport* r = account(h, slot.instance->app);
    if (r == nullptr) return;
    slot.instance->tasks = r->tasks_discovered;
    check_repeat(slot.instance->app, *r);
    if (!sample) return;
    const double s = h->queued_seconds() + h->run_seconds();
    if (traced) {
      // Pool counters of concurrent jobs are taken per chunk instead.
      sample_traced(h, *r, s, std::move(slot.trace), {});
      // Only submitted jobs wait in the queue; run_sync claims its job on
      // the calling thread, so the run_sync workloads record no queue time.
      rec.queue_s.push_back(h->queued_seconds());
      return;
    }
    rec.job_s.add(s);
    rec.tasks_done += r->tasks_discovered;
    rec.jobs_done += 1;
  }

  // One kSerial run of each app, timed as one sample: the mix's baseline.
  void serial_rotation(bool sample) {
    const std::size_t cpu = serial_turn_++ % kWorkers;
    const PinnedToCpu pin(cpu);
    double total = 0.0;
    for (const std::string& app : apps()) {
      Instance& in = take(app);
      RunSpec spec;
      spec.kind = ftdag::ExecutorKind::kSerial;
      spec.validate = true;
      SpanLog::Scope scope(spans, "run_sync.serial");
      Timer t;
      JobHandle h = rt_->run_sync(*in.problem, std::move(spec));
      total += t.seconds();
      scope.set_job(h->id());
      in.busy = false;
      (void)account(h, app + " serial");
    }
    if (sample) rec.serial_s.add(total, static_cast<int>(cpu));
  }

  double scale_;
  std::vector<Instance> instances_;
  std::size_t next_app_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "clean-wavefront", "dense-faults", "durable-restart", "multijob-mix"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  const bool smoke = opt.smoke;
  if (opt.workload == "clean-wavefront") {
    SyncConfig c;
    c.app = "lcs";
    c.cfg = {smoke ? 2048 : 8192, 32, opt.seed};
    return std::make_unique<SyncWorkload>(opt, c);
  }
  if (opt.workload == "dense-faults") {
    SyncConfig c;
    c.app = "cholesky";
    c.cfg = ftdag::scale_config(ftdag::default_config("cholesky"),
                                smoke ? 0.4 : 1.0);
    c.cfg.seed = opt.seed;
    c.faults = true;
    c.replication.mode = ftdag::ReplicationMode::kSample;
    c.replication.sample_rate = 0.25;
    c.replication.seed = ftdag::mix64(opt.seed);
    return std::make_unique<SyncWorkload>(opt, c);
  }
  if (opt.workload == "durable-restart") {
    SyncConfig c;
    c.app = "lcs";
    c.cfg = ftdag::scale_config(ftdag::default_config("lcs"),
                                smoke ? 0.25 : 1.0);
    c.cfg.seed = opt.seed;
    c.durable = true;
    return std::make_unique<SyncWorkload>(opt, c);
  }
  if (opt.workload == "multijob-mix")
    return std::make_unique<MixWorkload>(opt, smoke ? 0.25 : 0.5);
  return nullptr;
}

}  // namespace perfbench
