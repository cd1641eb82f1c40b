// Sample statistics, the benchmark-side span log and the assembly of the
// named metrics from a run's Record.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (hi + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

// --- spans ----------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t job)
    : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = name;
  s.begin = log_->clock_.seconds();
  s.parent = log_->open_.empty() ? -1 : log_->open_.back();
  s.job = job;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(s));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end = log_->clock_.seconds();
  log_->open_.pop_back();
}

void SpanLog::Scope::set_job(std::uint64_t job) {
  if (log_ != nullptr) log_->spans_[static_cast<std::size_t>(index_)].job = job;
}

std::map<std::string, SpanLog::SelfTime> SpanLog::self_times() const {
  // Children run strictly inside their parent on the one benchmark thread,
  // so the covered part of a parent is the sum of its children.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.begin;
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].begin;
    SelfTime& t = out[spans_[i].name];
    t.count += 1;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.begin * 1e6,
                  (s.end - s.begin) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.job));
    out += buf;
  }
  out += "]}\n";
  return out;
}

// --- metrics ----------------------------------------------------------------------

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string tail_note(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.1f of n=%zu", t.percentile, t.n);
  return buf;
}

std::string seconds_text(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f s", s);
  return buf;
}

// Sample count and the raw (not host-normalised) median.
std::string sample_note(const Samples& s) {
  return "n=" + std::to_string(s.raw.size()) + ", raw " +
         seconds_text(median(s.raw));
}

// Median over traced jobs of one report field.
template <typename F>
double job_median(const Record& rec, F field) {
  std::vector<double> v;
  for (const TracedJob& j : rec.traced)
    v.push_back(static_cast<double>(field(j.report)));
  return median(v);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const Record& rec, double peak_rss_mb) {
  const std::vector<double> job = rec.normalised(rec.job_s);
  const std::vector<double> busy = rec.normalised(rec.busy_s);
  const double busy_s = std::accumulate(busy.begin(), busy.end(), 0.0);
  const Tail tail = tail_of(job);
  auto p50 = [&](const Samples& s) { return median(rec.normalised(s)); };
  return {
      {"job_s_p50", median(job), "s", sample_note(rec.job_s)},
      {"job_s_tail", tail.value, "s",
       tail_note(tail) + ", raw " + seconds_text(tail_of(rec.job_s.raw).value)},
      {"tasks_per_s", ratio(static_cast<double>(rec.tasks_done), busy_s),
       "1/s", ""},
      {"jobs_per_s", ratio(static_cast<double>(rec.jobs_done), busy_s), "1/s",
       ""},
      {"serial_s_p50", p50(rec.serial_s), "s", sample_note(rec.serial_s)},
      {"restart_s_p50", p50(rec.restart_s), "s", sample_note(rec.restart_s)},
      {"setup_s", p50(rec.setup_s), "s",
       "median of " + std::to_string(rec.setup_s.raw.size()) +
           " set-ups, raw " + seconds_text(median(rec.setup_s.raw))},
      {"peak_rss_mb", peak_rss_mb, "MB", ""},
  };
}

std::vector<Metric> layer_metrics(const Record& rec,
                                  const std::vector<ProbeResult>& probes) {
  const double jobs = static_cast<double>(rec.traced.size());
  double compute = 0, recovery = 0, replica = 0, wall = 0;
  double gc_ack_s = 0, gc_records = 0, gc_fsyncs = 0, gc_wall = 0;
  const double gc_jobs = static_cast<double>(rec.group_commit.size());
  for (std::size_t i = 0; i < rec.group_commit.size(); ++i) {
    const ftdag::ExecReport& r = rec.group_commit[i];
    gc_ack_s += static_cast<double>(r.wal_ack_wait_ns) * 1e-9;
    gc_records += static_cast<double>(r.wal_records);
    gc_fsyncs += static_cast<double>(r.wal_fsyncs);
    gc_wall += rec.group_commit_s[i];
  }
  ftdag::SchedStats sched = rec.traced_phase_sched;
  for (const TracedJob& j : rec.traced) {
    compute += j.compute_s;
    recovery += j.recovery_s;
    replica += j.replica_s;
    wall += j.wall_s;
    sched += j.sched;
  }
  // Worker time available to the traced jobs: P x their wall time, or
  // P x the phase wall when they shared the pool concurrently.
  const double budget =
      kWorkers * (rec.traced_busy_wall_s > 0 ? rec.traced_busy_wall_s : wall);
  const double spawns =
      static_cast<double>(sched.jobs_pooled + sched.jobs_heap);
  const Tail queue_tail = tail_of(rec.queue_s);
  auto per_job = [&](double total) { return ratio(total, jobs); };
  auto report_median = [](const std::vector<ftdag::ExecReport>& reports,
                          auto field) {
    std::vector<double> v;
    for (const ftdag::ExecReport& r : reports)
      v.push_back(static_cast<double>(field(r)));
    return median(v);
  };
  auto restart_median = [&](auto field) {
    return report_median(rec.restarts, field);
  };
  auto commit_median = [&](auto field) {
    return report_median(rec.group_commit, field);
  };
  using R = ftdag::ExecReport;

  std::vector<Metric> m = {
      {"apps.compute_s", per_job(compute), "s", "per job"},
      {"apps.compute_us_p50", median(rec.compute_span_us), "us",
       "n=" + std::to_string(rec.compute_span_us.size()) + " spans"},
      {"apps.compute_share", ratio(compute, budget), "ratio", ""},
      {"engine.noncompute_s", per_job(budget - compute - recovery - replica),
       "s", "per job"},
      {"engine.tasks", job_median(rec, [](const R& r) { return r.tasks_discovered; }),
       "count", "per job"},
      {"engine.computes", job_median(rec, [](const R& r) { return r.computes; }),
       "count", "per job"},
      {"engine.reexec_frac",
       job_median(rec, [](const R& r) {
         return ratio(static_cast<double>(r.re_executed),
                      static_cast<double>(r.tasks_discovered));
       }),
       "ratio", ""},
      {"engine.recovery_s", per_job(recovery), "s", "per job"},
      {"engine.recoveries", job_median(rec, [](const R& r) { return r.recoveries; }),
       "count", "per job"},
      {"engine.resets", job_median(rec, [](const R& r) { return r.resets; }),
       "count", "per job"},
      {"engine.faults_caught",
       job_median(rec, [](const R& r) { return r.faults_caught; }), "count",
       "per job"},
      {"fault.injected", job_median(rec, [](const R& r) { return r.injected; }),
       "count", "per job"},
      {"engine.recoveries_per_fault",
       job_median(rec, [](const R& r) {
         return ratio(static_cast<double>(r.recoveries),
                      static_cast<double>(r.injected));
       }),
       "ratio", ""},
      {"runtime.pool_jobs", per_job(static_cast<double>(sched.jobs_executed)),
       "count", "per job"},
      {"runtime.steals", per_job(static_cast<double>(sched.steals_succeeded)),
       "count", "per job"},
      {"runtime.steal_success",
       ratio(static_cast<double>(sched.steals_succeeded),
             static_cast<double>(sched.steals_attempted)),
       "ratio", ""},
      {"runtime.probe_rounds", per_job(static_cast<double>(sched.probe_rounds)),
       "count", "per job"},
      {"runtime.heap_spawn_frac",
       ratio(static_cast<double>(sched.jobs_heap), spawns), "ratio", ""},
      {"runtime.queue_s_p50", median(rec.queue_s), "s",
       "n=" + std::to_string(rec.queue_s.size()) + " submitted jobs"},
      {"runtime.queue_s_tail", queue_tail.value, "s", tail_note(queue_tail)},
      {"runtime.run_s_p50", median(rec.run_s), "s", ""},
      {"replication.replicas",
       job_median(rec, [](const R& r) { return r.replicated; }), "count",
       "per job"},
      {"replication.replica_s", per_job(replica), "s", "per job"},
      {"replication.mismatches",
       job_median(rec, [](const R& r) { return r.digest_mismatches; }),
       "count", "per job"},
      {"blocks.storage_mb", static_cast<double>(rec.storage_bytes) / 1e6, "MB",
       ""},
      {"persist.wal_records",
       job_median(rec, [](const R& r) { return r.wal_records; }), "count",
       "per job"},
      {"persist.wal_mb",
       job_median(rec, [](const R& r) { return r.wal_bytes; }) / 1e6, "MB",
       "per job"},
      {"persist.fsyncs", commit_median([](const R& r) { return r.wal_fsyncs; }),
       "count", "per group-commit job"},
      {"persist.records_per_fsync", ratio(gc_records, gc_fsyncs), "ratio", ""},
      {"persist.flush_batches",
       commit_median([](const R& r) { return r.wal_flush_batches; }), "count",
       "per group-commit job"},
      {"persist.ack_wait_s", ratio(gc_ack_s, gc_jobs), "s",
       "per group-commit job, summed over workers"},
      {"persist.ack_wait_share", ratio(gc_ack_s, kWorkers * gc_wall), "ratio",
       ""},
      {"persist.snapshots",
       commit_median([](const R& r) { return r.snapshots_written; }), "count",
       "per group-commit job"},
      {"persist.group_commit_job_s", median(rec.group_commit_s), "s",
       "n=" + std::to_string(rec.group_commit_s.size())},
      {"persist.restored_tasks",
       restart_median([](const R& r) { return r.tasks_skipped_on_restart; }),
       "count", "per restart"},
      {"persist.restart_recomputed",
       restart_median([](const R& r) { return r.computes; }), "count",
       "per restart"},
  };
  for (const ProbeResult& p : probes) {
    m.push_back({p.name, p.value, p.unit, ""});
    m.push_back({p.ops_name, static_cast<double>(p.ops), "count", ""});
  }
  const double untraced = median(rec.job_s.raw);
  const double traced = median(rec.traced_job_s);
  m.push_back({"trace.job_s_p50", traced, "s",
               "n=" + std::to_string(rec.traced_job_s.size())});
  m.push_back({"trace.overhead_s", traced - untraced, "s",
               "traced minus untraced job_s_p50 (untraced n=" +
                   std::to_string(rec.job_s.raw.size()) + ")"});
  return m;
}

}  // namespace perfbench
