// The host-speed gauge and the normalisation of timed samples by it.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "support/xoshiro.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kChaseEntries = std::size_t{1} << 20;  // 4 MiB
constexpr int kChaseLoads = 16384;
constexpr int kTile = 64;
constexpr int kTilePasses = 6;
constexpr int kDpWidth = 512;

volatile double g_sink;  // keeps the kernel's results alive

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One pass: six 64x64 tile updates (the shape of the Cholesky kernels), one
// LCS-style DP sweep over 512x512 cells (the wavefront apps) and a chain
// of dependent loads (the task map and scheduler). Returns its CPU time.
double kernel_pass(const std::vector<std::uint32_t>& chase, unsigned salt) {
  std::vector<double> a(kTile * kTile, 1.0001), b(kTile * kTile, 0.9999),
      c(kTile * kTile, 0.0);
  std::vector<std::int32_t> row(kDpWidth + 1, 0), prev(kDpWidth + 1, 0);
  const double t0 = thread_cpu_s();
  for (int r = 0; r < kTilePasses; ++r)
    for (int i = 0; i < kTile; ++i)
      for (int k = 0; k < kTile; ++k) {
        const double x = a[i * kTile + k] * 1e-3;
        for (int j = 0; j < kTile; ++j)
          c[i * kTile + j] -= x * b[k * kTile + j];
      }
  for (int i = 1; i <= kDpWidth; ++i) {
    for (int j = 1; j <= kDpWidth; ++j)
      row[j] = ((i * 7) & 3) == ((j * 13) & 3)
                   ? prev[j - 1] + 1
                   : std::max(prev[j], row[j - 1]);
    std::swap(row, prev);
  }
  std::uint32_t p = salt % kChaseEntries;
  for (int i = 0; i < kChaseLoads; ++i) p = chase[p];
  g_sink = c[kTile + 1] + prev[kDpWidth] + p;
  return thread_cpu_s() - t0;
}

}  // namespace

HostGauge::HostGauge() : chase_(kChaseEntries) {
  // Sattolo's shuffle: a single cycle through every entry.
  std::iota(chase_.begin(), chase_.end(), 0u);
  ftdag::Xoshiro256 rng(0x6A09E667ull);
  for (std::size_t i = kChaseEntries - 1; i > 0; --i)
    std::swap(chase_[i], chase_[rng() % i]);
}

std::vector<double> HostGauge::read() {
  std::vector<std::vector<double>> passes(kWorkers);
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kWorkers; ++i)
      threads.emplace_back([&, i] {
        const PinnedToCpu pin(i);
        passes[i].push_back(kernel_pass(chase_, i * 7919u));
      });
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> out;
  for (const std::vector<double>& p : passes) out.push_back(median(p));
  return out;
}

PinnedToCpu::PinnedToCpu(std::size_t i) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const std::size_t count = static_cast<std::size_t>(CPU_COUNT(&saved_));
  std::size_t skip = (i % kWorkers) % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void Record::settle(std::vector<double> reading) {
  gauge_s.push_back(std::move(reading));
  gauge_at_s.push_back(clock.seconds());
  for (Samples* s : {&job_s, &serial_s, &restart_s, &setup_s, &busy_s})
    s->reading.resize(s->raw.size(), gauge_s.size() - 1);
}

std::vector<double> Record::normalised(const Samples& s) const {
  // The gauge value a sample on `cpu` (-1: all gauge CPUs) sees at each
  // settle, smoothed by the settles near it in time.
  auto value = [&](std::size_t settle, int cpu) {
    const std::vector<double>& r = gauge_s[settle];
    return cpu < 0 ? std::accumulate(r.begin(), r.end(), 0.0) /
                         static_cast<double>(r.size())
                   : r[static_cast<std::size_t>(cpu)];
  };
  auto factor = [&](std::size_t settle, int cpu) {
    std::vector<double> near;
    for (std::size_t j = 0; j < gauge_s.size(); ++j)
      if (std::abs(gauge_at_s[j] - gauge_at_s[settle]) <= kGaugeWindowS)
        near.push_back(value(j, cpu));
    return std::pow(kGaugeReferenceS / median(near), kGaugeExponent);
  };
  std::vector<double> out;
  for (std::size_t i = 0; i < s.reading.size(); ++i)
    out.push_back(s.raw[i] * factor(s.reading[i], s.cpu[i]));
  return out;
}

}  // namespace perfbench
