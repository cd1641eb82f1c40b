// Layer probes: timed loops over public functions whose cost is not
// reachable from outside a running job. Each is sized from the workload it
// runs beside (task-map entries, block size) and runs on that workload's
// idle pool and persist filesystem.

#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "blocks/block_store.hpp"
#include "concurrent/sharded_map.hpp"
#include "persist/wal.hpp"
#include "runtime/scheduler.hpp"
#include "support/xoshiro.hpp"

namespace perfbench {

using ftdag::Timer;

namespace {

// Repeats `pass` (which returns the operations it performed) until the
// budget is spent; returns ns per operation.
template <typename Pass>
double time_loop(double budget_s, std::uint64_t& ops, Pass pass) {
  ops = 0;
  Timer t;
  do ops += pass();
  while (t.seconds() < budget_s);
  return t.seconds() * 1e9 / static_cast<double>(ops);
}

ProbeResult map_find(const ProbeSizes& sz, double budget) {
  ftdag::ShardedMap<std::uint64_t> map;
  std::vector<ftdag::MapKey> keys(sz.tasks);
  for (std::uint64_t i = 0; i < sz.tasks; ++i) {
    keys[i] = static_cast<ftdag::MapKey>(ftdag::mix64(i + 1) >> 1);
    map.insert_if_absent(keys[i], [i] { return new std::uint64_t(i); });
  }
  ftdag::Xoshiro256 rng(sz.tasks);
  std::shuffle(keys.begin(), keys.end(), rng);
  std::uint64_t found = 0;
  ProbeResult r{"concurrent.map_find_ns", "ns", 0.0,
                "concurrent.map_find_ops", 0};
  r.value = time_loop(budget, r.ops, [&] {
    for (ftdag::MapKey k : keys) found += map.find(k) != nullptr;
    return keys.size();
  });
  if (found != r.ops) r.value = -1.0;  // a miss marks the probe invalid
  return r;
}

ProbeResult spawn(ftdag::WorkStealingPool& pool, const ProbeSizes& sz,
                  double budget) {
  const std::uint64_t jobs = std::max<std::uint64_t>(sz.tasks, 1 << 14);
  ProbeResult r{"runtime.spawn_ns", "ns", 0.0, "runtime.spawn_ops", 0};
  r.value = time_loop(budget, r.ops, [&] {
    pool.run_to_quiescence([&] {
      for (std::uint64_t i = 0; i < jobs; ++i) pool.spawn([] {});
    });
    return jobs;
  });
  return r;
}

// Every job lands on the root worker's deque, so the other workers only get
// work by stealing it; ns of loop time per successful steal.
ProbeResult steal(ftdag::WorkStealingPool& pool, const ProbeSizes& sz,
                  double budget) {
  const std::uint64_t jobs = std::max<std::uint64_t>(sz.tasks, 1 << 14);
  ProbeResult r{"runtime.steal_ns", "ns", 0.0, "runtime.steal_ops", 0};
  const std::uint64_t before = pool.stats().steals_succeeded;
  std::uint64_t spawned = 0;
  const double ns_per_job = time_loop(budget, spawned, [&] {
    pool.run_to_quiescence([&] {
      for (std::uint64_t i = 0; i < jobs; ++i)
        pool.spawn([] {
          volatile int x = 0;
          for (int j = 0; j < 64; ++j) x = x + j;
        });
    });
    return jobs;
  });
  r.ops = pool.stats().steals_succeeded - before;
  // No steal at all marks the probe invalid.
  r.value = r.ops == 0 ? -1.0
                       : ns_per_job * static_cast<double>(spawned) /
                             static_cast<double>(r.ops);
  return r;
}

// Blocks of the workload's size, retention 1 (the reuse scheme of the
// factorizations): read hits a Valid version, write displaces the slot's
// previous version and commits the next.
ProbeResult block_read(const ProbeSizes& sz, double budget) {
  ftdag::BlockStore store;
  store.set_retention(1);
  const std::uint32_t blocks =
      static_cast<std::uint32_t>(std::clamp<std::uint64_t>(sz.tasks, 64, 4096));
  for (std::uint32_t b = 0; b < blocks; ++b) {
    store.add_block(sz.block_bytes, 1);
    store.set_producer(b, 0, b);
    ftdag::WriteTicket t = store.begin_write(b, 0);
    store.commit(t);
  }
  std::uint64_t sink = 0;
  ProbeResult r{"blocks.read_ns", "ns", 0.0, "blocks.read_ops", 0};
  r.value = time_loop(budget, r.ops, [&] {
    for (std::uint32_t b = 0; b < blocks; ++b)
      sink += *static_cast<const unsigned char*>(store.read(b, 0));
    return blocks;
  });
  if (sink != 0) r.value = -1.0;  // storage starts zeroed and is never written
  return r;
}

ProbeResult block_write(const ProbeSizes& sz, double budget) {
  ftdag::BlockStore store;
  store.set_retention(1);
  constexpr std::uint32_t kBlocks = 256, kVersions = 16;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    store.add_block(sz.block_bytes, kVersions);
    for (std::uint32_t v = 0; v < kVersions; ++v)
      store.set_producer(b, v, b * kVersions + v);
  }
  std::uint32_t version = 0;
  ProbeResult r{"blocks.write_commit_ns", "ns", 0.0,
                "blocks.write_commit_ops", 0};
  r.value = time_loop(budget, r.ops, [&] {
    version = (version + 1) % kVersions;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      ftdag::WriteTicket t = store.begin_write(b, version);
      store.commit(t);
    }
    return kBlocks;
  });
  return r;
}

ProbeResult hash(const ProbeSizes& sz, double budget) {
  std::vector<std::byte> buf(sz.block_bytes);
  ftdag::Xoshiro256 rng(sz.block_bytes);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng());
  std::uint64_t sink = 0;
  ProbeResult r{"blocks.hash_ns_per_kb", "ns/KB", 0.0, "blocks.hash_ops", 0};
  const double ns = time_loop(budget, r.ops, [&] {
    for (int i = 0; i < 64; ++i)
      sink += ftdag::BlockStore::hash_bytes(buf.data(), buf.size());
    return 64;
  });
  r.value = sink == 0 ? -1.0 : ns * 1024.0 / static_cast<double>(buf.size());
  return r;
}

// One WAL record of one block's payload appended and fsynced per op, on the
// workload's persist filesystem; reports the median op in microseconds.
ProbeResult fsync(const ProbeSizes& sz, const std::string& dir,
                  double budget) {
  ProbeResult r{"persist.fsync_us_p50", "us", -1.0, "persist.fsync_ops", 0};
  const std::string path = dir + "/probe.wal";
  ftdag::persist::WalWriter w;
  if (!w.open_fresh(path, 0, 0, nullptr)) return r;
  ftdag::persist::WalOutputPayload out;
  out.bytes.assign(sz.block_bytes, 'x');
  const std::string record = ftdag::persist::encode_wal_record(1, {}, {out});
  std::vector<double> us;
  Timer total;
  while (total.seconds() < budget || us.size() < 10) {
    Timer t;
    if (!w.append(record)) return r;
    w.sync();
    us.push_back(t.seconds() * 1e6);
  }
  w.close();
  std::filesystem::remove(path);
  r.value = median(us);
  r.ops = us.size();
  return r;
}

}  // namespace

std::vector<ProbeResult> run_probes(const ProbeSizes& sizes,
                                    ftdag::WorkStealingPool& pool,
                                    const std::string& dir, double budget_s,
                                    SpanLog* spans) {
  std::vector<ProbeResult> out;
  auto run = [&](const char* span, auto probe) {
    SpanLog::Scope scope(spans, span);
    out.push_back(probe());
  };
  run("probe.map_find", [&] { return map_find(sizes, budget_s); });
  run("probe.spawn", [&] { return spawn(pool, sizes, budget_s); });
  run("probe.steal", [&] { return steal(pool, sizes, budget_s); });
  run("probe.block_read", [&] { return block_read(sizes, budget_s); });
  run("probe.block_write", [&] { return block_write(sizes, budget_s); });
  run("probe.hash", [&] { return hash(sizes, budget_s); });
  run("probe.fsync", [&] { return fsync(sizes, dir, budget_s); });
  return out;
}

std::string filesystem_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  const unsigned long magic = static_cast<unsigned long>(st.f_type);
  struct Known {
    unsigned long magic;
    const char* name;
  };
  static constexpr Known kKnown[] = {
      {0xEF53, "ext4"},        {0x01021994, "tmpfs"},
      {0x794C7630, "overlayfs"}, {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},   {0x6969, "nfs"},
      {0x2FC12FC1, "zfs"},     {0xF2F52010, "f2fs"},
  };
  char buf[64];
  std::snprintf(buf, sizeof buf, "0x%lx", magic);
  for (const Known& k : kKnown)
    if (k.magic == magic) return std::string(k.name) + " (" + buf + ")";
  return buf;
}

}  // namespace perfbench
