#!/usr/bin/env python3
"""Smoke-sized self-test of the ftdag benchmark.

    python3 perfbench/selftest.py

Runs every workload on tiny problems for one second, untraced and traced,
and checks that:
  - each run exits 0 and its last stdout line is the result object, with
    correct=true and failed=0 (failed_frac = 0);
  - every metric BENCHMARK.json names is present, with its unit, and no other;
  - the exact counts (engine.recoveries, engine.reexec_frac, fault.injected,
    replication.replicas) repeat on a second traced run of the same seed, and
    faults were really injected;
  - group-commit probe jobs run, and persist.ack_wait_share is non-zero,
    only on durable-restart;
  - jobs are queued, and runtime.queue_s_p50 is non-zero, only on
    multijob-mix;
  - a second seed also runs clean;
  - run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]}
EXACT = ["engine.recoveries", "engine.reexec_frac", "fault.injected",
         "replication.replicas"]


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def run(workload, trace, seed=1, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result(workload, trace, seed=1):
    proc = run(workload, trace, seed)
    tag = f"{workload} trace={trace} seed={seed}"
    if proc.returncode != 0:
        fail(f"{tag} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{tag}: correct={res['correct']} failed={res['failed']} "
             f"attempted={res['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = res["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{tag}: metric names differ: "
             f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{tag}: {m['name']} unit {got[m['name']]['unit']} "
                 f"!= {m['unit']}")
    print(f"ok  {tag}: attempted={res['attempted']}")
    values = {k: v["value"] for k, v in got.items()}
    if trace:
        values["notes"] = notes(proc.stdout)
    return values


def notes(stdout):
    """The note column of each metric line: `  name value unit note`."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split(None, 3)
        if len(parts) >= 3 and parts[0] in LAYER_NAMES:
            out[parts[0]] = parts[3] if len(parts) == 4 else ""
    return out


def sample_count(values, metric):
    """The n=<count> a metric's note states."""
    for word in values["notes"][metric].split():
        if word.startswith("n="):
            return int(word[2:])
    fail(f"{metric} states no sample count")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    layers = {}
    for w in names:
        result(w, 0)
        layers[w] = result(w, 1)

    again = result("dense-faults", 1)
    for k in EXACT:
        if again[k] != layers["dense-faults"][k]:
            fail(f"dense-faults {k} did not repeat: "
                 f"{layers['dense-faults'][k]} vs {again[k]}")
    if layers["dense-faults"]["fault.injected"] <= 0:
        fail("dense-faults injected no faults")
    for w in names:
        durable = w == "durable-restart"
        gc_jobs = sample_count(layers[w], "persist.group_commit_job_s")
        if (gc_jobs > 0) != durable:
            fail(f"{w}: {gc_jobs} group-commit jobs ran")
        share = layers[w]["persist.ack_wait_share"]
        if durable and share <= 0:
            fail(f"{w}: persist.ack_wait_share = {share}")
        mix = w == "multijob-mix"
        queued = sample_count(layers[w], "runtime.queue_s_p50")
        if (queued > 0) != mix:
            fail(f"{w}: {queued} queued jobs sampled")
        queue = layers[w]["runtime.queue_s_p50"]
        if (queue > 0) != mix:
            fail(f"{w}: runtime.queue_s_p50 = {queue}")
    result("dense-faults", 0, seed=2)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run(names[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("run.py succeeded without the program sources")
    print("ok  fails without the program sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
