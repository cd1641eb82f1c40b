#!/usr/bin/env python3
"""Build and run the ftdag benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/, then runs the benchmark
binary, whose last stdout line is the JSON result. Build output goes to
stderr. Exits non-zero, printing no result, when the build fails.

`--workload all` runs every workload of BENCHMARK.json untraced and traced,
so one command prints every end-to-end and per-layer metric; its last line
maps each workload and mode to that run's result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    cmd_cfg = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd_cfg += ["-G", "Ninja"]
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(cmd_cfg, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ftdag_perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "ftdag_perfbench"


def flag_value(args, flag):
    for i, a in enumerate(args):
        if a == flag and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def with_flag(args, flag, value):
    """Returns args with every `flag` setting replaced by `flag value`."""
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a == flag:
            skip = True
        elif not a.startswith(flag + "="):
            out.append(a)
    return out + [flag, value]


def run_all(binary, args, out_dir):
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    summary, code = {}, 0
    for name in names:
        for trace in ("0", "1"):
            cmd = with_flag(with_flag(args, "--workload", name), "--trace", trace)
            proc = subprocess.run([str(binary), *cmd, "--out-dir", str(out_dir)],
                                  stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines() or ["null"]
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
            summary[f"{name}/trace{trace}"] = result
            code = code or proc.returncode or (1 if result is None else 0)
    print(json.dumps(summary))
    return code


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 3
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = sys.argv[1:]
    if flag_value(args, "--workload") == "all":
        return run_all(binary, args, out_dir)
    proc = subprocess.run([str(binary), *args, "--out-dir", str(out_dir)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
