#!/usr/bin/env python3
"""Builds psc_perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload analyze|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
`psc_perfbench` (Release) under `.bench_build/perfbench`; later runs only
check that the build is current. Output: the program's stamp line, a line
`{"measured": [...]}` naming the metrics the program itself reported, then
one JSON object with `correct`, `attempted`, `failed` and `metrics` as the
last line. The metrics are those BENCHMARK.json declares, in its order:
`end_to_end` for `--trace 0`, `per_layer` for `--trace 1`, where a layer the
workload does not exercise reads 0 (and is absent from "measured"). The
program's stderr (including every op and set-up time) goes to
`.bench_build/perfbench/logs/`, and its own diagnostics from it are repeated
on stderr. Traced runs (`--trace 1`) also write their spans to
`.bench_build/perfbench/traces/`. Any other argument (`--wrong-reference`)
is handed to the program unchanged.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Relative to ROOT, so the unix socket path stays short.
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "frontend", "Frontend.h")):
        fail("no PSC sources under %s/src; run from a full checkout" % ROOT)
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=log, stderr=log).returncode:
            fail("build failed; see %s" % log_path)
    return os.path.join(build_dir, "psc_perfbench")


def declared_metrics(measured, trace):
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    names = [m["name"] for m in declared]
    undeclared = sorted(set(measured) - set(names))
    if undeclared:
        fail("psc_perfbench reported undeclared metrics: " + ", ".join(undeclared))
    out = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None and trace == "0":
            fail("psc_perfbench did not report " + m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail("%s is in %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    return out


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail("psc_perfbench reported a metric twice")
    return dict(pairs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    exe = build()
    for sub in ("logs", "traces", "run"):
        os.makedirs(os.path.join(ROOT, BUILD, sub), exist_ok=True)
    name = "%s-seed%s-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--root", ".", "--sock-dir", os.path.join(BUILD, "run"),
           "--trace-out", os.path.join(BUILD, "traces", name + ".json")]
    log_path = os.path.join(ROOT, BUILD, "logs", name + ".log")
    with open(log_path, "w") as log:
        try:
            run = subprocess.run(cmd + passthrough, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=log, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    with open(log_path) as log:
        for line in log:
            if line.startswith("perfbench:"):
                sys.stderr.write(line)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        fail("psc_perfbench exited with code %d; see %s" % (run.returncode, log_path))
    result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    measured = {"measured": list(result["metrics"])}
    result["metrics"] = declared_metrics(result["metrics"], args.trace)
    print("\n".join(lines[:-1] + [json.dumps(measured), json.dumps(result)]),
          flush=True)


if __name__ == "__main__":
    main()
