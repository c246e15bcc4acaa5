#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds S]

Run it from the repository root. It checks that:

  * a short run of every workload, untraced and traced, reports zero failed
    ops and every metric BENCHMARK.json names, with its unit;
  * the traced runs together measure every per-layer metric themselves
    (run.py fills the layers a workload does not reach with 0), and every
    metric a run measures is non-zero unless it reads 0 by design;
  * a run against a deliberately wrong reference value (`--wrong-reference`)
    exits normally and reports failed ops instead of crashing or passing,
    on every workload untraced, and on the traced analyze run, where only
    the paper's Fig. 13 table is wrong, with the failure naming it;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.

Exits non-zero on the first violated check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The workload whose traced run also makes the runtime and paper passes.
PASSES_WORKLOAD = "analyze"


def may_be_zero(name):
    """Measured metrics that read 0 by design: error responses and
    misspeculations of a program run on the input it was trained on, which
    must not happen, and the service's L2 hit rate, because the L3 plan
    cache serves every function an edit leaves unchanged, so L2 is asked
    only about the changed one, which misses."""
    if name in ("service.error_sessions", "service.l2_hit_rate"):
        return True
    prefix = "runtime.misspeculations."
    return name.startswith(prefix) and not name.endswith("_adv")


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc, what):
    """The measured metric names and the result of one run.py run."""
    if proc.returncode != 0:
        sys.exit("FAIL %s: exit code %d\n%s" % (what, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["measured"], json.loads(lines[-1])


def check_run(name, trace, seconds, declared):
    what = "%s --trace %s" % (name, trace)
    measured, res = result_of(run(["--workload", name, "--seed", "7",
                                   "--seconds", seconds, "--trace", trace]),
                              what)
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        sys.exit("FAIL %s: %d of %d ops failed" %
                 (what, res["failed"], res["attempted"]))
    if len(res["metrics"]) != len(declared):
        sys.exit("FAIL %s: unexpected metrics" % what)
    for m in declared:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("FAIL %s: metric %s missing or not in %s" %
                     (what, m["name"], m["unit"]))
    if trace == "0" and len(measured) != len(declared):
        sys.exit("FAIL %s: an end-to-end metric was not measured" % what)
    for m in measured:
        if res["metrics"][m]["value"] == 0 and not may_be_zero(m):
            sys.exit("FAIL %s: measured %s reads 0" % (what, m))
    print("ok   %-32s %d ops, %d of %d metrics measured" %
          (what, res["attempted"], len(measured), len(declared)))
    return measured


def check_wrong_reference(name, trace, seconds, must_name=None):
    what = "%s --trace %s --wrong-reference" % (name, trace)
    proc = run(["--workload", name, "--seed", "7", "--seconds", seconds,
                "--trace", trace, "--wrong-reference"])
    _, res = result_of(proc, what)
    if res["correct"] or res["failed"] < 1:
        sys.exit("FAIL %s: the wrong reference was not caught" % what)
    if must_name and must_name not in proc.stderr:
        sys.exit("FAIL %s: no failure names %s\n%s" %
                 (what, must_name, proc.stderr))
    print("ok   %-32s %d of %d ops failed, as they must" %
          (what, res["failed"], res["attempted"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="1")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    traced = set()
    for w in spec["workloads"]:
        check_run(w["name"], "0", opts.seconds, spec["end_to_end"])
        traced |= set(check_run(w["name"], "1", opts.seconds, spec["per_layer"]))
        check_wrong_reference(w["name"], "0", opts.seconds)
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in traced]
    if unmeasured:
        sys.exit("FAIL no traced run measures " + ", ".join(unmeasured))
    print("ok   every per-layer metric is measured by a traced run")
    check_wrong_reference(PASSES_WORKLOAD, "1", opts.seconds,
                          must_name="BENCH_fig13.json")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare directory: expected a non-zero exit and no result")
    print("ok   bare directory exits %d without a result" % proc.returncode)


if __name__ == "__main__":
    main()
