#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/perfbench.exe with
dune, then runs the workload in one process of its own. With --trace 0 it
first starts the executable SETUP_SAMPLES times in set-up-only mode and
reports setup_s, the median time from process start to the "READY" line
the executable prints just before its first timed call. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; with --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list. A failed build, a crash, a failed
correctness check or a metric set that does not match BENCHMARK.json
makes it exit non-zero; only a failed correctness check still prints the
result line.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SETUP_SAMPLES = 21
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a checkout")
    try:
        proc = subprocess.run(
            # No shared cache: the build reads and writes only the checkout.
            [dune, "build", "--root", ".", "--cache=disabled",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_exe(args, deadline):
    """Run the executable to completion. Returns (exit code, stdout lines,
    seconds from start to the READY line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        if ready.strip() != "READY":
            proc.kill()
            proc.wait()
            fail("executable did not reach its first timed call")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.splitlines(), t_ready


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setup = []
    if a.trace == 0:
        for _ in range(SETUP_SAMPLES):
            code, _, t_ready = run_exe(common + ["--setup-only"], deadline)
            if code != 0:
                fail("set-up run exited with %d" % code)
            setup.append(t_ready)
    code, lines, _ = run_exe(
        common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        deadline,
    )
    if not lines:
        fail("no result (exit %d)" % code)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        fail("malformed result line (exit %d)" % code)

    metrics = res["metrics"]
    if a.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        fail(
            "metric set differs from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ {m["name"] for m in wanted})
        )
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: unit %r, expected %r" % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)) or not math.isfinite(
            got["value"]
        ):
            fail("%s: not a finite number" % m["name"])
    out = {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(out))
    if code != 0 or not out["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
