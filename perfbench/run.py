"""tanglekit benchmark: cold passes of one workload, each in a fresh interpreter.

    python3 perfbench/run.py --workload translate --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  With `--trace 0` the run makes untraced passes until one more
would end after `--seconds` (at least one) and reports the end-to-end
metrics as medians.  Set-up time is sampled in extra interpreters that stop
once their inputs are ready.  With `--trace 1` it makes one untraced and one
traced pass and reports the per-layer metrics of the traced one plus the
tracing overhead.  Times are scaled to a reference speed of the host: pass
times by a loop sampled while the pass runs (`workload.HostClock`), set-up
times by the start of a reference interpreter timed just before each
sample.  The names and units of both metric sets come from BENCHMARK.json.
Stdout ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the package sources are missing."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170  # a run must end within 180 s

# The reference for set-up time: interpreter start and the standard-library
# imports of workload.py, without tanglekit.  Its start takes this long at
# the reference speed, about its median on a 2 vCPU Xeon VM with Python
# 3.11.7.
REFERENCE_START = ("import argparse, gc, hashlib, json, os, random, resource, signal, "
                   "statistics, sys, time; print(time.monotonic())")
REFERENCE_START_S = 0.055


def python(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one interpreter to its end; its start time and stdout.  A process
    still running at the deadline is killed and waited for.

    The interpreter is isolated as with `-I`, except that string hashing is
    fixed, so dict and set layouts, and with them the passes' times, do not
    change from one process to the next."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-s", "-P", *args], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return t0, proc.stdout


def spawn(args: list[str], deadline: float) -> dict:
    """One workload.py process; its record plus `setup_s`, the time from
    spawning it to its inputs being ready."""
    t0, out = python([os.path.join(HERE, "workload.py"), *args], deadline)
    record = json.loads(out.strip().splitlines()[-1])
    if not record["tanglekit"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported tanglekit from {record['tanglekit']}, not {ROOT}")
    record["setup_s"] = record["ready"] - t0
    return record


def sample_setup(common: list[str], deadline: float) -> dict:
    """One set-up sample: a reference interpreter start, then a workload.py
    process that stops once its inputs are ready.  Set-up time slows with
    the host more than the pass does, and as the reference start does, so
    the sample is scaled by the reference start's speed."""
    t0, out = python(["-c", REFERENCE_START], deadline)
    reference = float(out) - t0
    raw = spawn(common + ["--setup-only"], deadline)["setup_s"]
    return {"raw_s": raw, "reference_s": reference,
            "setup_s": raw / reference * REFERENCE_START_S}


def fingerprint(record: dict):
    """What must not differ between passes of one run: output size and the
    digest of each printed chi."""
    return (record["dag_nodes"],
            {text: f.get("sha256") for text, f in record.get("formulas", {}).items()})


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: 2-world families, a shorter corpus")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tanglekit", "__init__.py")):
        print(f"error: no tanglekit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")

    def sample_setups(count: int) -> list[dict]:
        return [sample_setup(common, deadline) for _ in range(count)]

    if args.trace:
        passes = [spawn(common + ["--trace", "0"], deadline),
                  spawn(common + ["--trace", "1"], deadline)]
    else:
        # Half the set-up samples before the passes and half after, so that
        # a slow spell of the machine does not cover all of them.
        setups = sample_setups(SETUP_SAMPLES // 2)
        passes = []
        began = time.monotonic()
        while True:
            passes.append(spawn(common + ["--trace", "0"], deadline))
            spent = time.monotonic() - began
            if spent + spent / len(passes) > args.seconds:
                break
        setups += sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    consistent = all(fingerprint(p) == fingerprint(passes[0]) for p in passes)
    if args.trace:
        untraced, traced = passes
        values = dict(traced["layers"])
        values["trace.untraced_wall_s"] = untraced["wall_s"]
        values["trace.traced_wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": statistics.median(p["setup_s"] for p in setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "ok_rate": 1 - failed / attempted,
                  "dag_nodes": passes[0]["dag_nodes"]}
        wanted = spec["end_to_end"]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "consistent_outputs": consistent,
              "passes": [{k: p.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb",
                                                 "raw_wall_s", "slowdown", "host_samples",
                                                 "attempted", "failed", "dag_nodes",
                                                 "formulas", "error")}
                         for p in passes]}
    if not args.trace:
        detail["setup_samples"] = setups
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
