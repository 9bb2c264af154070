"""Fast self-test of the benchmark at tiny sizes (about 10 s):

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, and no failure; that a known non-equivalent pair is counted as
failed; that the fuzz-mu generator is deterministic and writes closed
formulas; that the host clock samples during a pass and leaves its own time
out; and that run.py refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workload  # noqa: E402
from tanglekit import formulas as fm  # noqa: E402  (on sys.path via workload)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metrics(spec: dict) -> None:
    for name in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            assert list(got) == list(want), (name, trace, sorted(set(want) ^ set(got)))
            for metric, unit in want.items():
                assert got[metric]["unit"] == unit, (metric, got[metric])
                assert isinstance(got[metric]["value"], (int, float)), (metric, got[metric])
            rate = got["ok_rate"]["value"] if trace == 0 else 1 - got["fail_rate"]["value"]
            assert rate == 1, (name, trace, rate)


def check_failure_counted() -> None:
    # <> <> p and <.> p differ at a world where p holds and that has no
    # successors.
    result = workload.run_fuzz_mu([("<> <> p", "<.> p")], workload.Trace(False),
                                  seed=0, size=2, props=("p",))
    assert result["attempted"] == workload.FAMILY_SIZE[("p",), 2], result
    assert 0 < result["failed"] < result["attempted"], result


def check_generator() -> None:
    assert workload.fuzz_pairs(5) == workload.fuzz_pairs(5)
    assert workload.fuzz_pairs(5) != workload.fuzz_pairs(6)
    for left, right in workload.fuzz_pairs(5):
        a, b = fm.parse_mu(left), fm.parse_mu(right)
        assert not fm.free_vars(a) and not fm.free_vars(b), (left, right)
        assert fm.prop_names(a) == fm.prop_names(b) == frozenset(workload.FUZZ_PROPS)
        assert a is not b and not fm.alternation_free(a), left


def check_host_clock() -> None:
    with workload.HostClock() as clock:
        t0 = clock.now()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        busy = clock.now() - t0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(clock.samples) > 2 * clock.EDGE_SAMPLES, clock.samples
    # The timer's samples ran inside the busy loop and are left out of it.
    assert clock.spent > 0 and abs(busy + clock.spent - 0.5) < 0.05, (busy, clock.spent)
    assert clock.slowdown() > 0


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "translate", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_failure_counted()
    check_generator()
    check_host_clock()
    check_refuses_without_sources()
    check_metrics(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
