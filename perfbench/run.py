"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crawl --seed 2018 --seconds 30 --trace 0

Every call of the workload runs in a fresh interpreter (``child.py``), as a
CLI user would pay for it. With ``--trace 0`` the run repeats calls until
``--seconds`` would be exceeded (at least two, so twin-run equality can be
checked at any seed), tops up ``setup_s`` samples with set-up-only calls,
and reports medians of the end-to-end metrics. With ``--trace 1`` it makes
one untraced and one traced call and reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Each call is one
attempted operation; a call that raises, or whose result fails the check
(reference digests at seed 2018, twin equality and paper-shape invariants
elsewhere), is a failed one. Exits non-zero without a result when the
program is not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
#: twin-run equality needs two calls in every run
MIN_CALLS = 2
#: ``setup_s`` is the median of at least this many set-ups when time allows
MIN_SETUP_SAMPLES = 9
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150
EXIT_NO_PROGRAM = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class NoProgram(RuntimeError):
    """The program could not be imported from this checkout."""


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One call in a fresh interpreter; its JSON record."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return {"ok": False, "error": f"{mode} call exceeded {CHILD_TIMEOUT_S}s"}
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, f"rundir-{process.pid}"), ignore_errors=True)
    if process.returncode == EXIT_NO_PROGRAM:
        raise NoProgram("the program is not importable from this checkout's src/")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"ok": False, "error": f"{mode} call exited {process.returncode}"}
    return json.loads(lines[-1])


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def checked(workload: str, seed: int, records: list) -> int:
    """Failed calls among ``records``: raised, or failed the result check."""
    done = [r for r in records if r["ok"]]
    failed = len(records) - len(done)
    for record in records:
        if not record["ok"]:
            print(f"perfbench: {workload}: {record['error']}", file=sys.stderr)
    verdicts = check(workload, seed, [r["digests"] for r in done],
                     [r["shape"] for r in done], load_reference())
    for problems in verdicts:
        for problem in problems:
            print(f"perfbench: {workload} seed {seed}: {problem}", file=sys.stderr)
    return failed + sum(1 for problems in verdicts if problems)


def measure(workload: str, seed: int, seconds: float) -> tuple[list, list]:
    """Full calls until the time is used (at least two), then set-up samples."""
    started = time.perf_counter()
    calls, setups = [], []
    longest = 0.0
    while len(calls) < MIN_CALLS or time.perf_counter() - started + longest <= seconds:
        before = time.perf_counter()
        calls.append(run_child(workload, seed, "full"))
        longest = max(longest, time.perf_counter() - before)
    setups = [r["setup_s"] for r in calls if r["ok"]]
    longest = 0.0
    while len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() - started + longest <= seconds:
        before = time.perf_counter()
        record = run_child(workload, seed, "setup")
        longest = max(longest, time.perf_counter() - before)
        if record["ok"]:
            setups.append(record["setup_s"])
    return calls, setups


def end_to_end(calls: list, setups: list) -> dict:
    done = [r for r in calls if r["ok"]]
    if not done:
        return {}
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(r["work"] / r["wall_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def traced(workload: str, seed: int) -> tuple[list, dict]:
    plain = run_child(workload, seed, "full")
    with_tracer = run_child(workload, seed, "traced")
    calls = [plain, with_tracer]
    if not (plain["ok"] and with_tracer["ok"]):
        return calls, {}
    values = dict(with_tracer["per_layer"])
    values["trace.overhead"] = with_tracer["wall_s"] / plain["wall_s"]
    return calls, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            calls, metrics = traced(args.workload, args.seed)
        else:
            calls, setups = measure(args.workload, args.seed, args.seconds)
            metrics = end_to_end(calls, setups)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = checked(args.workload, args.seed, calls)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
