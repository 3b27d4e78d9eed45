"""One workload call in a fresh interpreter; prints one JSON line.

``python3 perfbench/child.py --workload W --seed N --mode M``

- ``full``: set up, call, summarize; report times, peak RSS and digests;
- ``setup``: set up only (extra ``setup_s`` samples);
- ``traced``: as ``full`` with the layer tracer installed; report the
  per-layer statistics instead of end-to-end times.

Every call runs in its own interpreter because a CLI user pays cold
caches on every invocation, and ``repro.core.fastpath`` keeps a
process-global ``WasmCache`` and enable flag that would otherwise carry
state from one call into the next.

Exit codes: 0 with a JSON line (``"ok": false`` if the call raised),
3 when the program cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXIT_NO_PROGRAM = 3


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro resolved to {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB → MiB


def run(workload_name: str, seed: int, mode: str) -> dict:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    os.makedirs(OUT_DIR, exist_ok=True)
    _import_program()
    if mode == "traced":
        return _traced(workload, seed)
    inputs = workload.setup(seed, OUT_DIR)
    call_started = time.perf_counter()
    setup_s = call_started - STARTED
    if mode == "setup":
        return {"ok": True, "setup_s": setup_s}
    result = workload.call(inputs)
    outcome = workload.summarize(result, inputs)
    digests = outcome.digests()
    wall_s = time.perf_counter() - call_started
    return {
        "ok": True,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "work": outcome.work,
        "digests": digests,
        "shape": outcome.shape,
    }


def _traced(workload, seed: int) -> dict:
    from layers import per_layer_metrics
    from tracer import LayerTracer, restore_problems

    tracer = LayerTracer()
    with tracer:
        inputs = workload.setup(seed, OUT_DIR)
        call_started = time.perf_counter()
        result = workload.call(inputs)
        outcome = workload.summarize(result, inputs)
        digests = outcome.digests()
        call_ended = time.perf_counter()
    leftovers = restore_problems(tracer)
    if leftovers:
        raise RuntimeError(f"wrappers left behind after the traced run: {leftovers}")
    tracer.write_spans(os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.jsonl"))
    return {
        "ok": True,
        "wall_s": call_ended - call_started,
        "digests": digests,
        "shape": outcome.shape,
        "per_layer": per_layer_metrics(tracer, outcome.extras, call_started, call_ended),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup", "traced"), default="full")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.mode)
    except Exception as exc:  # a failed call is a failed operation, not a crash
        traceback.print_exc()
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
