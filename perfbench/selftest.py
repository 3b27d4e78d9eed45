"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

- Every workload's result check passes on the real result at the default
  seed, and trips on a seeded mutant of that result (one flipped verdict,
  one dropped attributed block, one extra stratum hit).
- At any other seed the twin-run comparison trips on the same mutant, and
  the paper-shape invariants trip on a broken shape.
- After a traced call every wrapped binding is the original object again,
  including ``from ... import`` copies and modules first imported while the
  wrappers were in, so untraced calls carry zero wrappers.
- ``BENCHMARK.json`` names exactly the workloads and metrics the code
  reports.

Takes about a minute (each workload runs once, in this process). Exits 1
if any test fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END_UNITS, OUT_DIR, load_reference  # noqa: E402
from tracer import TARGETS, LayerTracer, resolve, restore_problems  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check, invariant_problems  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(("ok   " if condition else "FAIL ") + label)
    if not condition:
        FAILURES.append(label)


# -- seeded mutants: each changes one result the way a real regression would


def _flip_chrome_verdict(results):
    for _dataset, _scans, chrome in results:
        if chrome is not None:
            report = chrome.reports[0]
            report.nocoin_hit = not report.nocoin_hit
            return results
    raise AssertionError("no Chrome result to mutate")


def _drop_attributed_block(result):
    observation, monthly = result
    observation.attributed.pop(len(observation.attributed) // 2)
    return observation, monthly


def _extra_stratum_hit(scans):
    scan = scans[0]
    first, *rest = scan.stratum_rows
    scan.stratum_rows = (dataclasses.replace(first, hits=first.hits + 1), *rest)
    return scans


def _flip_written_verdict(config):
    path = os.path.join(config.run_dir, "verdicts.jsonl")
    with open(path, "rb") as handle:
        data = handle.read()
    for old, new in ((b'"is_miner":true', b'"is_miner":false'),
                     (b'"is_miner":false', b'"is_miner":true')):
        if old in data:
            with open(path, "wb") as handle:
                handle.write(data.replace(old, new, 1))
            return
    raise AssertionError("no verdict to flip")


def _mutant_outcome(name: str, workload, result, inputs):
    if name == "reproduce-rundir":
        # the run dir is the result: flip a verdict in a copy of it
        mutant_inputs = dataclasses.replace(inputs, run_dir=inputs.run_dir + "-mutant")
        shutil.copytree(inputs.run_dir, mutant_inputs.run_dir)
        _flip_written_verdict(mutant_inputs)
        return workload.summarize(result, mutant_inputs)
    mutate = {"crawl": _flip_chrome_verdict, "chain": _drop_attributed_block,
              "stream": _extra_stratum_hit}[name]
    return workload.summarize(mutate(copy.deepcopy(result)), inputs)


def test_workload_checks(name: str, reference: dict) -> None:
    workload = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = workload.setup(DEFAULT_SEED, OUT_DIR)
    result = workload.call(inputs)
    mutant = _mutant_outcome(name, workload, result, inputs)
    real = workload.summarize(result, inputs)
    real_digests, mutant_digests = real.digests(), mutant.digests()

    passed = check(name, DEFAULT_SEED, [real_digests, real_digests],
                   [real.shape, real.shape], reference)
    expect(passed == [[], []], f"{name}: real result passes at seed {DEFAULT_SEED}")
    tripped = check(name, DEFAULT_SEED, [mutant_digests], [mutant.shape], reference)
    expect(bool(tripped[0]), f"{name}: mutant trips the reference check")
    other_seed = DEFAULT_SEED + 1  # no reference: twin equality applies
    twin = check(name, other_seed, [real_digests, mutant_digests],
                 [real.shape, mutant.shape], reference)
    expect(twin[0] == [] and bool(twin[1]), f"{name}: mutant trips the twin-run check")
    single = check(name, other_seed, [real_digests], [real.shape], reference)
    expect(bool(single[0]), f"{name}: a lone call at another seed is not passed")


def test_invariants() -> None:
    expect(bool(invariant_problems("crawl", {"table2_factor": {"alexa": 0.9, "org": 3.0}})),
           "invariants: Table 2 factor <= 1 trips")
    expect(bool(invariant_problems("chain", {"attribution_recall": 0.5})),
           "invariants: attribution recall out of range trips")
    expect(bool(invariant_problems("reproduce-rundir",
                                   {"table2_factor": {}, "attribution_recall": 0.95})),
           "invariants: a report without Table 2 rows trips")
    rows = [[0, "top1k", 1000, 1001, 0, 0.0, 1000, 0]]
    expect(bool(invariant_problems("stream", {"rows": rows, "strata": {"top1k": 1000},
                                              "probed": [1000]})),
           "invariants: more hits than probed trips")


def test_tracer_restores() -> None:
    import importlib

    tracer = LayerTracer()
    with tracer:
        from repro.blockchain import varint

        varint.encode(300)
        # a module first imported while the wrappers are in binds them
        for module in ("repro.analysis.runner", "repro.cli"):
            importlib.import_module(module)
    expect(tracer.stats["blockchain.varint.encode"].calls == 1,
           "tracer: wrappers were live while installed")
    expect(restore_problems(tracer) == [], "tracer: every wrapped binding is the original again")
    import repro.analysis.runner as runner

    expect(runner.build_population is resolve(TARGETS[0])[2],
           "tracer: from-import copies are restored")


def test_coverage() -> None:
    tracer = LayerTracer(targets=())
    tracer.top_level = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    expect(abs(tracer.coverage(0.0, 10.0) - 0.5) < 1e-12, "tracer: coverage is an interval union")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json: workloads match the code")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json: per-layer metrics match the code")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "BENCHMARK.json: end-to-end metrics match the code")


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    test_benchmark_json()
    test_invariants()
    test_coverage()
    test_tracer_restores()
    reference = load_reference()
    for name in names:
        test_workload_checks(name, reference)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
