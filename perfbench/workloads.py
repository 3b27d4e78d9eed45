"""The benchmark's four workloads.

Each workload has three steps, run in a fresh interpreter by ``child.py``:

- ``setup(seed, out_dir)``: import the program and build the inputs
  (populations, campaign objects with their signature databases, the
  simulation config). Timed as ``setup_s``.
- ``call(inputs)``: drive the program through its public entry points.
- ``summarize(result, inputs)``: reduce the result to canonical JSON parts
  for the result check, the work items done (domain visits, or chain
  blocks) and the paper-shape quantities the invariants test.

``call`` plus ``summarize`` plus hashing the parts is timed as ``wall_s``.
Nothing in this module imports the program at import time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, field

DEFAULT_SEED = 2018
CRAWL_SCALE = 0.25
CRAWL_DATASETS = ("alexa", "com", "net", "org")
STREAM_DATASET = "com"
STREAM_POPULATION = 10_000_000
STREAM_SAMPLE_PER_STRATUM = 1000
STREAM_SHARDS = 4
#: the paper's Table 6 window (``NetworkSimConfig`` defaults: Apr 26 – Aug 1)
#: attributes blocks within this recall range in the benches and tests
RECALL_RANGE = (0.9, 1.0)


@dataclass
class Outcome:
    """What one workload call produced, reduced for checking."""

    #: part name → canonical JSON-able value; hashed for the result check
    parts: dict
    #: work items completed: domain visits, or chain blocks for ``chain``
    work: int = 0
    #: paper-shape quantities the invariants test
    shape: dict = field(default_factory=dict)
    #: per-layer extras only the result knows (run-dir bytes and records)
    extras: dict = field(default_factory=dict)

    def digests(self) -> dict:
        return {name: digest(value) for name, value in self.parts.items()}


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical JSON (or of raw bytes)."""
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
    else:
        data = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# crawl: the §3 zgrab + Chrome campaigns over materialized populations


def _crawl_setup(seed: int, out_dir: str):
    from repro.analysis.crawl import ChromeCampaign, ZgrabCampaign
    from repro.internet.population import build_population

    plans = []
    for dataset in CRAWL_DATASETS:
        population = build_population(dataset, seed=seed, scale=CRAWL_SCALE)
        chrome = (
            ChromeCampaign(population=population) if population.spec.chrome_crawl else None
        )
        plans.append((dataset, ZgrabCampaign(population=population), chrome))
    return plans


def _crawl_call(plans):
    # the sequential obs-off path of run_reproduction, dataset by dataset
    return [
        (dataset, zgrab.both_scans(), chrome.run() if chrome is not None else None)
        for dataset, zgrab, chrome in plans
    ]


def _crawl_summarize(results, _plans) -> Outcome:
    fig2, table1, table2, table3, verdicts = [], {}, {}, {}, {}
    visits = 0
    factors = {}
    for dataset, scans, chrome in results:
        for scan in scans:
            visits += scan.domains_probed
            fig2.append([
                dataset, scan.scan_date, scan.domains_probed, scan.nocoin_domains,
                scan.fetch_failures, sorted(scan.script_shares.items()),
            ])
        if chrome is None:
            continue
        visits += len(chrome.reports)
        tab = chrome.cross_tab
        table1[dataset] = [chrome.total_wasm_sites, chrome.miner_wasm_sites,
                           sorted(chrome.signature_counts.items())]
        table2[dataset] = [tab.nocoin_hits, tab.nocoin_hits_with_miner_wasm,
                           tab.wasm_miner_hits, tab.miners_blocked_by_nocoin,
                           tab.miners_missed_by_nocoin]
        table3[dataset] = [sorted(chrome.nocoin_categories.items()),
                           chrome.nocoin_categorized_fraction,
                           sorted(chrome.signature_categories.items()),
                           chrome.signature_categorized_fraction]
        verdicts[dataset] = [
            [r.domain, r.status, r.nocoin_hit, r.miner.family if r.is_miner else None]
            for r in chrome.reports
        ]
        factors[dataset] = tab.detection_factor
    return Outcome(
        parts={"fig2": fig2, "table1": table1, "table2": table2, "table3": table3,
               "chrome_verdicts": verdicts},
        work=visits,
        shape={"table2_factor": factors},
    )


# ---------------------------------------------------------------------------
# chain: the §4.2 month-scale network simulation and pool association


def _chain_setup(seed: int, out_dir: str):
    from repro.analysis.network import NetworkSimConfig

    return NetworkSimConfig(seed=seed)


def _chain_call(config):
    from repro.analysis.network import simulate_network

    observation = simulate_network(config)
    return observation, observation.monthly_stats()


def _chain_summarize(result, _config) -> Outcome:
    observation, monthly = result
    chain = observation.chain
    return Outcome(
        parts={
            "attributed_heights": [block.height for block in observation.attributed],
            "table6_monthly": monthly,
        },
        work=chain.height,
        shape={"attribution_recall": observation.attribution_recall()},
    )


# ---------------------------------------------------------------------------
# stream: a 10M-domain .com zone, stratified sample, sharded zgrab scans


def _stream_setup(seed: int, out_dir: str):
    from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign
    from repro.internet.streaming import StreamingPopulation

    population = StreamingPopulation(
        STREAM_DATASET, seed=seed, size=STREAM_POPULATION,
        sample_per_stratum=STREAM_SAMPLE_PER_STRATUM,
    )
    # `repro crawl --population-size N --sample-per-stratum K --shards 4`:
    # one worker, the CLI's default thread executor
    return ShardedZgrabCampaign(
        population=population,
        config=ParallelConfig(shards=STREAM_SHARDS, workers=1, mode="thread"),
    )


def _stream_call(campaign):
    return [campaign.scan(0), campaign.scan(1)]


def _stream_summarize(scans, campaign) -> Outcome:
    rows = [
        [index, row.stratum, row.probed, row.hits, row.failures, row.prevalence,
         row.population_size, row.estimated_domains]
        for index, scan in enumerate(scans)
        for row in scan.stratum_rows
    ]
    strata = {s.name: s.size_within(campaign.population.size)
              for s in campaign.population.strata}
    return Outcome(
        parts={"stratum_rows": rows},
        work=sum(scan.domains_probed for scan in scans),
        shape={"rows": rows, "strata": strata,
               "probed": [scan.domains_probed for scan in scans]},
    )


# ---------------------------------------------------------------------------
# reproduce-rundir: default-scale `repro reproduce --run-dir DIR`

#: run-dir artifacts whose bytes are deterministic for a seed
DETERMINISTIC_ARTIFACTS = ("verdicts.jsonl", "graph.jsonl")
COMPLETED_LINE = re.compile(r"^completed in .*$", re.MULTILINE)


def _rundir_setup(seed: int, out_dir: str):
    from repro.analysis.runner import ReproductionConfig

    run_dir = os.path.join(out_dir, f"rundir-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    # the CLI's `reproduce` defaults, as `_cmd_reproduce` builds them
    return ReproductionConfig(seed=seed, run_dir=run_dir)


def _rundir_call(config):
    from repro.analysis.runner import run_reproduction

    return run_reproduction(config, log=lambda *_args: None).to_markdown()


def _rundir_summarize(markdown, config) -> Outcome:
    run_dir = config.run_dir
    try:
        sizes = {name: os.path.getsize(os.path.join(run_dir, name))
                 for name in sorted(os.listdir(run_dir))}
        parts = {"report": COMPLETED_LINE.sub("", markdown)}
        for name in DETERMINISTIC_ARTIFACTS:
            with open(os.path.join(run_dir, name), "rb") as handle:
                parts[name] = handle.read()
        spans = _jsonl_records(os.path.join(run_dir, "trace.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return Outcome(
        parts=parts,
        # one verdict per site visit (zgrab fetch or Chrome visit) or block
        work=parts["verdicts.jsonl"].count(b'"kind":"page"'),
        shape=_report_shape(parts["report"]),
        extras={
            "bytes": sizes,
            "spans": spans,
            "verdicts": parts["verdicts.jsonl"].count(b"\n") - 1,
        },
    )


def _jsonl_records(path: str) -> int:
    """Records in a versioned JSONL artifact (its header line excluded)."""
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def _report_shape(report: str) -> dict:
    factors = {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r"^(\w+)\s+\d+\s+\d+\s+\d+%\s+([\d.]+|inf)x\s", report, re.MULTILINE
        )
    }
    recall = re.search(r"attribution recall\s+([\d.]+)%", report)
    return {
        "table2_factor": factors,
        "attribution_recall": float(recall.group(1)) / 100 if recall else math.nan,
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload's steps; ``BENCHMARK.json`` records why it was chosen."""

    name: str
    setup: object
    call: object
    summarize: object


WORKLOADS = {
    w.name: w for w in (
        Workload("crawl", _crawl_setup, _crawl_call, _crawl_summarize),
        Workload("chain", _chain_setup, _chain_call, _chain_summarize),
        Workload("stream", _stream_setup, _stream_call, _stream_summarize),
        Workload("reproduce-rundir", _rundir_setup, _rundir_call, _rundir_summarize),
    )
}


def invariant_problems(workload: str, shape: dict) -> list[str]:
    """Paper-shape checks that hold at every seed."""
    problems = []
    for dataset, factor in shape.get("table2_factor", {}).items():
        if not factor > 1:
            problems.append(f"{dataset}: Table 2 detection factor {factor} is not > 1")
    if workload in ("crawl", "reproduce-rundir") and len(shape.get("table2_factor", {})) != 2:
        problems.append("expected Table 2 rows for the two Chrome datasets (alexa, org)")
    if "attribution_recall" in shape:
        recall = shape["attribution_recall"]
        lo, hi = RECALL_RANGE
        if not lo < recall <= hi:
            problems.append(f"attribution recall {recall} outside ({lo}, {hi}]")
    if workload == "stream":
        for index, stratum, probed, hits, *_rest in shape["rows"]:
            size = shape["strata"].get(stratum, 0)
            if index == 0 and probed != min(STREAM_SAMPLE_PER_STRATUM, size):
                problems.append(f"stratum {stratum}: probed {probed} of a {size}-rank stratum")
            if not 0 <= hits <= probed:
                problems.append(f"stratum {stratum}: {hits} hits of {probed} probed")
        if sum(row[2] for row in shape["rows"] if row[0] == 0) != shape["probed"][0]:
            problems.append("per-stratum probed counts do not sum to the scan total")
    return problems


def check(workload: str, seed: int, digests: list[dict], shapes: list[dict],
          reference: dict) -> list[list[str]]:
    """Problems of each call's result; an empty list means the call passed.

    At the reference seed every part must match the recorded digest. At
    any other seed every call must match the run's first call (twin-run
    equality across fresh interpreters) and pass the paper-shape
    invariants.
    """
    expected = reference.get(workload, {}).get(str(seed))
    verdicts = []
    for index, (parts, shape) in enumerate(zip(digests, shapes)):
        problems = []
        baseline = expected if expected is not None else digests[0]
        label = "reference" if expected is not None else "first call of this run"
        for name in sorted(set(baseline) | set(parts)):
            if parts.get(name) != baseline.get(name):
                problems.append(f"{name}: digest differs from the {label}")
        if expected is None and index == 0 and len(digests) < 2:
            problems.append("no twin call to compare against")
        problems.extend(invariant_problems(workload, shape))
        verdicts.append(problems)
    return verdicts
