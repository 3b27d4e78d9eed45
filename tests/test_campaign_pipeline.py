"""Work-count gate for the one campaign pipeline in ``run_reproduction``.

Every crawl runs through the sharded executor. Its Chrome pass rebuilds a
population from the recipe only when several worker threads would share
one; with the default single worker it reuses the population the zgrab
scans already built. Counting ``build_population`` calls pins that: one
build per dataset, with and without a run directory.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.analysis.parallel as parallel
import repro.analysis.runner as runner
import repro.internet.population as population_module
from repro.analysis.runner import ReproductionConfig, run_reproduction

DATASETS = ("alexa", "net")  # one Chrome-crawl dataset, one zgrab-only


@pytest.fixture
def population_builds(monkeypatch):
    """Counts ``build_population`` calls per dataset, at every binding."""
    builds: Counter = Counter()
    original = population_module.build_population

    def counting(dataset, *args, **kwargs):
        builds[dataset] += 1
        return original(dataset, *args, **kwargs)

    for module in (population_module, runner, parallel):
        monkeypatch.setattr(module, "build_population", counting)
    return builds


def _tiny_config(**overrides) -> ReproductionConfig:
    return ReproductionConfig(
        seed=11,
        crawl_scale=0.03,
        shortlink_scale=0.0005,
        shortlink_samples=10,
        network_days=1,
        datasets=DATASETS,
        **overrides,
    )


def test_run_dir_builds_each_population_once(population_builds, tmp_path):
    run_reproduction(_tiny_config(run_dir=str(tmp_path / "run")), log=lambda *_: None)
    assert population_builds == Counter({dataset: 1 for dataset in DATASETS})


def test_obs_off_builds_each_population_once(population_builds):
    run_reproduction(_tiny_config(), log=lambda *_: None)
    assert population_builds == Counter({dataset: 1 for dataset in DATASETS})


def test_several_threads_still_get_their_own_population(population_builds):
    # the recipe rebuild is kept where threads would share one population
    run_reproduction(
        _tiny_config(crawl_shards=2, crawl_workers=2, crawl_executor="thread"),
        log=lambda *_: None,
    )
    assert population_builds["net"] == 1
    assert population_builds["alexa"] > 1


# ---- crawl is one dataset of reproduce's crawl phase ----------------------------


def _shard_rows(out: str, title: str) -> list[str]:
    """The per-shard rows of one shard metrics table in ``crawl`` stdout."""
    lines = out.splitlines()
    start = lines.index(title) + 3  # title, header, separator
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("wall="))
    return lines[start:end]


def test_crawl_workers_raise_the_shard_count(capsys):
    from repro.cli import main

    assert main([
        "crawl", "--dataset", "alexa", "--scale", "0.03",
        "--workers", "2", "--executor", "thread",
    ]) == 0
    out = capsys.readouterr().out
    assert len(_shard_rows(out, "zgrab shard metrics (second scan)")) == 2
    assert len(_shard_rows(out, "Chrome shard metrics")) == 2
    assert "workers=2" in out


@pytest.mark.parametrize(
    "dataset, crawl_flags, fields",
    [
        ("org", ["--scale", "0.03"], {"crawl_scale": 0.03}),
        (
            "com",
            ["--population-size", "2000", "--sample-per-stratum", "50"],
            {"population_size": 2000, "sample_per_stratum": 50},
        ),
    ],
    ids=["materialized", "streamed"],
)
def test_crawl_matches_one_dataset_of_reproduce(tmp_path, dataset, crawl_flags, fields):
    from repro.cli import main
    from repro.obs.ledger import load_run

    crawl_dir, repro_dir = tmp_path / "crawl", tmp_path / "reproduce"
    assert main(["crawl", "--dataset", dataset, *crawl_flags, "--run-dir", str(crawl_dir)]) == 0
    run_reproduction(
        ReproductionConfig(
            datasets=(dataset,),
            network_days=1,
            shortlink_scale=0.001,
            run_dir=str(repro_dir),
            **fields,
        ),
        log=lambda *_: None,
    )
    crawl, reproduce = load_run(crawl_dir), load_run(repro_dir)

    def pages(run):
        return [record for record in run.verdicts if record.kind == "page"]

    assert pages(crawl) and pages(crawl) == pages(reproduce)
    crawl_counters = {
        name: value for name, value in crawl.registry.counters.items()
        if name.startswith("crawl.")
    }
    assert crawl_counters
    if dataset == "com":
        assert any(".stratum." in name for name in crawl_counters)
    for name, value in crawl_counters.items():
        per_dataset = f"crawl.{dataset}." + name[len("crawl."):]
        assert reproduce.registry.counters.get(per_dataset) == value, name
