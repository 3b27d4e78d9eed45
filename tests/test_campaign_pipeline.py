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
