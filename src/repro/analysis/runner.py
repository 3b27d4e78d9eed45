"""One-call reproduction runner.

``run_reproduction()`` executes every experiment at a configurable scale
and assembles a single markdown report with all regenerated tables — the
programmatic equivalent of running the whole benchmark suite, for use
from scripts, notebooks, or ``repro-mining reproduce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.crawl import ChromeCampaignResult
from repro.analysis.economics import EconomicsReport, user_count_bracket
from repro.analysis.metrics import CampaignMetrics
from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.analysis.parallel import (
    ParallelConfig,
    PopulationRecipe,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
)
from repro.analysis.reporting import render_day_hour_heatmap, render_table
from repro.analysis.shortlink import ShortLinkStudy
from repro.core.pool_association import BlockAttributor
from repro.faults.ledger import FaultLedger
from repro.graph.build import add_verdict
from repro.graph.model import Graph
from repro.obs.clock import get_clock
from repro.obs.evidence import VerdictRecord
from repro.obs.heartbeat import ProgressReporter
from repro.obs.ledger import persist_run
from repro.obs.profile import NULL_OBS, PROFILE_HEADER, make_obs, profile_rows
from repro.faults.plan import FaultPlan, build_fault_plan
from repro.faults.resilience import ResiliencePolicy
from repro.internet.population import build_population
from repro.internet.shortlinks import build_shortlink_population
from repro.sim.clock import utc_timestamp


@dataclass
class ReproductionConfig:
    """Scales for one full reproduction run.

    The defaults favour a quick run (seconds); the benchmark suite is the
    full-calibration reference. ``crawl`` runs one dataset of the crawl
    phase with the same fields.
    """

    seed: int = 2018
    crawl_scale: float = 0.25
    shortlink_scale: float = 0.004
    shortlink_samples: int = 100
    network_days: int = 28
    datasets: tuple[str, ...] = ("alexa", "com", "net", "org")
    crawl_shards: int = 1
    crawl_workers: int = 1
    crawl_executor: str = "thread"
    #: fault-injection profile for the crawls ("" = no chaos plane)
    fault_profile: str = ""
    #: checkpoint-journal directory for the crawls
    checkpoint_dir: Optional[str] = None
    #: write the campaign trace (span JSONL) here after the run
    trace_out: Optional[str] = None
    #: append a per-stage latency table to the report
    profile: bool = False
    #: persist run artifacts (manifest/metrics/trace/profile/ledger) here;
    #: implies observability
    run_dir: Optional[str] = None
    #: emit live progress snapshots every N seconds (0 = off)
    heartbeat: float = 0.0
    #: record windowed per-tick telemetry every N seconds into the run
    #: dir's ``timeseries.jsonl`` (0 = off; implies observability; the
    #: executor's progress hooks poll the recorder)
    timeseries_interval: float = 0.0
    #: stream index-addressable populations of this size instead of
    #: materializing ``crawl_scale`` builds (zgrab plane only; Chrome and
    #: its tables are skipped)
    population_size: int = 0
    #: custom rank strata for streaming runs (``parse_strata`` syntax;
    #: "" = the dataset's calibrated default buckets)
    strata: str = ""
    #: scan only K sampled ranks per stratum (0 = the full population)
    sample_per_stratum: int = 0


@dataclass
class ReproductionReport:
    """Collected results plus the rendered markdown."""

    config: ReproductionConfig
    sections: dict[str, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report — Digging into Browser-based Crypto Mining",
            "",
            f"seed={self.config.seed} crawl_scale={self.config.crawl_scale} "
            f"shortlink_scale={self.config.shortlink_scale} "
            f"network_days={self.config.network_days}",
            f"completed in {self.elapsed_seconds:.1f}s",
        ]
        for title, body in self.sections.items():
            lines += ["", f"## {title}", "", "```", body, "```"]
        return "\n".join(lines) + "\n"


class ObservedRun:
    """Observability for one ``crawl`` or ``reproduce`` run.

    Owns the obs context (on when a trace, a profile, a run dir or
    telemetry is asked for), the heartbeat, the telemetry recorder, and
    what the run dir persists: the verdicts, attribution graph and fault
    ledger that :func:`run_dataset` merges in.
    """

    def __init__(self, prefix: str, config: ReproductionConfig) -> None:
        self.config = config
        observe = (
            bool(config.trace_out)
            or config.profile
            or config.run_dir is not None
            or config.timeseries_interval > 0
        )
        self.obs = make_obs(prefix=prefix) if observe else NULL_OBS
        self.progress = ProgressReporter(config.heartbeat) if config.heartbeat > 0 else None
        self.recorder = None
        if config.timeseries_interval > 0:
            from repro.obs.timeseries import RecorderProgress, TimeSeriesRecorder

            # origin anchored at the current obs-clock reading: tick times are
            # relative, and a PerfClock's absolute value is arbitrary
            self.recorder = TimeSeriesRecorder(
                registry=self.obs.registry,
                interval=config.timeseries_interval,
                origin=get_clock().now(),
            )
            self.progress = RecorderProgress(self.recorder, self.progress)
        self.verdicts: list = []  # populated only on observed runs (campaigns gate)
        self.graph = Graph()  # attribution graph; stays empty on unobserved runs
        self.ledger = FaultLedger()

    def collect(self, verdicts, graph: Optional[Graph]) -> None:
        self.verdicts.extend(verdicts)
        if graph is not None:
            self.graph.merge(graph)

    def close(self, command: str, params: dict, log=print) -> None:
        """Write the trace, finish the recorder and write the run dir, as asked.

        The run dir's manifest records the shared campaign settings plus
        the command's own ``params``.
        """
        config = self.config
        if config.trace_out:
            self.obs.tracer.write_jsonl(config.trace_out)
            log(f"trace: {len(self.obs.tracer.spans)} spans -> {config.trace_out}")
        if self.recorder is not None:
            self.recorder.finish(get_clock().now())
            fired = sum(1 for event in self.recorder.alerts if event.kind == "fire")
            log(
                f"timeseries: {len(self.recorder.records)} ticks at "
                f"{config.timeseries_interval:g}s, alerts fired {fired}"
            )
        if config.run_dir is None:
            return
        params = {
            "seed": config.seed,
            "shards": config.crawl_shards,
            "workers": config.crawl_workers,
            "executor": config.crawl_executor,
            "fault_profile": config.fault_profile,
            "heartbeat": config.heartbeat,
            "timeseries_interval": config.timeseries_interval,
            "population_size": config.population_size,
            "strata": config.strata,
            "sample_per_stratum": config.sample_per_stratum,
            **params,
        }
        persist_run(
            config.run_dir, command, params, self.obs.registry, self.ledger,
            spans=self.obs.tracer.spans,
            verdicts=self.verdicts,
            timeseries=self.recorder.timeseries() if self.recorder is not None else None,
            graph=self.graph,
            log=log,
        )


@dataclass
class DatasetRun:
    """What :func:`run_dataset` ran on one dataset."""

    population: object
    fault_plan: Optional[FaultPlan]
    scans: list  # both zgrab scans
    zgrab_metrics: CampaignMetrics  # of the second scan
    chrome: Optional[ChromeCampaignResult] = None
    chrome_metrics: Optional[CampaignMetrics] = None


def run_dataset(
    dataset: str,
    config: ReproductionConfig,
    run: ObservedRun,
    prefix: str,
    signature_db_path: Optional[str] = None,
) -> DatasetRun:
    """Run the paper's §3 methodology on one dataset.

    Two zgrab scans matched against NoCoin, then the instrumented Chrome
    pass if the dataset has one (streamed populations are zgrab only).
    Verdicts, graph and fault ledger merge into ``run``; the summary and
    per-stratum counters land under ``prefix``. ``--workers N`` runs at
    least N shards, so no worker idles.
    """
    fault_plan = build_fault_plan(config.fault_profile, seed=config.seed)
    if config.population_size > 0:
        from repro.internet.population import DATASETS
        from repro.internet.streaming import StreamingPopulation, parse_strata

        population = StreamingPopulation(
            dataset,
            seed=config.seed,
            size=config.population_size,
            strata=parse_strata(config.strata, DATASETS[dataset]) if config.strata else None,
            sample_per_stratum=config.sample_per_stratum,
        )
    else:
        population = build_population(dataset, seed=config.seed, scale=config.crawl_scale)
    if fault_plan is not None:
        population.attach_fault_plan(fault_plan)
    parallel_config = ParallelConfig(
        shards=max(config.crawl_shards, config.crawl_workers),
        workers=config.crawl_workers,
        mode=config.crawl_executor,
        resilience=ResiliencePolicy() if fault_plan is not None else None,
        checkpoint_dir=config.checkpoint_dir,
    )
    obs = run.obs
    zgrab = ShardedZgrabCampaign(
        population=population, config=parallel_config, obs=obs, progress=run.progress
    )
    scans = []
    for scan_index in (0, 1):  # metrics hold the most recent scan only
        scans.append(zgrab.scan(scan_index))
        run.ledger.merge(zgrab.metrics.fault_ledger)
    for scan_index, scan in enumerate(scans):
        run.collect(scan.verdicts, scan.graph)
        # campaign-level summary counters: schedule-independent, so
        # persisted runs diff on them (and CI can gate on ratios)
        scan_prefix = f"{prefix}.zgrab{scan_index}"
        obs.inc(f"{scan_prefix}.domains_probed", scan.domains_probed)
        obs.inc(f"{scan_prefix}.nocoin_domains", scan.nocoin_domains)
        obs.inc(f"{scan_prefix}.fetch_failures", scan.fetch_failures)
        for row in scan.stratum_rows:
            obs.inc(f"{scan_prefix}.stratum.{row.stratum}.probed", row.probed)
            obs.inc(f"{scan_prefix}.stratum.{row.stratum}.hits", row.hits)
    result = DatasetRun(population, fault_plan, scans, zgrab.metrics)
    if config.population_size > 0 or not population.spec.chrome_crawl:
        return result
    chrome = ShardedChromeCampaign(
        population=population,
        recipe=PopulationRecipe(
            dataset,
            seed=config.seed,
            scale=config.crawl_scale,
            fault_profile=config.fault_profile,
        ),
        config=parallel_config,
        signature_db_path=signature_db_path,
        obs=obs,
        progress=run.progress,
    )
    result.chrome = chrome.run()
    result.chrome_metrics = chrome.metrics
    run.ledger.merge(chrome.metrics.fault_ledger)
    run.collect(result.chrome.verdicts, result.chrome.graph)
    tab = result.chrome.cross_tab
    obs.inc(f"{prefix}.chrome.wasm_miners", tab.wasm_miner_hits)
    obs.inc(f"{prefix}.chrome.nocoin_hits", tab.nocoin_hits)
    return result


def run_reproduction(config: Optional[ReproductionConfig] = None, log=print) -> ReproductionReport:
    """Run every experiment; returns the assembled report."""
    config = config if config is not None else ReproductionConfig()
    report = ReproductionReport(config=config)
    run = ObservedRun("repro", config)
    obs = run.obs
    clock = get_clock()
    started = clock.now()

    # ---- Figure 2 + Tables 1-3 ------------------------------------------------
    streaming = config.population_size > 0
    chrome_rows = []
    fig2_rows = []
    stratum_rows = []
    for dataset in config.datasets:
        if streaming:
            log(f"[crawl] {dataset} @ streaming population {config.population_size}")
        else:
            log(f"[crawl] {dataset} @ scale {config.crawl_scale}")
        result = run_dataset(dataset, config, run, prefix=f"crawl.{dataset}")
        for scan_index, scan in enumerate(result.scans):
            fig2_rows.append(
                [dataset, scan.scan_date, scan.nocoin_domains, f"{scan.prevalence:.4%}"]
            )
            for row in scan.stratum_rows:
                stratum_rows.append(
                    [dataset, scan_index, row.stratum, row.probed, row.hits,
                     f"{row.prevalence:.4%}", row.population_size,
                     row.estimated_domains]
                )
        if streaming and result.population.spec.chrome_crawl:
            log(f"[crawl] {dataset}: chrome plane skipped (streaming run)")
        if result.chrome is not None:
            tab = result.chrome.cross_tab
            top = ", ".join(
                f"{f}:{c}" for f, c in result.chrome.signature_counts.most_common(3)
            )
            chrome_rows.append(
                [dataset, tab.wasm_miner_hits, tab.nocoin_hits,
                 f"{tab.missed_fraction:.0%}", f"{tab.detection_factor:.1f}x", top]
            )
        del result  # one dataset's population in memory at a time
    report.sections["Figure 2 — NoCoin prevalence"] = render_table(
        ["dataset", "scan", "NoCoin domains", "prevalence"], fig2_rows
    )
    report.sections["Tables 1–2 — Chrome crawls"] = render_table(
        ["dataset", "Wasm miners", "NoCoin hits", "missed", "factor", "top families"],
        chrome_rows,
    )
    if stratum_rows:
        report.sections["Per-stratum prevalence"] = render_table(
            ["dataset", "scan", "stratum", "probed", "hits", "prevalence",
             "stratum size", "est. domains"],
            stratum_rows,
        )
    chaos_active = (
        build_fault_plan(config.fault_profile, seed=config.seed) is not None
        or config.checkpoint_dir is not None
    )
    if chaos_active and run.ledger.has_events():
        report.sections["Fault ledger"] = (
            render_table(FaultLedger.SUMMARY_HEADER, run.ledger.summary_rows())
            + "\n"
            + run.ledger.status_line()
        )

    # ---- Figures 3-4 + Tables 4-5 ------------------------------------------------
    log(f"[shortlinks] scale {config.shortlink_scale}")
    with obs.span("shortlinks", scale=config.shortlink_scale):
        population = build_shortlink_population(seed=config.seed, scale=config.shortlink_scale)
        study = ShortLinkStudy(population=population, sample_per_top_user=config.shortlink_samples)
        ranks = study.links_per_token()
        hashes = study.hash_requirements()
        destinations = study.destinations()
    report.sections["Figures 3–4 — short links"] = render_table(
        ["quantity", "value"],
        [
            ["links / tokens", f"{ranks.total_links} / {len(ranks.counts_by_rank)}"],
            ["top-1 / top-10 share", f"{ranks.top1_share:.1%} / {ranks.topn_share(10):.1%}"],
            ["≤1024 hashes (unbiased)", f"{hashes.share_resolvable_within(1024):.0%}"],
            ["max hashes", max(hashes.all_links)],
        ],
    )
    report.sections["Tables 4–5 — destinations"] = render_table(
        ["destination", "count"], destinations.top_user_domains.most_common(8)
    ) + "\n\n" + render_table(
        ["category", "count"], destinations.unbiased_categories.most_common(8)
    )

    # ---- Figure 5 + Table 6 ----------------------------------------------------------
    log(f"[network] {config.network_days} days")
    start = utc_timestamp(2018, 4, 26)
    with obs.span("network-sim", days=config.network_days):
        observation = simulate_network(
            NetworkSimConfig(seed=config.seed, start=start, end=start + config.network_days * 86400)
        )
    if obs.enabled:
        # block verdicts: each attribution cites its Merkle-root proof
        explained = BlockAttributor(chain=observation.chain).attribute_explained(
            observation.clusters
        )
        obs.inc("detector.pool.blocks_attributed", len(explained))
        for block, evidence in explained:
            record = VerdictRecord(
                subject=f"block-{block.height}",
                dataset="network",
                pipeline="pool",
                kind="block",
                is_miner=True,
                family="coinhive",
                method="pool-association",
                confidence=1.0,
                evidence=(evidence,),
            )
            run.verdicts.append(record)
            add_verdict(run.graph, record)
    economics = EconomicsReport.from_attributed(observation.attributed)
    median_difficulty = observation.chain.median_difficulty(last=5000)
    pool_rate = observation.overall_share() * median_difficulty / 120
    high, low = user_count_bracket(max(pool_rate, 1.0))
    report.sections["Figure 5 — blocks over time"] = render_day_hour_heatmap(
        observation.day_hour_matrix()
    )
    report.sections["Table 6 — economics"] = render_table(
        ["quantity", "value"],
        [
            ["blocks attributed", len(observation.attributed)],
            ["share of all blocks", f"{observation.overall_share():.2%}"],
            ["attribution recall", f"{observation.attribution_recall():.1%}"],
            ["pool hash rate", f"{pool_rate / 1e6:.1f} MH/s"],
            ["users @20–100 H/s", f"{low:,.0f}–{high:,.0f}"],
            ["XMR mined", f"{economics.xmr_mined:.0f}"],
            ["USD @120/XMR", f"{economics.gross_usd:,.0f}"],
        ],
    )

    if config.profile:
        rows = profile_rows(obs.registry)
        report.sections["Stage profile"] = (
            render_table(PROFILE_HEADER, rows) if rows else "(no stages recorded)"
        )
    run.close(
        "reproduce",
        {
            "crawl_scale": config.crawl_scale,
            "shortlink_scale": config.shortlink_scale,
            "shortlink_samples": config.shortlink_samples,
            "network_days": config.network_days,
            "datasets": ",".join(config.datasets),
        },
        log=log,
    )

    report.elapsed_seconds = clock.now() - started
    return report
