"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

:data:`PER_LAYER` is the contract: ``BENCHMARK.json`` lists exactly these
names and units, and every traced run reports all of them (0 for a layer
the workload does not exercise). ``calls``, byte counts and ratios of
counts repeat exactly from run to run; times do not.
"""

from __future__ import annotations

from tracer import quantile

#: (metric name, unit); the stat suffix says how it is computed
PER_LAYER: tuple[tuple[str, str], ...] = (
    # internet
    ("internet.build_population.calls", "count"),
    ("internet.build_population.busy_s", "s"),
    ("internet.streaming.site.calls", "count"),
    ("internet.streaming.site.busy_s", "s"),
    ("internet.build_shortlink_population.busy_s", "s"),
    # web
    ("web.zgrab.fetch_domain.calls", "count"),
    ("web.zgrab.fetch_domain.busy_s", "s"),
    ("web.zgrab.fetch_domain.p50_us", "us"),
    ("web.zgrab.fetch_domain.p99_us", "us"),
    ("web.zgrab.fetch_domain.fail", "count"),
    ("web.browser.visit.calls", "count"),
    ("web.browser.visit.busy_s", "s"),
    ("web.browser.visit.self_s", "s"),
    ("web.browser.visit.p50_ms", "ms"),
    ("web.browser.visit.p99_ms", "ms"),
    ("web.html.scan_scripts.calls", "count"),
    ("web.html.scan_scripts.busy_s", "s"),
    ("web.http.has_host.calls", "count"),
    ("web.http.has_host.busy_s", "s"),
    # wasm
    ("wasm.builder.build.calls", "count"),
    ("wasm.builder.build.busy_s", "s"),
    ("wasm.decoder.decode_module.calls", "count"),
    ("wasm.decoder.decode_module.busy_s", "s"),
    ("core.dynamic.profile_execution.calls", "count"),
    ("core.dynamic.profile_execution.busy_s", "s"),
    # core detection
    ("core.signatures.build_reference_database.calls", "count"),
    ("core.signatures.build_reference_database.busy_s", "s"),
    ("core.signatures.lookup.calls", "count"),
    ("core.signatures.lookup.hit_ratio", "ratio"),
    ("core.nocoin.match_scripts.calls", "count"),
    ("core.nocoin.match_scripts.busy_s", "s"),
    ("core.nocoin.match_scripts.hit_ratio", "ratio"),
    ("core.nocoin.explain_scripts.calls", "count"),
    ("core.nocoin.explain_scripts.busy_s", "s"),
    ("core.classifier.calls", "count"),
    ("core.classifier.busy_s", "s"),
    ("core.detector.detect_static.calls", "count"),
    ("core.detector.detect_static.busy_s", "s"),
    ("core.detector.detect_static.self_s", "s"),
    ("core.detector.detect_page.calls", "count"),
    ("core.detector.detect_page.busy_s", "s"),
    ("core.detector.detect_page.self_s", "s"),
    # blockchain + pool
    ("blockchain.Transaction.hash.calls", "count"),
    ("blockchain.Transaction.hash.busy_s", "s"),
    ("blockchain.Transaction.hash.calls_per_tx", "ratio"),
    ("blockchain.Transaction.serialize.calls", "count"),
    ("blockchain.varint.encode.calls", "count"),
    ("blockchain.Block.block_id.calls", "count"),
    ("blockchain.Block.block_id.calls_per_block", "ratio"),
    ("blockchain.hashing_blob.calls", "count"),
    ("blockchain.Mempool.remove_included.calls", "count"),
    ("blockchain.Mempool.remove_included.busy_s", "s"),
    ("blockchain.Blockchain.force_append.calls", "count"),
    ("blockchain.Blockchain.force_append.busy_s", "s"),
    ("blockchain.TransferFactory.make.calls", "count"),
    ("blockchain.TransferFactory.make.busy_s", "s"),
    ("pool.build_template.calls", "count"),
    ("pool.build_template.busy_s", "s"),
    ("core.pool_association.attribute.busy_s", "s"),
    ("core.pool_association.attribute_explained.busy_s", "s"),
    ("analysis.network.simulate_network.busy_s", "s"),
    ("analysis.network.simulate_network.self_s", "s"),
    ("analysis.network.monthly_stats.busy_s", "s"),
    # analysis
    ("analysis.shard.calls", "count"),
    ("analysis.shard.busy_max_s", "s"),
    ("analysis.shard.busy_mean_s", "s"),
    ("analysis.shard.skew", "ratio"),
    ("analysis.shortlink.ShortLinkStudy.links_per_token.busy_s", "s"),
    ("analysis.shortlink.ShortLinkStudy.hash_requirements.busy_s", "s"),
    ("analysis.shortlink.ShortLinkStudy.destinations.busy_s", "s"),
    # obs + graph
    ("obs.trace.spans", "count"),
    ("obs.evidence.verdicts", "count"),
    ("graph.add_verdict.calls", "count"),
    ("graph.add_verdict.busy_s", "s"),
    ("graph.Graph.merge.busy_s", "s"),
    ("obs.ledger.write_run.busy_s", "s"),
    ("obs.ledger.bytes.trace", "bytes"),
    ("obs.ledger.bytes.verdicts", "bytes"),
    ("obs.ledger.bytes.graph", "bytes"),
    ("obs.ledger.bytes.metrics", "bytes"),
    ("obs.ledger.bytes.total", "bytes"),
    # the traced run itself
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

SHARD_TARGETS = ("analysis.shard.zgrab", "analysis.shard.chrome")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, extras: dict, call_started: float, call_ended: float) -> dict:
    """Every :data:`PER_LAYER` value except ``trace.overhead``.

    ``trace.overhead`` needs an untraced call to divide by, so the caller
    that ran one fills it in.
    """
    stats = tracer.stats
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        target = stats.get(prefix)
        if target is None:
            continue
        if stat == "calls":
            values[name] = target.calls
        elif stat == "busy_s":
            values[name] = target.busy
        elif stat == "self_s":
            values[name] = target.self_time
        elif stat == "hit_ratio":
            values[name] = _ratio(target.hits, target.calls)
        elif stat == "fail":
            values[name] = target.hits
        elif stat in ("p50_us", "p99_us", "p50_ms", "p99_ms"):
            scale = 1e6 if stat.endswith("_us") else 1e3
            values[name] = quantile(target.durations, int(stat[1:3]) / 100) * scale
    # chain bases: transfers made, and blocks appended to the chain
    values["blockchain.Transaction.hash.calls_per_tx"] = _ratio(
        stats["blockchain.Transaction.hash"].calls, stats["blockchain.TransferFactory.make"].calls
    )
    values["blockchain.Block.block_id.calls_per_block"] = _ratio(
        stats["blockchain.Block.block_id"].calls, stats["blockchain.Blockchain.force_append"].calls
    )

    # shard skew: slowest shard over the mean shard, worst campaign pass
    groups = [
        durations for target in SHARD_TARGETS for durations in stats[target].groups.values()
    ]
    shard_times = [d for durations in groups for d in durations]
    values["analysis.shard.calls"] = len(shard_times)
    values["analysis.shard.busy_max_s"] = max(shard_times, default=0.0)
    values["analysis.shard.busy_mean_s"] = _ratio(sum(shard_times), len(shard_times))
    values["analysis.shard.skew"] = max(
        (max(d) / (sum(d) / len(d)) for d in groups if sum(d) > 0), default=0.0
    )

    # run-dir artifacts (reproduce-rundir only)
    sizes = extras.get("bytes", {})
    for kind in ("trace", "verdicts", "graph"):
        values[f"obs.ledger.bytes.{kind}"] = sizes.get(f"{kind}.jsonl", 0)
    values["obs.ledger.bytes.metrics"] = sizes.get("metrics.json", 0)
    values["obs.ledger.bytes.total"] = sum(sizes.values())
    values["obs.trace.spans"] = extras.get("spans", 0)
    values["obs.evidence.verdicts"] = extras.get("verdicts", 0)

    values["trace.coverage"] = tracer.coverage(call_started, call_ended)
    missing = [name for name, _ in PER_LAYER if name not in values and name != "trace.overhead"]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return values
