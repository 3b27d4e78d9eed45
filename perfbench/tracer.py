"""Outside-in layer tracing for the benchmark.

The program has no spans of its own at these boundaries yet, so the
benchmark makes them: :class:`LayerTracer` swaps each public function named
in :data:`TARGETS` for a wrapper, runs the workload, and puts every
original object back. Nothing here edits the program's files.

Three wrapper kinds keep the cost proportional to what is needed:

- ``SPAN``: timed, and every call is kept as a span record
  ``(span_id, parent_id, name, start, end)`` for the trace file;
- ``TIMED``: timed (calls, busy and self time) but no record is kept —
  for functions called tens of thousands of times per run;
- ``COUNT``: a call counter only, for functions called more than about
  100k times per run, where even a clock read per call would distort the
  layers around them.

Self time is a span's duration minus the time its child spans cover. Each
thread keeps its own stack; a shard running in a worker thread starts a
new top-level span. Coverage is the union of top-level span intervals.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

SPAN, TIMED, COUNT = "span", "timed", "count"

#: marks wrapper functions so a restore check can find any left behind
WRAPPER_MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    """One public function of the program and how to wrap it."""

    name: str            # metric prefix, ``<module>.<function>``
    module: str          # import path of the defining module
    attr: str            # ``func`` or ``Class.method``
    kind: str = SPAN
    #: keep every duration (for quantiles)
    quantiles: bool = False
    #: ``hit(result, args) -> bool``: counts useful outcomes / failures
    hit: Optional[Callable] = None
    #: ``group(args, kwargs) -> key``: calls grouped for shard skew
    group: Optional[Callable] = None


def _truthy(result, _args) -> bool:
    return bool(result)


def _not_none(result, _args) -> bool:
    return result is not None


def _fetch_failed(result, _args) -> bool:
    return not result.ok


def _zgrab_shard_group(args, kwargs):
    campaign = args[0]
    scan_index = args[2] if len(args) > 2 else kwargs.get("scan_index", 0)
    return (campaign.population.spec.name, f"zgrab{scan_index}")


def _chrome_shard_group(args, _kwargs):
    return (args[0].population.spec.name, "chrome")


#: every public function the per-layer metrics are measured at
TARGETS: tuple[Target, ...] = (
    # internet
    Target("internet.build_population", "repro.internet.population", "build_population"),
    Target("internet.streaming.site", "repro.internet.streaming",
           "StreamingPopulation.site", TIMED),
    Target("internet.build_shortlink_population", "repro.internet.shortlinks",
           "build_shortlink_population"),
    # web
    Target("web.zgrab.fetch_domain", "repro.web.zgrab", "ZgrabFetcher.fetch_domain",
           quantiles=True, hit=_fetch_failed),
    Target("web.browser.visit", "repro.web.browser", "HeadlessBrowser.visit",
           quantiles=True),
    Target("web.html.scan_scripts", "repro.web.html", "scan_scripts", TIMED),
    Target("web.http.has_host", "repro.web.http", "SyntheticWeb.has_host", TIMED),
    # wasm
    Target("wasm.builder.build", "repro.wasm.builder", "WasmCorpusBuilder.build"),
    Target("wasm.decoder.decode_module", "repro.wasm.decoder", "decode_module"),
    Target("core.dynamic.profile_execution", "repro.core.dynamic", "profile_execution"),
    # core detection
    Target("core.signatures.build_reference_database", "repro.core.signatures",
           "build_reference_database"),
    Target("core.signatures.lookup", "repro.core.signatures", "SignatureDatabase.lookup",
           TIMED, hit=_not_none),
    Target("core.nocoin.match_scripts", "repro.core.nocoin", "FilterList.match_scripts",
           TIMED, hit=_truthy),
    Target("core.nocoin.explain_scripts", "repro.core.nocoin", "FilterList.explain_scripts",
           TIMED),
    Target("core.classifier", "repro.core.classifier", "MinerClassifier.classify_wasm", TIMED),
    Target("core.detector.detect_static", "repro.core.detector", "PageDetector.detect_static",
           TIMED),
    Target("core.detector.detect_page", "repro.core.detector", "PageDetector.detect_page"),
    # blockchain + pool
    Target("blockchain.Transaction.hash", "repro.blockchain.transactions",
           "Transaction.hash", TIMED),
    Target("blockchain.Transaction.serialize", "repro.blockchain.transactions",
           "Transaction.serialize", COUNT),
    Target("blockchain.varint.encode", "repro.blockchain.varint", "encode", COUNT),
    Target("blockchain.Block.block_id", "repro.blockchain.block", "Block.block_id", COUNT),
    Target("blockchain.hashing_blob", "repro.blockchain.block", "hashing_blob", COUNT),
    Target("blockchain.Mempool.remove_included", "repro.blockchain.chain",
           "Mempool.remove_included", TIMED),
    Target("blockchain.Blockchain.force_append", "repro.blockchain.chain",
           "Blockchain.force_append", TIMED),
    Target("blockchain.TransferFactory.make", "repro.blockchain.transactions",
           "TransferFactory.make", TIMED),
    Target("pool.build_template", "repro.pool.jobs", "build_template", TIMED),
    Target("core.pool_association.attribute", "repro.core.pool_association",
           "BlockAttributor.attribute"),
    Target("core.pool_association.attribute_explained", "repro.core.pool_association",
           "BlockAttributor.attribute_explained"),
    Target("analysis.network.simulate_network", "repro.analysis.network", "simulate_network"),
    Target("analysis.network.monthly_stats", "repro.analysis.network",
           "NetworkObservation.monthly_stats"),
    # analysis: the campaigns' public shard entry points, and the short links
    Target("analysis.shard.zgrab", "repro.analysis.crawl", "ZgrabCampaign.scan_sites_indexed",
           group=_zgrab_shard_group),
    Target("analysis.shard.chrome", "repro.analysis.crawl", "ChromeCampaign.run_sites",
           group=_chrome_shard_group),
    Target("analysis.shortlink.ShortLinkStudy.links_per_token", "repro.analysis.shortlink",
           "ShortLinkStudy.links_per_token"),
    Target("analysis.shortlink.ShortLinkStudy.hash_requirements", "repro.analysis.shortlink",
           "ShortLinkStudy.hash_requirements"),
    Target("analysis.shortlink.ShortLinkStudy.destinations", "repro.analysis.shortlink",
           "ShortLinkStudy.destinations"),
    # obs + graph
    Target("graph.add_verdict", "repro.graph.build", "add_verdict", TIMED),
    Target("graph.Graph.merge", "repro.graph.model", "Graph.merge"),
    Target("obs.ledger.write_run", "repro.obs.ledger", "write_run"),
)


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    hits: int = 0
    durations: list = field(default_factory=list)
    #: group key → per-call durations (shard skew)
    groups: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("start", "child", "span_id")

    def __init__(self, start: float, span_id: int) -> None:
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class LayerTracer:
    """Installs wrappers around :data:`TARGETS`; ``uninstall`` restores them.

    Use as a context manager. The program must already be importable. A
    module first imported while the wrappers are in binds them by ``from
    ... import`` and is traced too; ``uninstall`` restores it as well.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, Stat] = {t.name: Stat() for t in targets}
        #: kept span records ``(span_id, parent_id, name, start, end)``
        self.spans: list[tuple] = []
        #: ``(start, end)`` of every span with no traced parent
        self.top_level: list[tuple[float, float]] = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        #: ``(namespace, key, original)`` for every binding replaced
        self._replaced: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- install / restore ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for target in self.targets:
            importlib.import_module(target.module)
        for target in self.targets:
            owner, key, original = resolve(target)
            self.originals[target.name] = original
            wrapper = self._wrap(target, original)
            if owner is not None:  # a method: one binding, on its class
                self._replace(owner, key, original, wrapper)
                continue
            # a module function: also every ``from module import func`` copy
            for module in _program_modules():
                namespace = vars(module)
                for name, value in list(namespace.items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def _replace(self, namespace, key: str, original, wrapper) -> None:
        setattr(namespace, key, wrapper)
        self._replaced.append((namespace, key, original))

    def uninstall(self) -> None:
        while self._replaced:
            namespace, key, original = self._replaced.pop()
            setattr(namespace, key, original)
        # a module first imported while the wrappers were in bound them by
        # ``from ... import``; put the originals back there too
        for namespace, key, wrapper in _wrapper_bindings():
            setattr(namespace, key, getattr(wrapper, WRAPPER_MARK))

    # -- wrappers -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, target: Target, original):
        stat = self.stats[target.name]
        if target.kind == COUNT:
            def counted(*args, **kwargs):
                stat.calls += 1
                return original(*args, **kwargs)

            return _mark(counted, original)

        keep = target.kind == SPAN
        name = target.name
        hit = target.hit
        group = target.group
        quantiles = target.quantiles
        clock = time.perf_counter
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            parent_id = parent.span_id if parent is not None else 0
            span_id = tracer._new_id() if keep else parent_id
            frame = _Frame(clock(), span_id)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                stat.calls += 1
                stat.busy += duration
                stat.self_time += duration - frame.child
                if parent is not None:
                    parent.child += duration
                else:
                    tracer.top_level.append((frame.start, end))
                if keep:
                    tracer.spans.append((span_id, parent_id, name, frame.start, end))
                if quantiles:
                    stat.durations.append(duration)
                if group is not None:
                    stat.groups.setdefault(group(args, kwargs), []).append(duration)
            if hit is not None and hit(result, args):
                stat.hits += 1
            return result

        return _mark(timed, original)

    # -- results ------------------------------------------------------------------

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        if end <= start:
            return 0.0
        covered = 0.0
        cursor = start
        for lo, hi in sorted(self.top_level):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / (end - start)

    def write_spans(self, path) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "span_id": span_id, "parent_id": parent_id, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def resolve(target: Target):
    """``(class or None, attribute name, current object)`` for ``target``."""
    module = sys.modules.get(target.module) or importlib.import_module(target.module)
    if "." in target.attr:
        class_name, method = target.attr.split(".", 1)
        owner = getattr(module, class_name)
        return owner, method, owner.__dict__[method]
    return None, target.attr, getattr(module, target.attr)


def _mark(wrapper, original):
    setattr(wrapper, WRAPPER_MARK, original)
    wrapper.__name__ = getattr(original, "__name__", wrapper.__name__)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and WRAPPER_MARK in value.__dict__


def _wrapper_bindings():
    """``(namespace, key, wrapper)`` for every wrapper bound in the program."""
    found = []
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append((module, key, value))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        found.append((value, attr, member))
    return found


def leftover_wrappers() -> list[str]:
    """Every binding in the program's modules or classes that is a wrapper.

    Empty after a clean :meth:`LayerTracer.uninstall`: untraced code then
    runs with zero wrappers.
    """
    return [
        f"{getattr(namespace, '__module__', '')}:{getattr(namespace, '__name__', '')}.{key}"
        for namespace, key, _wrapper in _wrapper_bindings()
    ]


def restore_problems(tracer: LayerTracer) -> list[str]:
    """Targets whose binding is not the original object, plus leftovers."""
    problems = [
        target.name for target in tracer.targets
        if resolve(target)[2] is not tracer.originals.get(target.name)
    ]
    return problems + leftover_wrappers()


def quantile(values: list, q: float) -> float:
    """``q``-quantile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]
