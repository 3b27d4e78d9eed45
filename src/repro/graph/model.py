"""The attribution graph container and its persistence contract.

A :class:`Graph` is a typed property graph: nodes are keyed by an id that
embeds their kind (``domain:shop.com``, ``includer:zamvorcdn.io``,
``family:coinhive`` ...), edges by ``(kind, src, dst)``. Attribute values
are *sets of strings* merged by union, which makes :meth:`Graph.merge`
associative, commutative, and idempotent — per-shard subgraphs union in
any order (or twice, on resume) to the same graph, and sorted
serialization then makes ``graph.jsonl`` byte-identical for the same
seed/config regardless of shard count or executor.

Persistence follows the ledger-wide artifact contract: a compact
``{"schema_version": N}`` header line, then sorted-key compact JSON lines
(all nodes sorted by id, then all edges sorted by key). Headerless legacy
files are tolerated; files from a future schema are rejected with an
upgrade hint.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

GRAPH_SCHEMA_VERSION = 1

#: The node kinds the builder emits. Kept here so queries can validate
#: ``--to <kind>`` arguments without importing the builder.
NODE_KINDS = (
    "domain",
    "includer",
    "sig",
    "family",
    "pool",
    "rule",
    "stratum",
    "tenant",
    "bundle",
    "block",
)


class GraphSchemaError(ValueError):
    """graph.jsonl is malformed or from a newer schema."""


def node_id(kind: str, key: str) -> str:
    return f"{kind}:{key}"


def node_kind(nid: str) -> str:
    return nid.split(":", 1)[0]


def _clean(value) -> str:
    """Attribute values must be comma-free single-line strings.

    Commas separate set members in the serialized form and newlines would
    break the JSONL framing of downstream consumers, so both are folded.
    """
    return str(value).replace(",", ";").replace("\n", " ")


@dataclass
class Graph:
    """Nodes ``id -> (kind, {attr: set of values})``; edges
    ``(kind, src, dst) -> {attr: set of values}``. Plain dicts and sets,
    so partials carrying a graph pickle across process executors."""

    nodes: Dict[str, tuple] = field(default_factory=dict)
    edges: Dict[Tuple[str, str, str], dict] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.nodes or self.edges)

    def add_node(self, kind: str, key: str, /, **attrs) -> str:
        nid = node_id(kind, _clean(key))
        existing = self.nodes.get(nid)
        if existing is None:
            existing = (kind, {})
            self.nodes[nid] = existing
        store = existing[1]
        for name, value in attrs.items():
            if value is None or value == "":
                continue
            store.setdefault(name, set()).add(_clean(value))
        return nid

    def add_edge(self, kind: str, src: str, dst: str, /, **attrs) -> None:
        key = (kind, src, dst)
        store = self.edges.setdefault(key, {})
        for name, value in attrs.items():
            if value is None or value == "":
                continue
            store.setdefault(name, set()).add(_clean(value))

    def merge(self, other: "Graph") -> "Graph":
        """Union ``other`` into this graph (the shard merge law)."""
        for nid, (kind, attrs) in other.nodes.items():
            mine = self.nodes.get(nid)
            if mine is None:
                self.nodes[nid] = (kind, {k: set(v) for k, v in attrs.items()})
                continue
            for name, values in attrs.items():
                mine[1].setdefault(name, set()).update(values)
        for key, attrs in other.edges.items():
            store = self.edges.setdefault(key, {})
            for name, values in attrs.items():
                store.setdefault(name, set()).update(values)
        return self

    # -- views --------------------------------------------------------------

    def node_attrs(self, nid: str) -> dict:
        """Flattened attrs of one node: ``name -> "v1,v2"`` sorted."""
        kind_attrs = self.nodes.get(nid)
        if kind_attrs is None:
            return {}
        return _flatten(kind_attrs[1])

    def nodes_of_kind(self, kind: str) -> list:
        return sorted(n for n, (k, _) in self.nodes.items() if k == kind)

    def adjacency(self) -> Dict[str, list]:
        """``node -> [(edge kind, direction, other node)]``, sorted."""
        adj: Dict[str, list] = {nid: [] for nid in self.nodes}
        for kind, src, dst in self.edges:
            adj.setdefault(src, []).append((kind, "out", dst))
            adj.setdefault(dst, []).append((kind, "in", src))
        for entries in adj.values():
            entries.sort()
        return adj


def _flatten(attrs: dict) -> dict:
    return {name: ",".join(sorted(values)) for name, values in sorted(attrs.items())}


# ---------------------------------------------------------------------------
# persistence


def graph_to_jsonl(graph: Graph) -> str:
    """Canonical serialization: header, sorted nodes, sorted edges."""
    lines = [
        json.dumps(
            {
                "edges": len(graph.edges),
                "nodes": len(graph.nodes),
                "schema_version": GRAPH_SCHEMA_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for nid in sorted(graph.nodes):
        kind, attrs = graph.nodes[nid]
        lines.append(
            json.dumps(
                {"attrs": _flatten(attrs), "id": nid, "kind": kind},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    for key in sorted(graph.edges):
        kind, src, dst = key
        lines.append(
            json.dumps(
                {
                    "attrs": _flatten(graph.edges[key]),
                    "dst": dst,
                    "kind": kind,
                    "src": src,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def _explode(attrs: dict) -> dict:
    return {name: set(value.split(",")) if value else set() for name, value in attrs.items()}


def parse_graph_jsonl(text: str) -> Graph:
    """Inverse of :func:`graph_to_jsonl` (lossless round-trip).

    Accepts headerless legacy files — node and edge lines always carry
    ``id`` or ``src``, so the header is unambiguous. A bad line raises
    :class:`GraphSchemaError` naming its 1-based line in ``text``.
    """
    graph = Graph()
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    records = [(n, _graph_record(n, line)) for n, line in lines]
    if records:
        _, first = records[0]
        if "schema_version" in first and "id" not in first and "src" not in first:
            version = first["schema_version"]
            if not isinstance(version, int) or version < 1:
                raise GraphSchemaError(f"malformed graph schema header: {lines[0][1]!r}")
            if version > GRAPH_SCHEMA_VERSION:
                raise GraphSchemaError(
                    f"graph file uses schema v{version}, but this reader only "
                    f"understands up to v{GRAPH_SCHEMA_VERSION} — upgrade repro"
                )
            records = records[1:]
    for number, record in records:
        try:
            if "id" in record:
                graph.nodes[record["id"]] = (
                    record.get("kind", node_kind(record["id"])),
                    _explode(record.get("attrs", {})),
                )
            elif "src" in record:
                key = (record.get("kind", ""), record["src"], record["dst"])
                graph.edges[key] = _explode(record.get("attrs", {}))
            else:
                raise GraphSchemaError(
                    f"graph line {number} is neither node nor edge: {record!r}"
                )
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphSchemaError(f"malformed graph line {number}: {exc!r}") from exc
    return graph


def _graph_record(number: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise GraphSchemaError(f"malformed graph line {number}: {line!r}") from exc
    if not isinstance(record, dict):
        raise GraphSchemaError(f"malformed graph line {number}: {line!r}")
    return record


def write_graph_jsonl(path, graph: Graph) -> int:
    """Write a graph file; returns the node + edge count."""
    pathlib.Path(path).write_text(graph_to_jsonl(graph))
    return len(graph.nodes) + len(graph.edges)


def read_graph_jsonl(path) -> Graph:
    return parse_graph_jsonl(pathlib.Path(path).read_text())
