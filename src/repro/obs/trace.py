"""Lightweight structured tracing for campaign pipelines.

A :class:`Span` records one timed stage of work — ``campaign`` → ``shard``
→ ``site`` → ``fetch``/``parse``/``detect``/``ws-poll`` — with an id, a
parent link, start/end stamps from the injectable obs clock, and string
tags (``domain``, ``error_class``, …). A :class:`Tracer` hands out spans
via a context manager, auto-parenting nested spans through an explicit
stack, and serializes the collected list to JSONL (``--trace-out``).

Determinism: span ids are ``<prefix>-<sequence>``; each shard worker gets
its own tracer with a shard-derived prefix, so the id *set* of a sharded
run is independent of worker count and completion order — only the
durations reflect the real schedule. :func:`read_jsonl` inverts
:meth:`Tracer.write_jsonl` losslessly (floats round-trip exactly through
JSON's shortest-repr encoding).

File format: the first line is a ``{"schema_version": 1}`` header, then
one span object per line. Headerless files (written before the header
existed) still parse; a file from a *newer* schema raises
:class:`TraceSchemaError` instead of being half-read.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.clock import get_clock

#: Version of the on-disk trace format this module reads and writes.
TRACE_SCHEMA_VERSION = 1

_FIELDS = ("span_id", "parent_id", "name", "start", "end", "tags")


class TraceSchemaError(ValueError):
    """A trace file declares a schema this reader does not understand."""


@dataclass
class Span:
    """One timed stage of work."""

    span_id: str
    name: str
    start: float
    end: float = 0.0
    parent_id: str = ""
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set_tag(self, key: str, value) -> None:
        self.tags[str(key)] = str(value)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        unknown = set(payload) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown span fields: {sorted(unknown)}")
        return cls(
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id", ""),
            name=payload["name"],
            start=payload["start"],
            end=payload.get("end", 0.0),
            tags=dict(payload.get("tags", {})),
        )


class _SpanContext:
    """Context manager closing a span (and popping the tracer stack)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self._span.set_tag("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects spans for one execution context (campaign or shard).

    Not safe for concurrent use by multiple threads — the sharded
    executor gives every shard worker its own tracer and merges the span
    lists afterwards (see :meth:`adopt`), which is also what keeps ids
    deterministic.
    """

    def __init__(self, prefix: str = "t", clock=None) -> None:
        self.prefix = prefix
        self._clock = clock
        self.spans: list[Span] = []
        self._seq = 0
        self._stack: list[Span] = []

    @property
    def clock(self):
        return self._clock if self._clock is not None else get_clock()

    def span(self, name: str, **tags) -> _SpanContext:
        """Open a child of the innermost open span (or a root span)."""
        self._seq += 1
        span = Span(
            span_id=f"{self.prefix}-{self._seq}",
            name=name,
            start=self.clock.now(),
            parent_id=self._stack[-1].span_id if self._stack else "",
            tags={key: str(value) for key, value in tags.items()},
        )
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)

    # -- aggregation ---------------------------------------------------------------

    def adopt(self, spans: Iterable[Span], parent_id: str = "") -> None:
        """Merge another tracer's spans, re-rooting orphans under ``parent_id``.

        Shard workers trace independently; the campaign adopts their span
        lists and links each shard's root spans to the campaign span, so
        the exported trace is one connected tree.
        """
        for span in spans:
            if parent_id and not span.parent_id:
                span.parent_id = parent_id
            self.spans.append(span)

    def counts_by_name(self) -> dict:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    # -- serialization ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        return spans_to_jsonl(self.spans)

    def write_jsonl(self, path) -> int:
        """Write a header + one span object per line; returns the span count."""
        pathlib.Path(path).write_text(self.to_jsonl())
        return len(self.spans)


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Serialize spans as versioned JSONL (header line first)."""
    header = json.dumps({"schema_version": TRACE_SCHEMA_VERSION}, separators=(",", ":"))
    return header + "\n" + "".join(
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for span in spans
    )


def parse_jsonl(text: str) -> list:
    """Inverse of :func:`spans_to_jsonl` (lossless round-trip).

    Accepts both headered files and legacy headerless ones — a span line
    always carries ``span_id``, so the header is unambiguous. A bad line
    raises :class:`TraceSchemaError` naming its 1-based line in ``text``.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    records = [(n, _trace_record(n, line)) for n, line in lines]
    if records:
        _, first = records[0]
        if "schema_version" in first and "span_id" not in first:
            version = first["schema_version"]
            if not isinstance(version, int) or version < 1:
                raise TraceSchemaError(f"malformed trace schema header: {lines[0][1]!r}")
            if version > TRACE_SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"trace file uses schema v{version}, but this reader only "
                    f"understands up to v{TRACE_SCHEMA_VERSION} — upgrade repro"
                )
            records = records[1:]
    spans = []
    for number, record in records:
        try:
            spans.append(Span.from_dict(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceSchemaError(f"malformed trace line {number}: {exc!r}") from exc
    return spans


def _trace_record(number: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise TraceSchemaError(f"malformed trace line {number}: {line!r}") from exc
    if not isinstance(record, dict):
        raise TraceSchemaError(f"malformed trace line {number}: {line!r}")
    return record


def read_jsonl(path) -> list:
    """Load a ``--trace-out`` file back into :class:`Span` objects."""
    return parse_jsonl(pathlib.Path(path).read_text())
