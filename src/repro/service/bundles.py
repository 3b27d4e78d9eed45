"""Versioned, hot-reloadable detection state.

A :class:`DetectionBundle` pins together everything a verdict depends on
— the NoCoin filter list and the wasm signature database — under one
version string. The server snapshots exactly one bundle reference per
request, so a reload can never produce a verdict computed half against
the old filters and half against the new signatures: the swap is a
single reference assignment, and both halves carry the stamp of the
version they were packaged under.

:class:`BundleStore` is the swap point. ``reload()`` validates the
candidate first and keeps the active bundle on any failure (rollback is
the degenerate case of never having moved); ``active()`` is a lock-free
single attribute read, safe against concurrent reloads. Every decision
lands in the ``service.reload.*`` counter namespace:

- ``service.reload.requests``  — reloads attempted,
- ``service.reload.applied``   — candidates validated and swapped in,
- ``service.reload.rejected``  — candidates refused (active unchanged),
- ``service.reload.mixed_bundle`` — requests that observed mismatched
  filter/db version stamps; the server checks every response and this
  counter staying zero is the no-torn-swap proof.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.core.nocoin import FilterList, default_nocoin_list
from repro.core.signatures import SignatureDatabase, build_reference_database


class BundleValidationError(ValueError):
    """A candidate bundle failed validation and must not be activated."""


@dataclass(frozen=True)
class DetectionBundle:
    """One immutable, versioned unit of detection state.

    ``filter_version`` and ``db_version`` are stamped onto the two halves
    at packaging time; a request that ever observed differing stamps
    would hold a torn bundle. :meth:`consistent` is the per-request check.
    """

    version: str
    filters: FilterList
    signatures: SignatureDatabase
    filter_version: str
    db_version: str

    @classmethod
    def build(
        cls,
        version: str,
        filters: Optional[FilterList] = None,
        signatures: Optional[SignatureDatabase] = None,
    ) -> "DetectionBundle":
        """Package a bundle; defaults to the bundled list + reference db.

        The filter list's combined automaton is built here, at packaging
        time, so a hot swap ships a warm automaton and never pays compile
        cost on the request path.
        """
        bundle = cls(
            version=version,
            filters=filters if filters is not None else default_nocoin_list(),
            signatures=(
                signatures if signatures is not None else build_reference_database()
            ),
            filter_version=version,
            db_version=version,
        )
        bundle.filters.warm()
        return bundle

    def consistent(self) -> bool:
        return self.filter_version == self.version == self.db_version


def validate_bundle(bundle: DetectionBundle) -> None:
    """Raise :class:`BundleValidationError` unless ``bundle`` is servable.

    A servable bundle has a version, internally consistent stamps, at
    least one compiled filter rule, and a signature database that knows
    at least one miner — an empty db or list is a data-pipeline accident
    upstream, not a legitimate refresh.
    """
    if not bundle.version:
        raise BundleValidationError("bundle has no version")
    if not bundle.consistent():
        raise BundleValidationError(
            f"bundle {bundle.version!r} is torn: filter stamp "
            f"{bundle.filter_version!r} vs db stamp {bundle.db_version!r}"
        )
    if not bundle.filters.rules:
        raise BundleValidationError(
            f"bundle {bundle.version!r} has an empty filter list"
        )
    if not bundle.signatures.miner_signatures():
        raise BundleValidationError(
            f"bundle {bundle.version!r} has a signature db with no miner records"
        )


@dataclass
class BundleStore:
    """The atomic swap point for detection state.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    the ``service.reload.*`` counters when supplied; counter updates
    happen under the same lock as the swap, so applied/rejected tallies
    are exact even with concurrent reloaders.
    """

    metrics: Optional[object] = None
    _active: Optional[DetectionBundle] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    generation: int = 0
    #: versions activated, in order (bounded: reload history is small)
    history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self._active is None:
            self._active = DetectionBundle.build("seed")
            self.history.append(self._active.version)

    def active(self) -> DetectionBundle:
        """The current bundle — one reference read, never torn."""
        return self._active

    def reload(self, candidate: DetectionBundle) -> bool:
        """Validate and atomically activate ``candidate``.

        Returns True when the swap happened. A failed validation leaves
        the active bundle untouched (rollback) and returns False.
        """
        with self._lock:
            self._inc("service.reload.requests")
            try:
                validate_bundle(candidate)
            except BundleValidationError:
                self._inc("service.reload.rejected")
                return False
            candidate.filters.warm()  # bundles built by hand warm up here
            self._active = candidate
            self.generation += 1
            self.history.append(candidate.version)
            self._inc("service.reload.applied")
            return True

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)
