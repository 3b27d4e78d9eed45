"""Rule-by-rule filter-list matcher: the test oracle for NoCoin matching.

Production matching (:class:`repro.core.nocoin.FilterList`) runs on the
batched automaton in :mod:`repro.core.fastpath`. This module keeps the
plain semantics that automaton must reproduce, as loops over the list's
compiled rules:

- URLs: the first rule in list order whose pattern matches wins, and any
  matching ``@@`` exception rule suppresses the hit;
- inline text: the first rule in list order that occurs in the text wins;
  a ``||host^`` rule occurs when its host is a substring of the lowered
  text (inline text has no scheme to anchor on).

The differential battery, the filter-list tests and
``benchmarks/bench_perf_primitives.py`` all import this one copy.
"""

from __future__ import annotations

from typing import Optional

from repro.core.nocoin import CompiledRule, FilterList, FilterMatch, FilterRule


def matches_text(compiled: CompiledRule, text: str, lowered: Optional[str] = None) -> bool:
    """Whether one rule occurs in inline text. ``lowered`` lets a list
    scan lower the document once instead of once per rule."""
    if compiled.rule.domain_anchor:
        if lowered is None:
            lowered = text.lower()
        return compiled.rule.pattern.split("^")[0].lower() in lowered
    return bool(compiled.matcher.search(text))


class OracleFilterList:
    """Reference twin of a :class:`FilterList`: same rules, no automaton.

    Exposes the list-level matchers a :class:`~repro.core.detector.PageDetector`
    calls, so it can stand in for the production list in whole campaigns.
    """

    def __init__(self, filters: FilterList) -> None:
        self.filters = filters

    def _excepted(self, url: str) -> bool:
        return any(exc.matches_url(url) for exc in self.filters._exceptions)

    def match_url(self, url: str) -> Optional[FilterRule]:
        for compiled in self.filters._compiled:
            if compiled.matches_url(url):
                return None if self._excepted(url) else compiled.rule
        return None

    def match_text(self, text: str) -> Optional[FilterRule]:
        if not text:
            return None
        lowered = text.lower()
        for compiled in self.filters._compiled:
            if matches_text(compiled, text, lowered):
                return compiled.rule
        return None

    def explain_url(self, url: str) -> Optional[FilterMatch]:
        for compiled in self.filters._compiled:
            matched = compiled.find_url(url)
            if matched is not None:
                if self._excepted(url):
                    return None
                return FilterMatch(
                    rule=compiled.rule, where="url", subject=url, matched=matched
                )
        return None

    def explain_text(self, text: str) -> Optional[FilterMatch]:
        if not text:
            return None
        lowered = text.lower()
        for compiled in self.filters._compiled:
            matched = compiled.find_text(text, lowered)
            if matched is not None:
                subject = text if len(text) <= 120 else text[:117] + "..."
                return FilterMatch(
                    rule=compiled.rule, where="text", subject=subject, matched=matched
                )
        return None

    def explain_scripts(self, scripts) -> list:
        matches = []
        for src, inline in scripts:
            match = None
            if src:
                match = self.explain_url(src)
            if match is None and inline:
                match = self.explain_text(inline)
            if match is not None:
                matches.append(match)
        return matches

    def match_scripts(self, scripts) -> list:
        hits = []
        for src, inline in scripts:
            rule = None
            if src:
                rule = self.match_url(src)
            if rule is None and inline:
                rule = self.match_text(inline)
            if rule is not None:
                hits.append(rule)
        return hits
