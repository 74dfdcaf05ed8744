"""In-process reference verdicts and the gateway verdict check.

The oracle is a plain :class:`~repro.core.JozaEngine` over the same
vocabulary and default config the gateway's workers use.  It replays the
warm-up items, then the timed items in trace order, timing each
``JozaEngine.inspect`` call: the same pass is the correctness reference
and the in-process baseline (``engine.inproc_*``).

A gateway verdict is checked on two fields only, its ``safe`` flag and
the set of techniques that flagged the query.  Markings and cache
provenance legitimately differ between equally correct engines whose
caches saw different traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import JozaConfig, JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti.fragments import FragmentStore

__all__ = ["Expected", "Oracle", "summarize", "Mismatch"]

_TECHNIQUES = ("pti", "nti")


@dataclass(frozen=True)
class Expected:
    """What a correct verdict says about one query."""

    safe: bool
    flagged_by: frozenset[str]


@dataclass(frozen=True)
class Mismatch:
    phase: str
    index: int
    query: str
    expected: Expected
    got: Expected

    @property
    def fail_open(self) -> bool:
        return self.got.safe and not self.expected.safe


def summarize(verdict: dict) -> Expected:
    """The checked fields of a gateway verdict dict."""
    flagged = frozenset(
        name
        for name in _TECHNIQUES
        if verdict.get(name) is not None and not verdict[name].get("safe", True)
    )
    return Expected(verdict.get("safe") is True, flagged)


def _context(item) -> RequestContext:
    return RequestContext(
        inputs=[CapturedInput(s, n, v) for s, n, v in item.inputs],
        path=item.path,
    )


class Oracle:
    """Expected verdicts for a trace prefix, computed once and extended."""

    def __init__(self, fragments, warmup) -> None:
        self.engine = JozaEngine(FragmentStore(list(fragments)), JozaConfig())
        for item in warmup:
            self.engine.inspect(item.query, _context(item))
        self.expected: list[Expected] = []
        #: Seconds per ``JozaEngine.inspect`` call, aligned with ``expected``.
        self.seconds: list[float] = []

    def extend(self, items) -> list[Expected]:
        """Cover ``items`` (the timed pool, in order); return all expected."""
        for item in items[len(self.expected) :]:
            context = _context(item)
            t0 = time.perf_counter()
            verdict = self.engine.inspect(item.query, context)
            self.seconds.append(time.perf_counter() - t0)
            self.expected.append(
                Expected(
                    verdict.safe,
                    frozenset(t.value for t in verdict.detected_by()),
                )
            )
        return self.expected

    def check(self, phase: str, records, items) -> list[Mismatch]:
        """Compare one phase's real verdicts with the oracle's.

        ``records`` are ``(index, verdict dict or None, latency)``; records
        without a real verdict (transport error, shed, failsafe) are the
        phase's failures and are not compared here.
        """
        self.extend(items[: 1 + max((r[0] for r in records), default=-1)])
        mismatches = []
        for index, verdict, __ in records:
            if verdict is None or verdict.get("failsafe"):
                continue
            got = summarize(verdict)
            expected = self.expected[index]
            if got != expected:
                mismatches.append(
                    Mismatch(phase, index, items[index].query, expected, got)
                )
        return mismatches
