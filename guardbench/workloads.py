"""Seeded query traces for the guard benchmark.

Every trace is recorded, not written by hand: a :class:`RecordingGuard` is
attached to the WP-SQLI-LAB testbed through the public
``WebApplication.install_guard`` hook and the testbed replays a request
stream.  Each query the application sends to its database becomes one
:class:`Item` -- the query text, the request's raw inputs and its path --
which is exactly the tuple the gateway receives on the wire.

The testbed runs over a database stand-in that answers every statement
with an empty result.  The routes replayed here build their SQL from the
request alone, never from an earlier result, so the recorded text is the
same as against the real simulated database, at a small fraction of the
cost (the simulated database re-parses and scans on every statement).

Two workloads, each a deterministic function of the seed:

- ``wpcom-mix`` -- the Table VI/VII 1%-writes stream (``mixed_stream``)
  over the paper's 1001-post performance site; reads repeat, and the
  engine's shape plans serve nearly every query.
- ``sqli-attack`` -- sqlmap-style variants of all 50 plugins
  (``generate_variants``) interleaved 4:1 with each plugin's benign
  request.  An attack query appears at most once per trace, warm-up
  included; the warm-up draws its variants from a disjoint seed space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.attacks.sqlgen import generate_variants
from repro.bench import mixed_stream, read_stream
from repro.database import QueryResult
from repro.phpapp.application import WebApplication
from repro.phpapp.request import HttpRequest
from repro.pti.fragments import FragmentStore
from repro.sqlparser.skeleton import skeletonize
from repro.testbed import build_testbed
from repro.testbed.exploits import benign_value, make_request
from repro.testbed.plugin_defs import ALL_PLUGINS

__all__ = [
    "Item",
    "RecordingGuard",
    "Trace",
    "WORKLOADS",
    "build_trace",
    "descriptors",
]

#: Posts on the ``wpcom-mix`` site: the paper's "1001 unique URLs"
#: performance site (Table VII).  One crawl cycle is the home page, the
#: posts and 2 author pages: 1004 requests, about 3000 queries.
WPCOM_POSTS = 1001
#: Requests per ``mixed_stream`` chunk of the ``wpcom-mix`` trace: one
#: crawl cycle of reads plus 1% writes.  ``read_stream`` restarts its
#: cycle in every chunk, so a shorter chunk would never reach the last
#: posts or the author pages.
WPCOM_CHUNK = 1014
#: Variants drawn per plugin and seed; 4 attacks go out per benign request.
VARIANTS_PER_PLUGIN = 40
ATTACKS_PER_BENIGN = 4
#: Warm-up queries of the ``sqli-attack`` trace.
WARMUP_QUERIES = 600


@dataclass(frozen=True)
class Item:
    """One query as the gateway receives it."""

    query: str
    inputs: tuple[tuple[str, str, str], ...]
    path: str


class RecordingGuard:
    """A ``QueryGuard`` that records every query and lets it through."""

    def __init__(self) -> None:
        self.items: list[Item] = []

    def check_query(self, query, context) -> None:
        self.items.append(
            Item(
                query,
                tuple((c.source, c.name, c.value) for c in context.inputs),
                context.path,
            )
        )


class _NullDatabase:
    """Answers every statement with an empty result (see module doc)."""

    def execute(self, sql: str) -> QueryResult:
        return QueryResult()


class _Recorder:
    """The testbed with a recording guard over the null database."""

    def __init__(self, app: WebApplication) -> None:
        self.app = app
        self.guard = RecordingGuard()
        app.install_guard(self.guard)
        app.wrapper.db = _NullDatabase()
        self._memo: dict[tuple, list[Item]] = {}

    def record(self, request: HttpRequest) -> list[Item]:
        start = len(self.guard.items)
        self.app.handle(request)
        items = self.guard.items[start:]
        del self.guard.items[start:]
        return items

    def record_read(self, request: HttpRequest) -> list[Item]:
        """Reads are pure functions of the request: record each URL once."""
        key = (request.path, tuple(sorted(request.get.items())))
        items = self._memo.get(key)
        if items is None:
            items = self._memo[key] = self.record(request)
        return items


def _sub_seed(seed: int, label: str, index: int) -> int:
    """A derived seed; string seeding keeps it independent of hash()."""
    return random.Random(f"{seed}:{label}:{index}").randrange(1, 2**31 - 1)


class Trace:
    """A workload's vocabulary, warm-up items and lazily grown timed pool."""

    def __init__(
        self,
        fragments: list[str],
        warmup: list[Item],
        chunks: Callable[[int], list[Item]],
    ) -> None:
        self.fragments = fragments
        self.warmup = warmup
        self.pool: list[Item] = []
        self._chunks = chunks
        self._next_chunk = 0

    def ensure(self, count: int) -> list[Item]:
        """Grow the timed pool to at least ``count`` items; return it."""
        while len(self.pool) < count:
            self.pool.extend(self._chunks(self._next_chunk))
            self._next_chunk += 1
        return self.pool


# ----------------------------------------------------------------------
# wpcom-mix
# ----------------------------------------------------------------------


def _wpcom_trace(seed: int, recorder: _Recorder, fragments) -> Trace:
    def replay(requests) -> list[Item]:
        items: list[Item] = []
        for request in requests:
            if request.is_write:
                items.extend(recorder.record(request))
            else:
                items.extend(recorder.record_read(request))
        return items

    # Two crawl cycles.  Serial queries alternate between the two
    # workers; when a cycle has an even number of queries, one extra
    # query between the cycles flips the parity, so every worker sees
    # every URL during warm-up.
    crawl = replay(
        read_stream(WPCOM_POSTS, WPCOM_POSTS + 3, _sub_seed(seed, "warm", 0))
    )
    warmup = crawl + crawl[: 1 - len(crawl) % 2] + crawl

    def chunk(index: int) -> list[Item]:
        return replay(
            mixed_stream(
                WPCOM_POSTS, WPCOM_CHUNK, 0.01, _sub_seed(seed, "mix", index)
            )
        )

    return Trace(fragments, warmup, chunk)


# ----------------------------------------------------------------------
# sqli-attack
# ----------------------------------------------------------------------


def _attack_round(
    recorder: _Recorder, variant_seed: int, seen: set[str]
) -> list[Item]:
    """One variant round over all plugins, 4 attacks : 1 benign, mixed.

    Attack queries already in ``seen`` are dropped, so no attack query is
    ever sent twice; benign queries repeat by design.
    """
    per_plugin = []
    for defn in ALL_PLUGINS:
        attacks: list[Item] = []
        for payload in generate_variants(defn, VARIANTS_PER_PLUGIN, variant_seed):
            for item in recorder.record(make_request(defn, payload)):
                if item.query not in seen:
                    seen.add(item.query)
                    attacks.append(item)
        benign = recorder.record(make_request(defn, benign_value(defn)))
        per_plugin.append((attacks, benign))
    items: list[Item] = []
    step = ATTACKS_PER_BENIGN
    for slot in range(0, VARIANTS_PER_PLUGIN, step):
        for attacks, benign in per_plugin:
            group = attacks[slot : slot + step]
            if group:
                items.extend(group)
                items.extend(benign)
    return items


def _attack_trace(seed: int, recorder: _Recorder, fragments) -> Trace:
    seen: set[str] = set()
    warmup: list[Item] = []
    index = 0
    while len(warmup) < WARMUP_QUERIES:
        warmup.extend(_attack_round(recorder, _sub_seed(seed, "warm", index), seen))
        index += 1
    del warmup[WARMUP_QUERIES:]

    def chunk(index: int) -> list[Item]:
        return _attack_round(recorder, _sub_seed(seed, "attack", index), seen)

    return Trace(fragments, warmup, chunk)


#: Workload name -> trace builder.
WORKLOADS: dict[str, Callable[[int, _Recorder, list[str]], Trace]] = {
    "wpcom-mix": _wpcom_trace,
    "sqli-attack": _attack_trace,
}


def build_trace(name: str, seed: int) -> Trace:
    """The seeded trace of workload ``name`` over the testbed vocabulary."""
    app = build_testbed(WPCOM_POSTS)
    fragments = list(FragmentStore.from_sources(app.all_sources()).fragments)
    return WORKLOADS[name](seed, _Recorder(app), fragments)


def descriptors(trace: Trace, used: int, blocked: list[bool]) -> dict[str, float]:
    """Workload descriptors over the first ``used`` timed items.

    ``exact_repeat_share`` / ``shape_repeat_share``: items whose query text
    / literal-free skeleton already appeared earlier (warm-up included).
    ``blocked_share``: items the oracle blocks.  ``input_bytes_mean``:
    UTF-8 bytes of raw input values per item.
    """
    items = trace.pool[:used]
    seen_query = {item.query for item in trace.warmup}
    seen_shape = {skeletonize(item.query).key for item in trace.warmup}
    exact = shape = 0
    input_bytes = 0
    for item in items:
        key = skeletonize(item.query).key
        exact += item.query in seen_query
        shape += key in seen_shape
        seen_query.add(item.query)
        seen_shape.add(key)
        input_bytes += sum(len(v.encode("utf-8")) for __, __, v in item.inputs)
    n = max(len(items), 1)
    return {
        "trace.exact_repeat_share": exact / n,
        "trace.shape_repeat_share": shape / n,
        "trace.blocked_share": sum(blocked[:used]) / n,
        "trace.input_bytes_mean": input_bytes / n,
    }

